#!/usr/bin/env python3
"""The repository benchmark: one command, two workloads, every metric.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  It builds the library from ../src together
with the measuring program (perfbench/CMakeLists.txt) into .bench_build/,
runs the workload, checks every output against a reference the timed path
did not produce, prints each metric by name with its unit, writes a full
report (raw samples' summaries, the plan each layer ran, host, seed, source
digest) and, for --trace 1, the recorded spans to .bench_out/, and ends with
one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones (see
perfbench/README.md for what each means and which end-to-end metric it
should move).  The exit code is 1 when an output is wrong (the result line
still prints, with "correct": false) and when the run cannot complete (then
no result line prints).
"""

import argparse
import hashlib
import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = {
    "vgg16_b1": ["--batch", "1", "--threads", "1"],
    "serve_small_open": None,
}

VGG_LAYERS = (["conv1_1", "conv1_2", "pool1", "conv2_1", "conv2_2", "pool2"]
              + ["conv3_%d" % i for i in (1, 2, 3)] + ["pool3"]
              + ["conv4_%d" % i for i in (1, 2, 3)] + ["pool4"]
              + ["conv5_%d" % i for i in (1, 2, 3)] + ["pool5", "fc6", "fc7", "fc8"])
SERVE_LAYERS = ["c1", "p1", "f1"]
# Must match kLadder in serve_workload.cpp.
LADDER_RATES = [500, 1000, 2000, 4000, 8000, 12000, 16000]
LOW_RATE, HIGH_RATE = 500, 2000  # the fixed rates (kHighRate)


def run_budget_s(seconds):
    """Wall-clock budget of all measuring processes of one run (the build is
    separate); a run that exceeds it is killed and reported as failed.  The
    fixed part covers set-ups, references and grace periods; a traced serving
    run with a repeated attempt, the longest, measures for about 2.5 x
    --seconds.  It never exceeds 170 s, so that a run ends within 180 s,
    which holds up to MAX_SECONDS."""
    return min(170.0, 90.0 + 3.0 * seconds)


MAX_SECONDS = 60


def per_layer_names():
    names = []
    for layer in VGG_LAYERS + SERVE_LAYERS:
        names.append(("kernels.%s.ms" % layer, "ms"))
        if not layer.startswith(("pool", "p1")):
            names.append(("kernels.%s.gops" % layer, "GOPS"))
    names += [("graph.glue_ms", "ms"), ("graph.finalize_s", "s"),
              ("bitpack.pack_input_ms", "ms"), ("bitpack.pack_weights_s", "s"),
              ("runtime.forkjoin_us", "us"),
              ("tune.search_s", "s"), ("tune.warm_setup_s", "s"),
              ("tune.layers_searched", "count"), ("tune.layers_off_default", "count"),
              ("serve.inproc_p50_ms_at_500rps", "ms"), ("serve.inproc_p99_ms_at_500rps", "ms"),
              ("serve.inproc_p99_ms_at_2000rps", "ms"),
              ("serve.mean_batch", "count"), ("serve.batch_fill", "ratio"),
              ("serve.refused", "count"), ("serve.expired", "count"),
              ("net.wire_p50_ms", "ms"), ("net.encode_us", "us"), ("net.decode_us", "us")]
    names += [("loadgen.max_lag_ms.r%d" % r, "ms") for r in LADDER_RATES]
    names += [("trace.overhead_pct", "%")]
    return names


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Failure(Exception):
    pass


# --- build ---------------------------------------------------------------------

def build(build_root):
    """Configures (once) and builds the measuring program; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise Failure("library sources not found under %s/src" % ROOT)
    bdir = os.path.join(build_root, "perfbench")
    os.makedirs(bdir, exist_ok=True)
    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(build_root, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_checked(cmd, env)
    run_checked(["cmake", "--build", bdir, "--target", "perfbench", "-j", jobs], env)
    exe = os.path.join(bdir, "perfbench")
    if not os.path.isfile(exe):
        raise Failure("build produced no perfbench executable")
    return exe


def run_checked(cmd, env=None):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        raise Failure("command failed (%d): %s" % (proc.returncode, " ".join(cmd)))


# --- running the program ----------------------------------------------------------

def last_json(text, what):
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise Failure("%s printed no result" % what)
    try:
        return json.loads(lines[-1])
    except ValueError as e:
        raise Failure("%s printed a malformed result: %s" % (what, e))


def run_mode(exe, args, deadline, what):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise Failure("time budget exhausted before %s" % what)
    try:
        proc = subprocess.run([exe] + args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise Failure("%s exceeded the time budget" % what)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise Failure("%s exited with %d" % (what, proc.returncode))
    return last_json(proc.stdout, what)


def run_serve(exe, args, deadline):
    """Server process + wire client processes over loopback TCP.  The part 1
    client reads the server's peak RSS after its first saturation burst."""
    server = subprocess.Popen([exe, "serve-server", "--seed", str(args.seed),
                               "--setup-reps", "101"],
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        if not select.select([server.stdout], [], [], max(1.0, deadline - time.monotonic()))[0]:
            raise Failure("serving tier did not start in time")
        ready_line = server.stdout.readline()
        if not ready_line:
            raise Failure("serving tier did not start")
        ready = json.loads(ready_line)
        clients = []
        for part in (1, 2):
            clients.append(run_mode(exe, ["serve-client", "--port", str(ready["port"]),
                                          "--part", str(part), "--seed", str(args.seed),
                                          "--seconds", str(args.seconds),
                                          "--server-pid", str(server.pid)],
                                    deadline, "serve client part %d" % part))
        ready["peak_rss_mb"] = clients[0]["server_peak_rss_mb"]
        try:
            out, _ = server.communicate("stop\n", timeout=max(5.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise Failure("serving tier did not stop")
        if server.returncode != 0:
            raise Failure("serving tier exited with %d" % server.returncode)
        stats = last_json(out, "serving tier")
    finally:
        if server.poll() is None:
            server.kill()
        server.wait()
    client = dict(clients[0], parts=clients)
    client["connection_failed"] = any(c["connection_failed"] for c in clients)
    client["ladder"] = dict(clients[0]["ladder"],
                            steps=clients[0]["ladder"]["steps"] + clients[1]["ladder"]["steps"])
    return ready, client, stats


# A serving run is sensitive to CPU steal: the pipeline hands each request
# across four threads, and a vCPU the hypervisor withholds stalls all of
# them.  At 20-26% steal, saturation throughput fell to ~40% and p50 at 500 rps
# rose up to 1.8x.  When the hypervisor withheld more than STEAL_LIMIT_PCT of
# the CPUs' time during an attempt, the run makes one more and keeps the
# attempt with the least steal.
STEAL_LIMIT_PCT = 5.0
SERVE_ATTEMPTS = 2


def serve_attempts(exe, args, deadline):
    attempts = []
    while True:
        ticks, t0 = cpu_ticks(), time.monotonic()
        ready, client, stats = run_serve(exe, args, deadline)
        steal = steal_pct(ticks, cpu_ticks())
        attempts.append({"steal_pct": steal if steal is not None else 0.0,
                         "ready": ready, "client": client, "stats": stats})
        took = time.monotonic() - t0
        reserve = args.seconds if args.trace else 0.0  # the in-process trace run
        if (steal is None or steal <= STEAL_LIMIT_PCT or len(attempts) == SERVE_ATTEMPTS
                or deadline - time.monotonic() < 1.5 * took + reserve):
            return attempts


# --- metrics --------------------------------------------------------------------------

def step_at(steps, rate):
    for s in steps:
        if s["rate"] == rate:
            return s
    return None


def max_rps_step(steps):
    passed = [s for s in steps if s["passed"]]
    return max(passed, key=lambda s: s["rate"]) if passed else None


def support(summary, what):
    """Sample count and the highest percentile with >= 10 samples beyond it."""
    top = "p%g" % summary["top_pct"] if summary["top_pct"] else "none"
    return "n=%d %s; highest with >=10 beyond: %s" % (summary["n"], what, top)


def printed(name, value, unit, note=""):
    print("%-36s %14.6g %-6s %s" % (name, value, unit, note))


def vgg_metrics(res, trace_res):
    """latency_ms is the fastest call.  On a shared host one thread's
    per-call latency switches, for seconds at a time, between an
    uncontended and a contended level (~120 and ~190 ms for vgg16_b1), and
    the share of contended time differs from run to run.  vgg16_b1 makes ~7
    short calls a second, so its fastest call reliably lands in an
    uncontended stretch (run values 118-134 ms in one set of ten) while its
    median jumps between the levels (128-197 ms).  Every call does the same
    work, so a slower program raises the fastest call too."""
    lat = res["latency_ms"]
    named = {
        "latency_p50_ms": (lat["p50"], "ms", support(lat, "calls")),
        "latency_p90_ms": (lat["p90"], "ms", "n=%d calls, %d beyond p90" % (
            lat["n"], lat["n"] - math.ceil(0.9 * lat["n"]))),
        "images_per_s": (res["images_per_s"], "1/s", "%d images in %.2f s" % (res["images"], res["wall_s"])),
        "failed_ratio": (res["mismatched_calls"] / max(1, res["calls"]), "ratio",
                         "%d of %d calls" % (res["mismatched_calls"], res["calls"])),
    }
    e2e = {
        "latency_ms": lat["min"],
        "throughput_per_s": res["images_per_s"],
        "setup_s": statistics.median(res["setup_s"]),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    notes = {"latency_ms": "fastest of %d infer_batch calls" % lat["n"],
             "throughput_per_s": "images_per_s",
             "setup_s": "median of %d set-ups" % len(res["setup_s"]),
             "peak_rss_mb": "from the end of set-up through the timed loop"}
    layer = {}
    if trace_res is not None:
        t = trace_res
        for k, v in t["kernels"].items():
            layer["kernels." + k] = v
        layer.update({
            "graph.glue_ms": t["glue_ms"], "graph.finalize_s": t["finalize_s"],
            "bitpack.pack_input_ms": t["pack_input_ms"], "bitpack.pack_weights_s": t["pack_weights_s"],
            "runtime.forkjoin_us": t["forkjoin_us"],
            "tune.search_s": t["search_s"], "tune.warm_setup_s": t["warm_setup_s"],
            "tune.layers_searched": t["layers_searched"], "tune.layers_off_default": t["layers_off_default"],
            "trace.overhead_pct": t["overhead_pct"],
        })
    attempted = res["calls"] + (trace_res["replay_iterations"] if trace_res else 0)
    failed = res["mismatched_calls"] + (trace_res["replay_mismatched"] if trace_res else 0)
    return named, e2e, notes, layer, attempted, failed


def serve_metrics(ready, client, stats, trace_res):
    if client["connection_failed"]:
        raise Failure("the client lost its connection to the serving tier")
    steps = client["ladder"]["steps"]
    low, high = step_at(steps, LOW_RATE), step_at(steps, HIGH_RATE)
    if low is None or high is None:
        raise Failure("the ladder stopped before %d rps" % HIGH_RATE)
    top = max_rps_step(steps)
    sat = client["saturation"]
    fixed_sent = low["sent"] + high["sent"]
    fixed_bad = sum(s["failed"] + s["refused"] + s["expired"] + s["mismatched"] + s["unanswered"]
                    for s in (low, high, sat))
    setup = statistics.median(ready["setup_s"])
    named = {
        "p50_ms_at_500rps": (low["latency_ms"]["p50"], "ms", support(low["latency_ms"], "requests")),
        "p99_ms_at_500rps": (low["latency_ms"]["p99"], "ms", support(low["latency_ms"], "requests")),
        "p99_ms_at_2000rps": (high["latency_ms"]["p99"], "ms", support(high["latency_ms"], "requests")),
        "max_rps_at_slo": (top["rate"] if top else 0.0, "1/s",
                           "goodput %.1f/s; p99<=%g ms, failed<=1%%, no backlog, lag<=%g ms" % (
                               top["goodput_per_s"] if top else 0.0, client["ladder"]["slo_p99_ms"],
                               client["ladder"]["lag_bound_ms"])),
        "goodput_at_%drps" % HIGH_RATE: (high["goodput_per_s"], "1/s",
                                         "tracks the offered rate while the tier keeps up"),
        "failed_ratio": (fixed_bad / max(1, fixed_sent + sat["sent"]), "ratio",
                         "%d of %d at the fixed rates and saturation" % (
                             fixed_bad, fixed_sent + sat["sent"])),
    }
    for rate in (4000, 8000):
        above = step_at(steps, rate)
        if above is not None:
            named["p99_ms_at_%drps" % rate] = (above["latency_ms"]["p99"], "ms",
                                               support(above["latency_ms"], "requests"))
    e2e = {
        "latency_ms": low["latency_ms"]["p50"],
        "throughput_per_s": sat["completions_per_s"],
        "setup_s": setup,
        "peak_rss_mb": ready["peak_rss_mb"],
    }
    notes = {"latency_ms": "p50_ms_at_500rps",
             "throughput_per_s": "closed loop, %d outstanding: upper quartile of %d %g s bins, %d in %.2f s" % (
                 sat["window"], sat["bins"], sat["bin_s"], sat["counted"], sat["seconds"]),
             "setup_s": "median of %d router+server starts" % len(ready["setup_s"]),
             "peak_rss_mb": "serving process, through set-up and the first saturation burst"}
    layer = {}
    for rate in LADDER_RATES:
        s = step_at(steps, rate)
        layer["loadgen.max_lag_ms.r%d" % rate] = s["max_lag_ms"] if s else 0.0
    attempted, failed = fixed_sent + sat["sent"], fixed_bad
    mismatched = sum(s["mismatched"] for s in steps) + sat["mismatched"]
    if trace_res is not None:
        t = trace_res["trace"]
        ilow, ihigh = step_at(t["inproc"]["steps"], LOW_RATE), step_at(t["inproc"]["steps"], HIGH_RATE)
        for k, v in t["kernels"].items():
            layer["kernels." + k] = v
        layer.update({
            "graph.glue_ms": t["glue_ms"], "graph.finalize_s": t["finalize_s"],
            "bitpack.pack_input_ms": t["pack_input_ms"], "bitpack.pack_weights_s": t["pack_weights_s"],
            "runtime.forkjoin_us": t["forkjoin_us"],
            "serve.inproc_p50_ms_at_500rps": ilow["latency_ms"]["p50"] if ilow else 0.0,
            "serve.inproc_p99_ms_at_500rps": ilow["latency_ms"]["p99"] if ilow else 0.0,
            "serve.inproc_p99_ms_at_2000rps": ihigh["latency_ms"]["p99"] if ihigh else 0.0,
            "serve.mean_batch": t["inproc_mean_batch_at_top_rate"],
            "serve.batch_fill": t["inproc_batch_fill_at_top_rate"],
            "serve.refused": t["inproc_refused"], "serve.expired": t["inproc_expired"],
            "net.wire_p50_ms": low["latency_ms"]["p50"] - (ilow["latency_ms"]["p50"] if ilow else 0.0),
            "net.encode_us": t["encode_us"], "net.decode_us": t["decode_us"],
            "trace.overhead_pct": t["overhead_pct"],
        })
        attempted += t["inproc_sent"] + t["replay_iterations"]
        failed += t["inproc_bad"] + t["replay_mismatched"]
        mismatched += t["replay_mismatched"] + sum(s["mismatched"] for s in t["inproc"]["steps"])
    return named, e2e, notes, layer, attempted, failed, mismatched


E2E_UNITS = {"latency_ms": "ms", "throughput_per_s": "1/s",
             "setup_s": "s", "peak_rss_mb": "MB"}


def cpu_ticks():
    """(steal, total) jiffies of all CPUs, or None off Linux."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def steal_pct(before, after):
    """Share of CPU time the hypervisor took from this VM while measuring:
    the usual cause of a run that reads slower than its neighbours."""
    if before is None or after is None or after[1] <= before[1]:
        return None
    return 100.0 * (after[0] - before[0]) / (after[1] - before[1])


def source_identity():
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for f in sorted(filenames):
                p = os.path.join(dirpath, f)
                digest.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    digest.update(fh.read())
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 0 < args.seconds <= MAX_SECONDS or args.seed < 0:
        ap.error("--seconds must be in (0, %d] and --seed non-negative" % MAX_SECONDS)

    exe = build(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    deadline = time.monotonic() + run_budget_s(args.seconds)
    common = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--out", out_dir]

    ticks = cpu_ticks()
    header = []
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "source": source_identity()}
    if WORKLOADS[args.workload] is not None:
        res = run_mode(exe, ["vgg"] + WORKLOADS[args.workload] + common + ["--trace", str(args.trace)],
                       deadline, args.workload)
        trace_res = res.get("trace")
        named, e2e, notes, layer, attempted, failed = vgg_metrics(res, trace_res)
        mismatched = failed
        report.update(host=res["host"], plan=res["plan"], raw=res)
    else:
        attempts = serve_attempts(exe, args, deadline)
        kept = min(attempts, key=lambda a: a["steal_pct"])
        ready, client, stats = kept["ready"], kept["client"], kept["stats"]
        trace_res = None
        if args.trace:
            trace_res = run_mode(exe, ["serve-trace"] + common, deadline, "serve trace")
        named, e2e, notes, layer, attempted, failed, mismatched = serve_metrics(
            ready, client, stats, trace_res)
        # A repeated attempt's requests still count, and its wrong outputs
        # still fail the run.
        for a in attempts:
            if a is not kept:
                counts = serve_metrics(a["ready"], a["client"], a["stats"], None)[4:]
                attempted, failed, mismatched = (x + y for x, y in zip(
                    (attempted, failed, mismatched), counts))
        header.append("# serving attempts, steal: %s; kept attempt %d" % (
            ", ".join("%.1f%%" % a["steal_pct"] for a in attempts), attempts.index(kept) + 1))
        report.update(host=client["host"], plan=ready["plan"],
                      raw={"server_ready": ready, "client": client, "server_stats": stats,
                           "trace": trace_res,
                           "attempts_steal_pct": [a["steal_pct"] for a in attempts]})

    report["host"]["steal_pct"] = steal_pct(ticks, cpu_ticks())
    print("# %s seed=%d seconds=%g trace=%d  %s" % (
        args.workload, args.seed, args.seconds, args.trace, json.dumps(report["host"])))
    for line in header:
        print(line)
    print("# plan: " + "; ".join("%s %s t%d g%d %s" % (p["layer"], p["isa"], p["tile"], p["grain"],
                                                       p["tune_source"]) for p in report["plan"]))
    print("# end-to-end")
    for name, unit in E2E_UNITS.items():
        printed(name, e2e[name], unit, notes.get(name, ""))
    for name, (value, unit, note) in named.items():
        printed(name, value, unit, note)
    if args.trace:
        print("# per-layer")
        metrics = {}
        for name, unit in per_layer_names():
            metrics[name] = {"value": float(layer.get(name, 0.0)), "unit": unit}
            if name in layer:
                printed(name, layer[name], unit)
    else:
        metrics = {name: {"value": float(e2e[name]), "unit": unit}
                   for name, unit in E2E_UNITS.items()}

    correct = mismatched == 0
    report.update(correct=correct, attempted=attempted, failed=failed, metrics=metrics,
                  named=named)
    path = os.path.join(out_dir, "report-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
    print("# report: %s" % os.path.relpath(path, ROOT))
    print(json.dumps({"correct": correct, "attempted": int(attempted), "failed": int(failed),
                      "metrics": metrics}))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Failure as e:
        log("perfbench: %s" % e)
        sys.exit(1)
