// serve_small_open: the small conv->pool->fc model served by net::Server ->
// ShardRouter (2 shards x 1 worker x 1 kernel thread) over loopback TCP.  The
// client measures the tier's capacity with closed-loop saturation bursts and
// its latency with an open-loop fixed-interval generator on one connection.
// Each open-loop request is timed from the moment it was due, every response
// is compared bit-exact with a direct infer_batch of the same input, and
// every rate step records sent / ok / failed / refused / expired and the
// generator's lateness.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "common.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "serve/shard_router.hpp"
#include "workloads.hpp"

namespace perfbench {


namespace {

/// Latency limit on the p99 of a rate step.
constexpr double kSloMs = 10.0;
/// A step whose generator ran later than this share of the SLO measured
/// the generator, not the server: it is invalid and cannot pass.
constexpr double kLagBoundShare = 0.5;
/// Per-request deadline of the knee-search steps above kHighRate (requests
/// older than this fail as expired, and overload control sheds those it
/// expects to miss it).  The counted requests (the fixed rates, saturation
/// and the in-process steps) carry none: with one, a stall of the shared
/// host, not the program, decides which of them the tier sheds, and the
/// count of failed requests differs from run to run.
constexpr std::uint32_t kDeadlineMs = 100;
/// How long a step waits for its last responses once it stopped sending.
constexpr std::int64_t kGraceMs = 2000;
constexpr int kInputs = 16;
/// Quiet time before each timed set-up of the serving tier.
constexpr std::chrono::milliseconds kSetupPause{20};

/// The fixed rate ladder: requests per second and the share of --seconds
/// each step sends for.  500 rps (batch-timeout bound) and 2000 rps (the
/// loaded fixed rate) run long enough for >= 10 samples beyond their p99 at
/// --seconds 10; the steps above look for the knee.
struct Rung {
  double rate;
  double share;
};
constexpr Rung kLadder[] = {{500, 0.25}, {1000, 0.05}, {2000, 0.15}, {4000, 0.05},
                            {8000, 0.05}, {12000, 0.05}, {16000, 0.05}};
/// The loaded fixed rate; every step up to it always runs.
constexpr double kHighRate = 2000;
/// Rates the in-process (no socket) run repeats.
constexpr Rung kInprocLadder[] = {{500, 0.25}, {2000, 0.15}};

/// One connection carries the traffic of many independent users, so the
/// per-connection in-flight cap (a per-client fairness guard, default 64)
/// is raised out of the way.
net::ServerConfig server_config() {
  net::ServerConfig cfg;
  cfg.max_inflight_per_conn = 4096;
  return cfg;
}

serve::RouterConfig router_config() {
  serve::RouterConfig cfg;
  cfg.shards = 2;
  cfg.engine.workers = 1;
  cfg.engine.net.num_threads = 1;
  // The admission queue (default 64 per lane) would refuse requests that a
  // host stall of ~60 ms piles up at 2000 rps; the per-connection cap above
  // bounds admission instead.
  cfg.engine.queue_capacity = 4096;
  return cfg;  // everything else: EngineConfig defaults
}

enum Outcome : int { kPending = -1, kOk = 0, kFailed, kRefused, kExpired, kMismatched };

int outcome_of(const core::Status& st) {
  switch (st.code()) {
    case core::ErrorCode::kResourceExhausted: return kRefused;
    case core::ErrorCode::kDeadlineExceeded: return kExpired;
    default: return kFailed;
  }
}

/// Completion records of one rate step, written by whichever thread
/// resolves each request (socket receiver or engine callback).
struct Slots {
  explicit Slots(std::size_t n) : done_ns(n), outcome(n) {
    for (std::size_t i = 0; i < n; ++i) {
      done_ns[i].store(0, std::memory_order_relaxed);
      outcome[i].store(kPending, std::memory_order_relaxed);
    }
  }
  void resolve(std::size_t i, int what, std::int64_t t) {
    if (i >= done_ns.size() || outcome[i].load(std::memory_order_acquire) != kPending) return;
    done_ns[i].store(t, std::memory_order_relaxed);
    outcome[i].store(what, std::memory_order_release);  // publishes done_ns
    resolved.fetch_add(1, std::memory_order_acq_rel);
  }
  std::vector<std::atomic<std::int64_t>> done_ns;
  std::vector<std::atomic<int>> outcome;
  std::atomic<std::int64_t> resolved{0};
};

struct StepResult {
  double rate = 0.0, seconds = 0.0;
  std::int64_t sent = 0, ok = 0, failed = 0, refused = 0, expired = 0, mismatched = 0,
               unanswered = 0;
  double max_lag_ms = 0.0;
  std::int64_t outstanding_end = 0;
  Summary lat;
  double goodput = 0.0;
  bool valid = false, backlog_ok = false, passed = false;

  [[nodiscard]] std::int64_t bad() const {
    return failed + refused + expired + mismatched + unanswered;
  }
  [[nodiscard]] Json json() const {
    Json j;
    j.num("rate", rate)
        .num("seconds", seconds)
        .integer("sent", sent)
        .integer("ok", ok)
        .integer("failed", failed)
        .integer("refused", refused)
        .integer("expired", expired)
        .integer("mismatched", mismatched)
        .integer("unanswered", unanswered)
        .num("failed_ratio", sent ? static_cast<double>(bad()) / static_cast<double>(sent) : 1.0)
        .num("max_lag_ms", max_lag_ms)
        .integer("outstanding_end", outstanding_end)
        .num("goodput_per_s", goodput)
        .obj("latency_ms", summary_json(lat))
        .boolean("valid", valid)
        .boolean("backlog_ok", backlog_ok)
        .boolean("passed", passed);
    return j;
  }
};

/// One open-loop step: request i is due at start + i / rate and is sent as
/// soon as the generator gets there (never skipped, never slowed by
/// completions).  `send(i, due)` hands request i to the system; completions land
/// in `slots`.  Latency is completion time minus due time.
StepResult run_step(const Rung& rung, double seconds, Slots& slots,
                    const std::function<bool(std::size_t, std::int64_t)>& send) {
  StepResult r;
  r.rate = rung.rate;
  r.seconds = seconds;
  const double period_ns = 1e9 / rung.rate;
  const std::size_t n = static_cast<std::size_t>(std::floor(seconds * rung.rate));
  const std::int64_t start = now_ns() + 2'000'000;
  std::int64_t max_lag = 0;
  std::size_t sent = 0;
  for (; sent < n && sent < slots.done_ns.size(); ++sent) {
    const std::int64_t due = start + static_cast<std::int64_t>(static_cast<double>(sent) * period_ns);
    std::int64_t now = now_ns();
    if (now < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      now = now_ns();
    }
    max_lag = std::max(max_lag, now - due);
    if (!send(sent, due)) break;
  }
  const std::int64_t send_end = now_ns();
  r.sent = static_cast<std::int64_t>(sent);
  r.outstanding_end = r.sent - slots.resolved.load(std::memory_order_acquire);
  // Grace: a request still unanswered kGraceMs after sending stopped is
  // counted as unanswered.
  const std::int64_t give_up = send_end + kGraceMs * 1'000'000;
  while (slots.resolved.load(std::memory_order_acquire) < r.sent && now_ns() < give_up) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  std::vector<double> lat;
  lat.reserve(sent);
  std::int64_t last_done = start;
  for (std::size_t i = 0; i < sent; ++i) {
    const int what = slots.outcome[i].load(std::memory_order_acquire);
    const std::int64_t due = start + static_cast<std::int64_t>(static_cast<double>(i) * period_ns);
    switch (what) {
      case kOk: {
        const std::int64_t done = slots.done_ns[i].load(std::memory_order_acquire);
        lat.push_back(static_cast<double>(done - due) / 1e6);
        last_done = std::max(last_done, done);
        ++r.ok;
        break;
      }
      case kFailed: ++r.failed; break;
      case kRefused: ++r.refused; break;
      case kExpired: ++r.expired; break;
      case kMismatched: ++r.mismatched; break;
      default: ++r.unanswered; break;
    }
  }
  r.lat = summarize(std::move(lat));
  r.max_lag_ms = static_cast<double>(max_lag) / 1e6;
  r.goodput = last_done > start ? static_cast<double>(r.ok) / (static_cast<double>(last_done - start) / 1e9)
                                : 0.0;
  r.valid = r.max_lag_ms <= kLagBoundShare * kSloMs;
  // No growing backlog: when the generator stops, at most one SLO's worth
  // of arrivals may still be unresolved.
  r.backlog_ok = static_cast<double>(r.outstanding_end) <= std::max(8.0, rung.rate * kSloMs / 1e3);
  const double failed_ratio =
      r.sent ? static_cast<double>(r.bad()) / static_cast<double>(r.sent) : 1.0;
  r.passed = r.valid && r.backlog_ok && r.sent > 0 && failed_ratio <= 0.01 && r.lat.p99 <= kSloMs;
  return r;
}

/// Runs the ladder in order.  Past the fixed rates (up to kHighRate), the
/// sweep stops after two consecutive failing steps.
template <class StepFn>
std::vector<StepResult> sweep(const Rung* rungs, std::size_t count, double seconds, StepFn step) {
  std::vector<StepResult> out;
  int failing = 0;
  for (std::size_t s = 0; s < count; ++s) {
    out.push_back(step(s, rungs[s], rungs[s].share * seconds));
    failing = out.back().passed ? 0 : failing + 1;
    if (failing >= 2 && rungs[s].rate >= kHighRate) break;
  }
  return out;
}

Json ladder_json(const std::vector<StepResult>& steps) {
  std::vector<std::string> items;
  for (const StepResult& s : steps) items.push_back(s.json().dump());
  Json j;
  j.raw("steps", json_array(items))
      .num("slo_p99_ms", kSloMs)
      .num("lag_bound_ms", kLagBoundShare * kSloMs)
      .num("max_failed_ratio", 0.01);
  return j;
}

/// Reference scores: a direct batch-1 infer_batch of each input on a network
/// instantiated from the same model, outside the serving tier.
std::vector<std::vector<float>> reference_scores(const io::Model& model,
                                                 const std::vector<Tensor>& inputs) {
  graph::BinaryNetwork net = model.instantiate(graph::NetworkConfig{});
  graph::InferenceContext ctx = net.make_context(1);
  std::vector<std::vector<float>> ref;
  for (const Tensor& t : inputs) {
    const Tensor* p = &t;
    const std::span<const float> out = net.infer_batch(std::span<const Tensor* const>(&p, 1), ctx);
    ref.emplace_back(out.begin(), out.end());
  }
  return ref;
}

bool same_scores(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// The closed-loop saturation phase: kWindow requests stay outstanding on a
/// connection of their own, and each response's slot is re-sent at once.
/// Completions per second is then what the serving tier can carry, not what
/// a generator offers.  Frames are encoded once up front, so the client's
/// own encoding cost (~80 us per 64 KB frame) stays out of the figure.  The
/// requests carry no deadline, so a host stall cannot turn into shedding.
/// It runs in four bursts: after the warm-up, before the second and third
/// fixed-rate steps and after the last, so that it samples the host over
/// the whole run.  The rate is the upper quartile of all bursts' 100 ms
/// bins.  The shared host lets the tier run uncontended for part of each
/// run, and that part differs from run to run: in one set of ten runs the
/// median bin read 9040-12880/s (IQR 19% of the median).  The upper quartile
/// reads the tier's rate in the uncontended part, as the fastest call does
/// for vgg16_b1; a slower tier lowers every bin, so it lowers it too.
constexpr int kWindow = 48;
constexpr double kBurstShare = 0.06;  ///< of --seconds per burst, after its warm-up
constexpr double kSaturationWarmupS = 0.25;
constexpr double kSaturationBinS = 0.1;

struct SaturationResult {
  double seconds = 0.0;
  std::int64_t sent = 0, ok = 0, failed = 0, refused = 0, expired = 0, mismatched = 0,
               unanswered = 0;
  std::int64_t counted = 0;  ///< ok responses that arrived inside the measured window
  std::vector<double> bins;  ///< ok responses per bin of the measured window
  double per_s = 0.0;        ///< upper-quartile bin, per second
  double median_per_s = 0.0; ///< median bin, per second
  double mean_per_s = 0.0;   ///< counted / seconds

  [[nodiscard]] std::int64_t bad() const {
    return failed + refused + expired + mismatched + unanswered;
  }
  [[nodiscard]] Json json() const {
    Json j;
    j.integer("window", kWindow)
        .num("seconds", seconds)
        .integer("sent", sent)
        .integer("ok", ok)
        .integer("failed", failed)
        .integer("refused", refused)
        .integer("expired", expired)
        .integer("mismatched", mismatched)
        .integer("unanswered", unanswered)
        .integer("counted", counted)
        .integer("bins", static_cast<std::int64_t>(bins.size()))
        .raw("bin_counts", json_numbers(bins))
        .num("bin_s", kSaturationBinS)
        .num("completions_per_s", per_s)
        .num("median_completions_per_s", median_per_s)
        .num("mean_completions_per_s", mean_per_s);
    return j;
  }
};

/// A blocking loopback TCP connection, closed on scope exit.
class Socket {
 public:
  explicit Socket(int port) : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    if (fd_ < 0) throw std::runtime_error("saturation: socket() failed");
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
      ::close(fd_);
      throw std::runtime_error("saturation: connect() failed");
    }
  }
  ~Socket() { ::close(fd_); }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  void write_all(const std::vector<std::uint8_t>& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("saturation: send() failed");
      off += static_cast<std::size_t>(n);
    }
  }
  /// Reads what is available within `timeout_ms`; 0 bytes = timed out.
  std::size_t read_some(std::uint8_t* buf, std::size_t cap, int timeout_ms) {
    for (;;) {
      pollfd p{fd_, POLLIN, 0};
      const int rc = ::poll(&p, 1, timeout_ms);
      if (rc < 0 && errno == EINTR) continue;
      if (rc < 0) throw std::runtime_error("saturation: poll() failed");
      if (rc == 0) return 0;
      const ssize_t n = ::recv(fd_, buf, cap, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("saturation: the server closed the connection");
      return static_cast<std::size_t>(n);
    }
  }

 private:
  int fd_;
};

/// One saturation burst of `seconds`, added to `r`.
void saturate(int port, const std::vector<net::RequestFrame>& frames,
              const std::vector<std::vector<float>>& ref, double seconds, SaturationResult& r) {
  std::vector<std::vector<std::uint8_t>> wire(kWindow);
  for (int j = 0; j < kWindow; ++j) {
    net::RequestFrame f = frames[static_cast<std::size_t>(j % kInputs)];
    f.id = static_cast<std::uint64_t>(j);
    f.deadline_ms = 0;  // no deadline: no shedding, every request is served
    net::append_request(wire[static_cast<std::size_t>(j)], f);
  }
  const std::size_t n_bins = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::floor(seconds / kSaturationBinS)));
  r.seconds += static_cast<double>(n_bins) * kSaturationBinS;
  const std::size_t bin0 = r.bins.size();
  r.bins.resize(bin0 + n_bins, 0.0);
  Socket sock(port);
  net::FrameReader reader;
  std::vector<std::uint8_t> buf(1 << 16);
  for (const auto& w : wire) sock.write_all(w);
  r.sent += kWindow;
  std::int64_t outstanding = kWindow;
  const std::int64_t begin = now_ns() + static_cast<std::int64_t>(kSaturationWarmupS * 1e9);
  const std::int64_t bin_ns = static_cast<std::int64_t>(kSaturationBinS * 1e9);
  const std::int64_t end = begin + static_cast<std::int64_t>(n_bins) * bin_ns;
  bool sending = true;
  while (outstanding > 0) {
    const std::size_t n = sock.read_some(buf.data(), buf.size(), 2000);
    if (n == 0) break;  // nothing for 2 s: the rest count as unanswered
    const std::int64_t t = now_ns();
    if (!reader.feed(buf.data(), n).is_ok()) {
      throw std::runtime_error("saturation: malformed frame from the server");
    }
    if (t >= end) sending = false;
    while (std::optional<net::DecodedFrame> f = reader.next()) {
      std::uint64_t id = kWindow;
      int what = kFailed;
      if (auto* resp = std::get_if<net::ResponseFrame>(&*f)) {
        id = resp->id;
        what = id < kWindow && same_scores(resp->scores, ref[id % kInputs]) ? kOk : kMismatched;
      } else if (auto* err = std::get_if<net::ErrorFrame>(&*f)) {
        id = err->id;
        what = outcome_of(core::Status{err->code, err->message});
      }
      if (id >= kWindow) throw std::runtime_error("saturation: response to an unknown request");
      --outstanding;
      switch (what) {
        case kOk:
          ++r.ok;
          if (t >= begin && t < end) {
            ++r.counted;
            r.bins[bin0 + static_cast<std::size_t>((t - begin) / bin_ns)] += 1.0;
          }
          break;
        case kRefused: ++r.refused; break;
        case kExpired: ++r.expired; break;
        case kMismatched: ++r.mismatched; break;
        default: ++r.failed; break;
      }
      if (sending) {
        sock.write_all(wire[id]);
        ++r.sent;
        ++outstanding;
      }
    }
  }
  r.unanswered += outstanding;
  r.per_s = quantile(r.bins, 0.75) / kSaturationBinS;
  r.median_per_s = median(r.bins) / kSaturationBinS;
  r.mean_per_s = static_cast<double>(r.counted) / r.seconds;
}

}  // namespace

// --- server process --------------------------------------------------------------

int run_serve_server(const Options& o) {
  unsetenv("BITFLOW_TUNE_CACHE");
  const io::Model model = to_io_model(make_serve_model(o.seed));
  std::unique_ptr<serve::ShardRouter> router;
  std::unique_ptr<net::Server> server;
  std::vector<double> setup_s;
  for (int r = 0; r < o.setup_reps; ++r) {
    if (server) server->stop();
    server.reset();
    router.reset();
    // Each set-up starts from a quiet process, as a real start does: the
    // previous rep's threads have exited and its sockets are closed.
    // Back-to-back reps overlap that teardown and read faster but swing
    // +-40% from run to run with the host's load.
    std::this_thread::sleep_for(kSetupPause);
    const std::int64_t t0 = now_ns();
    auto created = serve::ShardRouter::create(model, router_config());
    if (!created.is_ok()) throw std::runtime_error(created.status().to_string());
    router = std::make_unique<serve::ShardRouter>(std::move(created.value()));
    auto started = net::Server::start(*router, server_config());
    if (!started.is_ok()) throw std::runtime_error(started.status().to_string());
    server = std::make_unique<net::Server>(std::move(started.value()));
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  Json ready;
  ready.integer("port", server->port())
      .raw("setup_s", json_numbers(setup_s))
      .raw("plan", plan_json(router->network()->layers()));
  std::printf("%s\n", ready.dump().c_str());
  std::fflush(stdout);

  std::string line;
  while (std::getline(std::cin, line)) {
    if (line == "stop") break;
  }
  server->stop();
  std::vector<std::string> shards;
  for (int i = 0; i < router->shards(); ++i) {
    const serve::EngineStats s = router->shard(i).stats();
    Json j;
    j.integer("accepted", static_cast<std::int64_t>(s.accepted))
        .integer("rejected", static_cast<std::int64_t>(s.rejected))
        .integer("expired", static_cast<std::int64_t>(s.expired))
        .integer("completed", static_cast<std::int64_t>(s.completed))
        .integer("failed", static_cast<std::int64_t>(s.failed))
        .integer("batches", static_cast<std::int64_t>(s.batches))
        .num("mean_batch", s.mean_batch());
    shards.push_back(j.dump());
  }
  router->shutdown();
  Json done;
  done.raw("shards", json_array(shards)).num("peak_rss_mb", peak_rss_mb());
  std::printf("%s\n", done.dump().c_str());
  std::fflush(stdout);
  return 0;
}

// --- wire client process ----------------------------------------------------------

int run_serve_client(const Options& o) {
  const ModelDef def = make_serve_model(o.seed);
  const io::Model model = to_io_model(def);
  const std::vector<Tensor> inputs = make_inputs(def.input, kInputs, o.seed);
  const std::vector<std::vector<float>> ref = reference_scores(model, inputs);

  auto conn = net::Client::connect("127.0.0.1", static_cast<std::uint16_t>(o.port));
  if (!conn.is_ok()) throw std::runtime_error(conn.status().to_string());
  net::Client client = std::move(conn.value());
  // Part 1: the fixed rates and the saturation bursts between them; part 2:
  // the knee search above them, the only requests with a deadline.
  const bool knee = o.part == 2;
  std::vector<net::RequestFrame> frames(kInputs);
  for (int i = 0; i < kInputs; ++i) {
    net::RequestFrame& f = frames[static_cast<std::size_t>(i)];
    f.deadline_ms = knee ? kDeadlineMs : 0;
    f.h = static_cast<std::uint32_t>(def.input.h);
    f.w = static_cast<std::uint32_t>(def.input.w);
    f.c = static_cast<std::uint32_t>(def.input.c);
    const std::span<const float> e = inputs[static_cast<std::size_t>(i)].elements();
    f.data.assign(e.begin(), e.end());
  }

  // Request ids carry (step << 32 | index); the receiver drops responses of
  // a step that already ended.
  std::mutex current_mu;  // guards current / current_step against step teardown
  Slots* current = nullptr;
  std::uint64_t current_step = 0;
  auto set_current = [&](Slots* slots, std::uint64_t step) {
    std::lock_guard<std::mutex> lock(current_mu);
    current = slots;
    current_step = step;
  };
  std::atomic<bool> stop{false};
  std::atomic<bool> conn_failed{false};
  std::thread receiver;
  // Stops and joins the receiver on every exit path, before the state it
  // reads goes away.
  struct Joiner {
    std::atomic<bool>& stop;
    std::thread& thread;
    ~Joiner() {
      stop.store(true, std::memory_order_release);
      if (thread.joinable()) thread.join();
    }
  } joiner{stop, receiver};
  receiver = std::thread([&] {
    while (!stop.load(std::memory_order_acquire)) {
      core::Result<net::DecodedFrame> f = client.recv(std::chrono::milliseconds(50));
      if (!f.is_ok()) {
        if (f.status().code() == core::ErrorCode::kDeadlineExceeded) continue;
        conn_failed.store(true, std::memory_order_release);
        return;
      }
      const std::int64_t t = now_ns();
      std::uint64_t id = 0;
      int what = kFailed;
      if (auto* resp = std::get_if<net::ResponseFrame>(&f.value())) {
        id = resp->id;
        const auto& expect = ref[static_cast<std::size_t>((id & 0xffffffffu) % kInputs)];
        what = same_scores(resp->scores, expect) ? kOk : kMismatched;
      } else if (auto* err = std::get_if<net::ErrorFrame>(&f.value())) {
        id = err->id;
        what = outcome_of(core::Status{err->code, err->message});
      }
      std::lock_guard<std::mutex> lock(current_mu);
      if (current != nullptr && (id >> 32) == current_step) {
        current->resolve(static_cast<std::size_t>(id & 0xffffffffu), what, t);
      }
    }
  });

  // Warm-up outside every measured step (contexts, page faults, sockets).
  {
    Slots warm(1000);
    set_current(&warm, 0);
    (void)run_step(Rung{2000, 0.0}, 0.5, warm, [&](std::size_t i, std::int64_t) {
      net::RequestFrame& f = frames[i % kInputs];
      f.id = static_cast<std::uint64_t>(i);
      return client.send(f).is_ok();
    });
    set_current(nullptr, 0);
  }

  // The serving process's peak resident set is read after the warm-up and
  // the first saturation burst, before any measured open-loop step.  With
  // 48 requests outstanding the burst is the process's peak in normal
  // operation; an open-loop step can queue more, as many as a stall of the
  // shared host lets pile up, and the figure read after the fixed rates
  // varied by +-10% with that.  A burst on a cold tier (before the warm-up)
  // peaked higher and less steadily than one after it.
  SaturationResult sat;
  double server_peak_rss_mb = 0.0;
  if (!knee) {
    saturate(o.port, frames, ref, kBurstShare * o.seconds, sat);
    if (o.server_pid > 0) server_peak_rss_mb = peak_rss_mb(o.server_pid);
  }

  std::vector<Rung> rungs;
  for (const Rung& r : kLadder) {
    if ((r.rate > kHighRate) == knee) rungs.push_back(r);
  }
  const std::vector<StepResult> steps = sweep(
      rungs.data(), rungs.size(), o.seconds, [&](std::size_t s, const Rung& rung, double secs) {
        if (!knee && s > 0) saturate(o.port, frames, ref, kBurstShare * o.seconds, sat);
        Slots slots(static_cast<std::size_t>(rung.rate * secs) + 1);
        set_current(&slots, s + 1);
        StepResult r = run_step(rung, secs, slots, [&](std::size_t i, std::int64_t) {
          net::RequestFrame& f = frames[i % kInputs];
          f.id = (static_cast<std::uint64_t>(s + 1) << 32) | i;
          return client.send(f).is_ok();
        });
        set_current(nullptr, 0);
        return r;
      });
  if (!knee) saturate(o.port, frames, ref, kBurstShare * o.seconds, sat);
  stop.store(true, std::memory_order_release);
  receiver.join();

  Json result;
  result.str("mode", "serve-client")
      .integer("part", o.part)
      .integer("seed", static_cast<std::int64_t>(o.seed))
      .obj("host", host_json())
      .str("reference", "direct infer_batch per input, batch 1")
      .integer("distinct_inputs", kInputs)
      .boolean("connection_failed", conn_failed.load())
      .obj("saturation", sat.json())
      .obj("ladder", ladder_json(steps))
      .num("server_peak_rss_mb", server_peak_rss_mb)
      .num("peak_rss_mb", peak_rss_mb());
  std::printf("%s\n", result.dump().c_str());
  std::fflush(stdout);
  return 0;
}

// --- traced in-process run ------------------------------------------------------

int run_serve_trace(const Options& o) {
  unsetenv("BITFLOW_TUNE_CACHE");
  SpanRecorder rec;
  std::uint64_t trace_id = 0;
  const ModelDef def = make_serve_model(o.seed);
  const io::Model model = to_io_model(def);
  const std::vector<Tensor> inputs = make_inputs(def.input, kInputs, o.seed);
  const std::vector<std::vector<float>> ref = reference_scores(model, inputs);

  // graph: finalize of the served model (instantiate = add packed layers +
  // finalize, as ShardRouter::create does).
  std::vector<double> finalize_s;
  for (int r = 0; r < 5; ++r) {
    const std::int64_t t0 = now_ns();
    graph::BinaryNetwork net = model.instantiate(graph::NetworkConfig{});
    const std::int64_t t1 = now_ns();
    rec.add("graph.BinaryNetwork::finalize", "io::Model::instantiate", 0, ++trace_id, t0, t1);
    finalize_s.push_back(static_cast<double>(t1 - t0) / 1e9);
  }

  // serve: ShardRouter::submit -> callback at the ladder's fixed rates.
  auto created = serve::ShardRouter::create(model, router_config());
  if (!created.is_ok()) throw std::runtime_error(created.status().to_string());
  serve::ShardRouter router = std::move(created.value());
  const std::vector<graph::LayerInfo> plan = router.network()->layers();
  auto engine_totals = [&router] {
    serve::EngineStats t;
    for (int i = 0; i < router.shards(); ++i) {
      const serve::EngineStats s = router.shard(i).stats();
      t.completed += s.completed;
      t.failed += s.failed;
      t.batches += s.batches;
      t.rejected += s.rejected;
      t.expired += s.expired;
    }
    return t;
  };
  {  // warm-up
    for (int i = 0; i < 50; ++i) (void)router.infer(inputs[static_cast<std::size_t>(i % kInputs)]);
  }
  const std::int64_t max_batch = router_config().engine.max_batch;
  std::vector<std::string> engine_rows;
  std::int64_t inproc_refused = 0, inproc_expired = 0;
  double mean_batch_hi = 0.0;
  const std::vector<StepResult> steps = sweep(
      kInprocLadder, std::size(kInprocLadder), o.seconds,
      [&](std::size_t, const Rung& rung, double secs) {
        // Shared with the callbacks: a request resolving after the step gave
        // up on it must still find its slot alive.
        auto slots = std::make_shared<Slots>(static_cast<std::size_t>(rung.rate * secs) + 1);
        const serve::EngineStats before = engine_totals();
        const std::uint64_t step_trace = ++trace_id;
        const std::string detail = "rate " + std::to_string(static_cast<int>(rung.rate));
        StepResult r = run_step(rung, secs, *slots, [&](std::size_t i, std::int64_t due) {
          // One trace per request: a root span from its due time to its
          // completion, and the submit call as its child.
          const std::uint64_t req_trace = (step_trace << 32) | i;
          const std::uint64_t req = rec.open("serve.request", detail, 0, req_trace, due);
          const std::int64_t t0 = now_ns();
          router.submit(inputs[i % kInputs], std::chrono::milliseconds(0),
                        serve::Priority::kNormal,
                        [slots, &ref, &rec, req, i](core::Result<std::vector<float>>&& res) {
                          const std::int64_t t = now_ns();
                          int what = kOk;
                          if (!res.is_ok()) {
                            what = outcome_of(res.status());
                          } else if (!same_scores(res.value(), ref[i % kInputs])) {
                            what = kMismatched;
                          }
                          rec.finish(req, t);
                          slots->resolve(i, what, t);
                        });
          rec.add("serve.ShardRouter::submit", detail, req, req_trace, t0, now_ns());
          return true;
        });
        const serve::EngineStats after = engine_totals();
        const std::uint64_t batches = after.batches - before.batches;
        const std::uint64_t done = (after.completed + after.failed) - (before.completed + before.failed);
        const double mean_batch = batches ? static_cast<double>(done) / static_cast<double>(batches) : 0.0;
        inproc_refused += static_cast<std::int64_t>(after.rejected - before.rejected);
        inproc_expired += static_cast<std::int64_t>(after.expired - before.expired);
        mean_batch_hi = mean_batch;  // the last (highest) rate step
        Json e;
        e.num("rate", rung.rate)
            .integer("batches", static_cast<std::int64_t>(batches))
            .integer("requests", static_cast<std::int64_t>(done))
            .num("mean_batch", mean_batch)
            .num("batch_fill", mean_batch / static_cast<double>(max_batch));
        engine_rows.push_back(e.dump());
        return r;
      });
  router.shutdown();

  // net: the frame codec on the 64 KB request frame.
  std::vector<double> enc_us, dec_us;
  {
    net::RequestFrame f;
    f.id = 1;
    f.deadline_ms = kDeadlineMs;
    f.h = static_cast<std::uint32_t>(def.input.h);
    f.w = static_cast<std::uint32_t>(def.input.w);
    f.c = static_cast<std::uint32_t>(def.input.c);
    const std::span<const float> e = inputs[0].elements();
    f.data.assign(e.begin(), e.end());
    std::vector<std::uint8_t> bytes;
    const std::uint64_t tt = ++trace_id;
    for (int i = 0; i < 2200; ++i) {
      bytes.clear();
      const std::int64_t t0 = now_ns();
      net::append_request(bytes, f);
      const std::int64_t t1 = now_ns();
      core::Result<net::DecodedFrame> d = net::decode_frame(bytes.data(), bytes.size());
      const std::int64_t t2 = now_ns();
      if (!d.is_ok() || !std::holds_alternative<net::RequestFrame>(d.value()) ||
          std::get<net::RequestFrame>(d.value()).data != f.data) {
        throw std::runtime_error("frame codec round trip changed the request");
      }
      if (i < 200) continue;  // warm-up
      enc_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      dec_us.push_back(static_cast<double>(t2 - t1) / 1e3);
      if (i < 300) {
        rec.add("net.append_request", std::to_string(bytes.size()) + " bytes", 0, tt, t0, t1);
        rec.add("net.decode_frame", std::to_string(bytes.size()) + " bytes", 0, tt, t1, t2);
      }
    }
  }

  // kernels / bitpack / graph glue: infer_batch interleaved with the replay.
  graph::BinaryNetwork net = model.instantiate(graph::NetworkConfig{});
  graph::InferenceContext ctx = net.make_context(1);
  Replay rp(def, plan, 1, 1);
  std::vector<std::vector<const Tensor*>> singles;
  for (const Tensor& t : inputs) singles.push_back({&t});
  const ReplayStats rs = replay_for(
      rp, singles, ref, o.seconds * 0.2,
      [&](std::size_t b) { return net.infer_batch(singles[b], ctx); }, rec, trace_id);
  // The kernels run one thread, where parallel_for does not fork; the
  // smallest pool that does is measured instead.
  const double fj_us = forkjoin_us(2, rec, ++trace_id);

  std::int64_t inproc_bad = 0, inproc_sent = 0;
  for (const StepResult& s : steps) {
    inproc_bad += s.bad();
    inproc_sent += s.sent;
  }
  const std::string spans_path = o.out_dir + "/spans-serve-seed" + std::to_string(o.seed) + ".json";
  const bool spans_ok = rec.write(spans_path);
  Json tr;
  tr.obj("inproc", ladder_json(steps))
      .raw("inproc_engine", json_array(engine_rows))
      .num("inproc_mean_batch_at_top_rate", mean_batch_hi)
      .num("inproc_batch_fill_at_top_rate", mean_batch_hi / static_cast<double>(max_batch))
      .integer("inproc_refused", inproc_refused)
      .integer("inproc_expired", inproc_expired)
      .integer("inproc_sent", inproc_sent)
      .integer("inproc_bad", inproc_bad)
      .num("encode_us", median(enc_us))
      .num("decode_us", median(dec_us))
      .obj("kernels", rs.kernels)
      .integer("replay_iterations", rs.iterations)
      .integer("replay_mismatched", rs.mismatched)
      .num("pack_input_ms", rs.pack_input_ms)
      .num("glue_ms", rs.infer_ms - rs.layers_ms)
      .num("finalize_s", median(finalize_s))
      .num("pack_weights_s", rp.pack_weights_s())
      .num("forkjoin_us", fj_us)
      .num("infer_ms", rs.infer_ms)
      .num("traced_replay_ms", rs.traced_ms)
      .num("untraced_replay_ms", rs.untraced_ms)
      .num("overhead_pct", (rs.traced_ms - rs.untraced_ms) / rs.untraced_ms * 100.0)
      .str("spans_file", spans_ok ? spans_path : "")
      .integer("spans", static_cast<std::int64_t>(rec.size()));
  Json result;
  result.str("mode", "serve-trace")
      .integer("seed", static_cast<std::int64_t>(o.seed))
      .raw("plan", plan_json(plan))
      .obj("trace", tr)
      .num("peak_rss_mb", peak_rss_mb());
  std::printf("%s\n", result.dump().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace perfbench
