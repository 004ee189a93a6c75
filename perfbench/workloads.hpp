// Entry points of the benchmark's modes (see main.cpp for the command line).
// Each mode prints exactly one JSON object as its last stdout line; run.py
// turns those objects into the benchmark's metrics.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct Options {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";   ///< where spans and tuning caches are written
  // vgg
  int batch = 1;
  int threads = 1;
  int setup_reps = 3;
  // serve
  int port = 0;
  int part = 1;  ///< client: 1 = saturation + fixed rates, 2 = knee search
  int server_pid = 0;  ///< client: the serving process, whose VmHWM it reads
};

/// VGG-16 closed loop: setup, u64 reference, timed infer_batch loop, and
/// with `trace` the layer-by-layer replay and a cold and a warm auto-tuned
/// set-up.
int run_vgg(const Options& o);

/// Serving tier process: builds the tier (setup timed), prints the port,
/// serves until stdin closes, then prints the engines' counters.
int run_serve_server(const Options& o);

/// Wire client.  Part 1: closed-loop saturation bursts and the open-loop
/// fixed rates up to 2000 rps; part 2: the open-loop steps above them.
int run_serve_client(const Options& o);

/// Traced serving run without sockets: in-process ShardRouter::submit at the
/// ladder's fixed rates, the frame codec, and a replay of the model.
int run_serve_trace(const Options& o);

}  // namespace perfbench
