// perfbench: the repository benchmark's measuring program.  run.py builds it
// and invokes one mode per process:
//
//   perfbench vgg --batch B --threads T --seed S --seconds X
//                 --trace 0|1 --out DIR [--setup-reps R]
//   perfbench serve-server --seed S --out DIR [--setup-reps R]
//   perfbench serve-client --port P --part 1|2 --seed S --seconds X
//                          [--server-pid PID]
//   perfbench serve-trace  --seed S --seconds X --out DIR
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench <vgg|serve-server|serve-client|serve-trace> ...\n");
    return 2;
  }
  const std::string mode = argv[1];
  perfbench::Options o;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--seed") o.seed = std::strtoull(v, nullptr, 10);
    else if (key == "--seconds") o.seconds = std::atof(v);
    else if (key == "--trace") o.trace = std::atoi(v) != 0;
    else if (key == "--out") o.out_dir = v;
    else if (key == "--batch") o.batch = std::atoi(v);
    else if (key == "--threads") o.threads = std::atoi(v);
    else if (key == "--setup-reps") o.setup_reps = std::atoi(v);
    else if (key == "--port") o.port = std::atoi(v);
    else if (key == "--part") o.part = std::atoi(v);
    else if (key == "--server-pid") o.server_pid = std::atoi(v);
    else {
      std::fprintf(stderr, "perfbench: unknown option %s\n", key.c_str());
      return 2;
    }
  }
  if (o.seconds <= 0.0 || o.batch < 1 || o.threads < 1 || o.setup_reps < 1 ||
      (o.part != 1 && o.part != 2)) {
    std::fprintf(stderr, "perfbench: invalid option value\n");
    return 2;
  }
  try {
    if (mode == "vgg") return perfbench::run_vgg(o);
    if (mode == "serve-server") return perfbench::run_serve_server(o);
    if (mode == "serve-client") return perfbench::run_serve_client(o);
    if (mode == "serve-trace") return perfbench::run_serve_trace(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench %s: %s\n", mode.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr, "perfbench: unknown mode %s\n", mode.c_str());
  return 2;
}
