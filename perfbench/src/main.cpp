// fedvr_perfbench: one workload run per process, one JSON line on stdout.
//
//   fedvr_perfbench --workload W --seed N [--traced] [--trace-out F]
//                   [--threads T] [--small]
//   fedvr_perfbench --workload W --seed N --micro S [--threads T] [--small]
//
// The first form sets up and trains once (traced or not) and checks the
// outputs; the second times direct layer calls for about S seconds.
// run.py drives both and turns the lines into the benchmark's metrics.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "util/thread_pool.h"
#include "workloads.h"

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string run_json(const perfbench::RunConfig& config,
                     const perfbench::RunResult& r) {
  std::ostringstream os;
  char hash[32];
  std::snprintf(hash, sizeof(hash), "%016llx",
                static_cast<unsigned long long>(r.final_param_hash));
  os << "{\"workload\":" << json_string(config.workload)
     << ",\"traced\":" << (config.traced ? "true" : "false")
     << ",\"setup_s\":" << number(r.setup_s)
     << ",\"train_s\":" << number(r.train_s)
     << ",\"final_param_hash\":\"" << hash << "\",\"trace_grad_evals\":";
  if (r.trace_grad_evals) {
    os << *r.trace_grad_evals;
  } else {
    os << "null";
  }
  os << ",\"covered_s\":" << number(r.covered_s) << ",\"layers\":{";
  for (std::size_t i = 0; i < perfbench::kNumLayers; ++i) {
    const auto& t = r.layers[i];
    os << (i > 0 ? "," : "") << "\"" << perfbench::kLayerNames[i]
       << "\":{\"busy_s\":" << number(t.busy_s) << ",\"calls\":" << t.calls
       << ",\"items\":" << t.items << "}";
  }
  os << "},\"checks\":[";
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    const auto& c = r.checks[i];
    os << (i > 0 ? "," : "") << "{\"name\":" << json_string(c.name)
       << ",\"ok\":" << (c.ok ? "true" : "false")
       << ",\"detail\":" << json_string(c.detail) << "}";
  }
  os << "]}";
  return os.str();
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "fedvr_perfbench: " << why << "\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  std::size_t threads = 1;
  double micro_seconds = 0.0;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        config.workload = value();
        have_workload = true;
      } else if (arg == "--seed") {
        config.seed = std::stoull(value());
      } else if (arg == "--threads") {
        threads = std::stoul(value());
      } else if (arg == "--traced") {
        config.traced = true;
      } else if (arg == "--trace-out") {
        config.trace_path = value();
      } else if (arg == "--small") {
        config.small = true;
      } else if (arg == "--micro") {
        micro_seconds = std::stod(value());
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (threads < 1 || threads > 64) usage("--threads must be in [1, 64]");

  try {
    fedvr::util::ThreadPool::reset_global(threads);
    if (micro_seconds > 0.0) {
      const auto metrics = perfbench::run_micro(config, micro_seconds);
      std::ostringstream os;
      os << "{\"workload\":" << json_string(config.workload)
         << ",\"micro\":{";
      for (std::size_t i = 0; i < metrics.size(); ++i) {
        os << (i > 0 ? "," : "") << json_string(metrics[i].first) << ":"
           << number(metrics[i].second);
      }
      os << "}}";
      std::cout << os.str() << std::endl;
    } else {
      const auto result = perfbench::run_workload(config);
      std::cout << run_json(config, result) << std::endl;
    }
  } catch (const std::exception& e) {
    std::cerr << "fedvr_perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
