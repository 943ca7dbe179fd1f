// perfbench: the repository benchmark.  Usually started through run.py,
// which builds this binary first:
//
//   perfbench --workload <engine_stream|dualfit_trace|certify_lp|
//                         daemon_loopback>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--expected <file>] [--rev <text>]
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics (end-to-end ones untraced, per-layer ones traced).
// The exit code is nonzero when any output check failed.
#include <exception>
#include <functional>
#include <iostream>
#include <map>
#include <string>

#include "bench.h"

namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <engine_stream|dualfit_trace|"
               "certify_lp|daemon_loopback> --seed <n> --seconds <s> "
               "--trace <0|1> [--expected <file>] [--rev <text>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  const std::map<std::string, std::function<void(Context&)>> workloads{
      {"engine_stream", engine_stream},
      {"dualfit_trace", dualfit_trace},
      {"certify_lp", certify_lp},
      {"daemon_loopback", daemon_loopback}};

  Options opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage("missing value for " + flag);
      const std::string value = argv[++i];
      if (flag == "--workload") {
        opt.workload = value;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else if (flag == "--expected") {
        opt.expected_path = value;
      } else if (flag == "--rev") {
        opt.rev = value;
      } else {
        return usage("unknown flag " + flag);
      }
    }
  } catch (const std::exception&) {
    return usage("bad numeric value");
  }
  const auto it = workloads.find(opt.workload);
  if (it == workloads.end()) return usage("unknown workload '" + opt.workload + "'");
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");

  try {
    Context ctx(opt);
    ctx.host_calibration_ns = calibration_ns();
    const std::string host = host_fingerprint(opt.rev, ctx.host_calibration_ns);
    std::cout << host << "\n";
    it->second(ctx);
    return ctx.finish(host);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " aborted: " << e.what() << "\n";
    return 1;
  }
}
