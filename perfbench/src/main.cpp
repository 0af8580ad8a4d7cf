// psdns benchmark program. Runs one named workload in this process, checks
// its outputs, and prints one JSON object as the last line of stdout:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// With --trace 1 the metrics are the per-layer replay instead of the
// end-to-end figures: every workload's traced run replays every layer, its
// own for most of --seconds and the others for a short slice
// (kSideSeconds), so it reports every per-layer metric in about the wall
// time of an end-to-end run. run.py builds this binary and is the entry
// point.
//
//   psdns_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--setup-only] [--ranks <r>]

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <sstream>
#include <string>

#include "workload.hpp"

namespace perfbench {

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  std::fprintf(stderr, "check failed: %s\n", what.c_str());
}

std::string Report::to_json() const {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i != 0) os << ", ";
    os << "\"" << m.name << "\": {\"value\": ";
    if (std::isfinite(m.value)) {
      os << m.value;
    } else {
      os << "null";
    }
    os << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

double peak_rss_bytes() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0;  // Linux: KiB
}

}  // namespace perfbench

namespace {

// Replay time of the layers a traced workload does not run itself.
constexpr double kSideSeconds = 2.0;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: psdns_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--setup-only] [--ranks <r>]\n"
               "workloads: slab_np4_128 pencil_mhd_96 svc_open_loop "
               "des_plan_sweep\n",
               why);
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = value();
    } else if (a == "--seed") {
      opt.seed = std::stoull(value());
    } else if (a == "--seconds") {
      opt.seconds = std::stod(value());
    } else if (a == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      opt.trace = v == "1";
    } else if (a == "--setup-only") {
      opt.setup_only = true;
    } else if (a == "--ranks") {
      opt.ranks = std::stoi(value());
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (opt.workload != "slab_np4_128" && opt.workload != "pencil_mhd_96" &&
      opt.workload != "svc_open_loop" && opt.workload != "des_plan_sweep") {
    usage(("unknown workload '" + opt.workload + "'").c_str());
  }
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  if (opt.ranks < 0 || opt.ranks > 8) usage("--ranks must be in [1, 8]");
  return opt;
}

/// The traced run of `opt.workload`: all three replays. The solver replay
/// uses the workload's own problem; the service and DES workloads replay
/// the shape of the service's cold slab jobs.
perfbench::Report trace(const perfbench::Options& opt) {
  const std::string& w = opt.workload;
  perfbench::SolverSpec spec = w == "slab_np4_128"    ? perfbench::slab_spec()
                               : w == "pencil_mhd_96" ? perfbench::pencil_spec()
                                                      : perfbench::job_spec();
  if (opt.ranks > 0) spec.ranks = opt.ranks;
  const bool solver = w == "slab_np4_128" || w == "pencil_mhd_96";
  // The workload's own layers get the rest of the window, at least half.
  const double own_s = std::max(opt.seconds - 2.0 * kSideSeconds,
                                0.5 * opt.seconds);
  const auto budget = [&](bool own) { return own ? own_s : kSideSeconds; };
  perfbench::Report r;
  perfbench::trace_solver(spec, opt.seed, budget(solver), r);
  perfbench::trace_service(opt.seed, budget(w == "svc_open_loop"), r);
  perfbench::trace_des(budget(w == "des_plan_sweep"), r);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  try {
    opt = parse(argc, argv);
  } catch (const std::exception& e) {  // std::stoull and friends
    usage(e.what());
  }
  perfbench::Report report;
  try {
    if (opt.trace) {
      report = trace(opt);
    } else if (opt.workload == "slab_np4_128") {
      report = perfbench::run_solver(opt, perfbench::slab_spec());
    } else if (opt.workload == "pencil_mhd_96") {
      report = perfbench::run_solver(opt, perfbench::pencil_spec());
    } else if (opt.workload == "svc_open_loop") {
      report = perfbench::run_service(opt);
    } else {
      report = perfbench::run_des(opt);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "workload %s aborted: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  std::printf("%s\n", report.to_json().c_str());
  return 0;
}
