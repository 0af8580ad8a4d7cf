#pragma once
// Shared types of the benchmark program: the parsed command line, the run
// report every workload fills, the workload entry points and the
// per-layer replays every traced run is made of.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "dns/solver_config.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;       // per-layer replay instead of end-to-end run
  bool setup_only = false;  // stop once setup_s is measured
  int ranks = 0;            // solver workloads: 0 = the workload's own
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run prints as its last line: whether every output check held,
/// the operations attempted and failed, and the metrics by name.
struct Report {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Records a failed output check (printed to stderr) and clears correct.
  void check(bool ok, const std::string& what);

  std::string to_json() const;
};

using Clock = std::chrono::steady_clock;
inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Peak resident set of this process so far.
double peak_rss_bytes();

/// A solver problem: backend, size, rank count, equations and (slab only)
/// the pencil batching.
struct SolverSpec {
  bool pencil = false;
  std::size_t n = 0;
  int ranks = 2;
  psdns::dns::SystemType system = psdns::dns::SystemType::NavierStokes;
  int np = 1;  // pencils per slab (slab backend only)
  int q = 1;   // pencils per all-to-all
};

SolverSpec slab_spec();    // slab_np4_128
SolverSpec pencil_spec();  // pencil_mhd_96
/// The shape of the service workload's cold slab jobs (n=32, 2 ranks).
SolverSpec job_spec();

// End-to-end runs. Every one reports op_s (the median time of the
// workload's operation), setup_s and peak_rss_bytes; with
// Options::setup_only it stops once setup_s is measured.
Report run_solver(const Options& opt, SolverSpec spec);
Report run_service(const Options& opt);
Report run_des(const Options& opt);

// Per-layer replays. A traced run of any workload runs all three and so
// reports every per-layer metric: the workload's own layers for its whole
// window, the others for a short fixed slice at their own shapes.
void trace_solver(const SolverSpec& spec, std::uint64_t seed, double seconds,
                  Report& r);
void trace_service(std::uint64_t seed, double seconds, Report& r);
void trace_des(double seconds, Report& r);

}  // namespace perfbench
