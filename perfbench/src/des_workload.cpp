// The DES planner sweep: for the paper's four weak-scaling cases x np 1..16
// x MPI configs A/B/C x RK2/RK4 x {Navier-Stokes, MHD}, validate the
// configuration against the machine (DnsStepModel::validate) and, when it
// fits, simulate one GPU step. Single-threaded. setup_s runs from building
// the model through the first (cold) sweep; later sweeps repeat for
// --seconds and op_s is their median.
//
// Checks (on the sweep's own results): Table 3 cells within +-45% of the
// paper except the documented config-A / 1024-node deviation; config C
// fastest from 128 nodes up; no step faster than its MPI-only bound;
// overlap efficiency in [0, 1]; RK4/RK2 = 2 +- 0.15; every sweep returns
// the same seconds (the model is deterministic).
//
// DES replay (part of every traced run): the same sweeps, reporting the op
// records per sweep and the evaluation and validation times.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "bench_stats.hpp"
#include "model/paper.hpp"
#include "pipeline/dns_step_model.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using psdns::pipeline::MpiConfig;
using psdns::pipeline::PipelineConfig;

constexpr int kMaxPencils = 16;

struct Eval {
  PipelineConfig cfg;
  std::size_t case_index = 0;
  bool valid = false;   // validate() accepted it
  bool failed = false;  // simulate threw
  double seconds = 0.0;
  double overlap = 0.0;
  std::size_t ops = 0;
  double eval_s = 0.0;  // wall time of simulate_gpu_step
};

std::vector<Eval> plan() {
  std::vector<Eval> out;
  for (std::size_t i = 0; i < std::size(psdns::model::paper::kCases); ++i) {
    const auto& c = psdns::model::paper::kCases[i];
    for (int np = 1; np <= kMaxPencils; ++np) {
      for (const MpiConfig mpi : {MpiConfig::A, MpiConfig::B, MpiConfig::C}) {
        for (const int substeps : {2, 4}) {
          for (const bool mhd : {false, true}) {
            Eval e;
            e.case_index = i;
            e.cfg.n = c.n;
            e.cfg.nodes = c.nodes;
            e.cfg.pencils = np;
            e.cfg.mpi = mpi;
            e.cfg.rk_substeps = substeps;
            e.cfg.extra_fields = mhd ? 3 : 0;
            e.cfg.extra_products = mhd ? 3 : 0;
            out.push_back(e);
          }
        }
      }
    }
  }
  return out;
}

/// One sweep; returns the time spent in validate().
double sweep(const psdns::pipeline::DnsStepModel& model,
             std::vector<Eval>& evals) {
  double validate_s = 0.0;
  for (Eval& e : evals) {
    auto a = Clock::now();
    try {
      model.validate(e.cfg);
      e.valid = true;
    } catch (const std::exception&) {
      e.valid = false;
    }
    validate_s += seconds_since(a);
    if (!e.valid) continue;
    a = Clock::now();
    try {
      const auto result = model.simulate_gpu_step(e.cfg);
      e.seconds = result.seconds;
      e.overlap = result.overlap_efficiency;
      e.ops = result.records.size();
      e.failed = false;
    } catch (const std::exception&) {
      e.failed = true;
    }
    e.eval_s = seconds_since(a);
  }
  return validate_s;
}

const Eval* find(const std::vector<Eval>& evals, std::size_t case_index,
                 int np, MpiConfig mpi, int substeps, bool mhd) {
  for (const Eval& e : evals) {
    if (e.case_index == case_index && e.cfg.pencils == np &&
        e.cfg.mpi == mpi && e.cfg.rk_substeps == substeps &&
        (e.cfg.extra_fields > 0) == mhd) {
      return &e;
    }
  }
  return nullptr;
}

void check_sweep(const psdns::pipeline::DnsStepModel& model,
                 const std::vector<Eval>& evals, Report& r) {
  using psdns::model::paper::kCases;
  // The paper's runs: its pencil count, RK2, Navier-Stokes.
  const auto paper_cell = [&](std::size_t i, MpiConfig mpi) {
    const Eval* e = find(evals, i, kCases[i].pencils, mpi, 2, false);
    return e != nullptr && e->valid && !e->failed ? e->seconds : -1.0;
  };
  const auto cells = compare_table3(paper_cell);
  for (const auto& c : cells) {
    std::fprintf(stderr, "table3 %5d nodes %s: model %6.2f s, paper %6.2f s%s\n",
                 c.nodes, psdns::pipeline::to_string(c.mpi), c.model_s,
                 c.paper_s, c.exempt ? " (documented deviation)" : "");
  }
  r.check(table3_ok(cells), "a Table 3 cell is outside +-45% of the paper");
  for (std::size_t i = 0; i < std::size(kCases); ++i) {
    if (kCases[i].nodes < 128) continue;
    const double c = paper_cell(i, MpiConfig::C);
    r.check(c < paper_cell(i, MpiConfig::A) && c < paper_cell(i, MpiConfig::B),
            "config C is not fastest at " + std::to_string(kCases[i].nodes) +
                " nodes");
  }
  for (const Eval& e : evals) {
    if (!e.valid || e.failed) continue;
    const std::string where = std::to_string(e.cfg.nodes) + " nodes np " +
                              std::to_string(e.cfg.pencils) + " " +
                              psdns::pipeline::to_string(e.cfg.mpi);
    r.check(e.seconds >= model.mpi_only_step_seconds(e.cfg),
            "step faster than its MPI-only bound at " + where);
    r.check(e.overlap >= 0.0 && e.overlap <= 1.0,
            "overlap efficiency outside [0, 1] at " + where);
    if (e.cfg.rk_substeps == 4) {
      const Eval* rk2 = find(evals, e.case_index, e.cfg.pencils, e.cfg.mpi, 2,
                             e.cfg.extra_fields > 0);
      if (rk2 != nullptr && rk2->valid && !rk2->failed) {
        const double ratio = e.seconds / rk2->seconds;
        r.check(std::abs(ratio - 2.0) <= 0.15,
                "RK4/RK2 = " + std::to_string(ratio) + " at " + where);
      }
    }
  }
}

/// The sweeps of one run: model set-up and a first sweep, then sweeps for
/// `seconds` (at least `min_sweeps`), checked.
struct SweepRun {
  double setup_s = 0.0;
  std::vector<double> sweep_s, validate_s, eval_p50, eval_max;
  std::size_t ops = 0;  // op records of one sweep
};

SweepRun sweeps(double seconds, std::size_t min_sweeps, bool setup_only,
                Report& r) {
  SweepRun out;
  const auto t0 = Clock::now();
  const psdns::pipeline::DnsStepModel model;
  std::vector<Eval> evals = plan();
  sweep(model, evals);
  out.setup_s = seconds_since(t0);
  if (setup_only) return out;

  std::vector<double> first_seconds;
  for (const Eval& e : evals) first_seconds.push_back(e.seconds);
  const auto start = Clock::now();
  while (out.sweep_s.size() < min_sweeps ||
         seconds_since(start) < seconds) {
    const auto a = Clock::now();
    out.validate_s.push_back(sweep(model, evals));
    out.sweep_s.push_back(seconds_since(a));

    std::vector<double> eval_s, results;
    for (const Eval& e : evals) {
      results.push_back(e.seconds);
      if (!e.valid) continue;
      ++r.attempted;
      if (e.failed) ++r.failed;
      eval_s.push_back(e.eval_s);
    }
    out.eval_p50.push_back(median(eval_s));
    out.eval_max.push_back(*std::max_element(eval_s.begin(), eval_s.end()));
    r.check(results == first_seconds, "a repeated sweep changed its results");
  }

  std::size_t rejected = 0;
  for (const Eval& e : evals) {
    rejected += e.valid ? 0 : 1;
    out.ops += e.ops;
  }
  std::fprintf(stderr,
               "des: %zu sweeps of %zu configurations, %zu rejected by "
               "validate\n",
               out.sweep_s.size() + 1, evals.size(), rejected);
  check_sweep(model, evals, r);
  r.check(r.failed == 0, "an evaluation threw");
  return out;
}

}  // namespace

Report run_des(const Options& opt) {
  Report r;
  const SweepRun run = sweeps(opt.seconds, 3, opt.setup_only, r);
  r.add("setup_s", run.setup_s, "s");
  if (opt.setup_only) return r;
  r.add("op_s", median(run.sweep_s), "s");
  r.add("peak_rss_bytes", peak_rss_bytes(), "bytes");
  return r;
}

void trace_des(double seconds, Report& r) {
  const SweepRun run = sweeps(seconds, 1, false, r);
  r.add("des.ops", static_cast<double>(run.ops), "count");
  r.add("des.eval_p50_s", median(run.eval_p50), "s");
  r.add("des.eval_max_s", median(run.eval_max), "s");
  r.add("des.validate_s", median(run.validate_s), "s");
}

}  // namespace perfbench
