// Regenerates Fig. 10: normalized operation timelines of the 12288^3
// problem on 1024 nodes (np = 3 pencils per slab) under the different code
// configurations, rendered as text Gantt rows per span kind.

#include <cstdio>

#include "obs/bench_report.hpp"
#include "obs/trace_export.hpp"
#include "pipeline/dns_step_model.hpp"
#include "pipeline/timeline.hpp"
#include "util/format.hpp"

int main() {
  using namespace psdns;
  using pipeline::MpiConfig;
  const pipeline::DnsStepModel model;

  std::printf(
      "Fig. 10: timelines of one RK2 step, 12288^3 on 1024 nodes, 3 pencils\n"
      "per slab. '#' marks wall-clock intervals with at least one op of the\n"
      "kind active (transfer = H2D, D2H+pack and unpack copies).\n\n");

  // A common horizontal scale (the slowest configuration) makes the
  // relative lengths comparable, like the paper's aligned plots.
  pipeline::PipelineConfig base;
  base.n = 12288;
  base.nodes = 1024;
  base.pencils = 3;

  struct Variant {
    const char* title;
    MpiConfig mpi;
  };
  const Variant variants[] = {
      {"DNS, 2 tasks/node, 1 pencil/A2A (async MPI overlap)", MpiConfig::B},
      {"DNS, 2 tasks/node, 1 slab/A2A (wait for whole slab)", MpiConfig::C},
      {"DNS, 6 tasks/node, 1 pencil/A2A", MpiConfig::A},
  };

  double t_max = 0.0;
  std::vector<pipeline::StepResult> results;
  for (const auto& v : variants) {
    auto cfg = base;
    cfg.mpi = v.mpi;
    results.push_back(model.simulate_gpu_step(cfg));
    t_max = std::max(t_max, results.back().seconds);
  }

  // The standalone MPI-only row (top timeline of the paper's figure).
  auto mpi_cfg = base;
  mpi_cfg.mpi = MpiConfig::B;
  std::printf("MPI-only code (same all-to-alls, nothing else): %s\n\n",
              util::format_time(model.mpi_only_step_seconds(mpi_cfg)).c_str());

  obs::BenchReport report("fig10_timeline");
  report.meta("description",
              "per-kind busy times of one RK2 step, 12288^3 / 1024 nodes");
  const char* variant_key[] = {"b_async_pencil", "c_slab", "a_6tasks"};
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::printf("%s  [step: %s]\n", variants[i].title,
                util::format_time(results[i].seconds).c_str());
    std::printf("%s", pipeline::render_timeline(results[i].records, t_max)
                          .c_str());
    std::printf("%s\n",
                pipeline::summarize_busy(results[i].records,
                                         results[i].seconds)
                    .c_str());
    const std::string key = variant_key[i];
    report.metric("step_seconds." + key, results[i].seconds);
    report.metric("mpi_busy_seconds." + key, results[i].mpi_busy);
    report.metric("transfer_busy_seconds." + key, results[i].transfer_busy);
    report.metric("compute_busy_seconds." + key, results[i].compute_busy);
  }

  // The same spans, interactively: one Chrome trace per variant, one
  // track per lane, loadable in Perfetto / chrome://tracing (see README
  // "Observability").
  for (std::size_t i = 0; i < results.size(); ++i) {
    const std::string path = obs::bench_output_path(
        std::string("fig10_trace_") + variant_key[i] + ".json");
    obs::SpanTrace trace;
    trace.spans = results[i].records;
    obs::ChromeTraceOptions options;
    options.thread_names = results[i].lanes;
    obs::write_text_file(path, obs::to_chrome_trace(trace, options));
    std::printf("wrote %s\n", path.c_str());
  }
  std::printf("wrote %s\n", report.write().c_str());

  std::printf(
      "Takeaways reproduced (Sec. 5.2): MPI (red in the paper) dominates\n"
      "the runtime; one large message transposes the same data faster than\n"
      "overlapped per-pencil messages; 6 tasks/node stretches both the MPI\n"
      "and the finer-granularity packing copies.\n");
  return 0;
}
