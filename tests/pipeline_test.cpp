#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "model/paper.hpp"
#include "model/scaling.hpp"
#include "obs/critical_path.hpp"
#include "pipeline/async_fft.hpp"
#include "pipeline/dns_step_model.hpp"
#include "pipeline/timeline.hpp"
#include "transpose/dist_fft.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace psdns::pipeline {
namespace {

using model::paper::kCases;
using model::paper::kTable3;

PipelineConfig make_config(std::size_t case_index, MpiConfig mpi) {
  const auto& c = kCases[case_index];
  PipelineConfig cfg;
  cfg.n = c.n;
  cfg.nodes = c.nodes;
  cfg.pencils = c.pencils;
  cfg.mpi = mpi;
  return cfg;
}

// --- timed co-simulation: Table 3 shapes ---

TEST(StepModel, DeterministicAcrossRuns) {
  DnsStepModel m;
  const auto cfg = make_config(2, MpiConfig::C);
  EXPECT_DOUBLE_EQ(m.simulate_gpu_step(cfg).seconds,
                   m.simulate_gpu_step(cfg).seconds);
}

TEST(StepModel, Table3TimesWithinBand) {
  // Absolute times within +-45% of the paper for every cell except the
  // paper-internally-anomalous A@1024 (see EXPERIMENTS.md): Table 2's own
  // standalone bandwidth for that cell implies a slower DNS than Table 3
  // reports.
  DnsStepModel m;
  for (std::size_t i = 0; i < std::size(kTable3); ++i) {
    const auto& row = kTable3[i];
    const double cpu = m.cpu_step_seconds(row.n, row.nodes);
    EXPECT_GT(cpu, 0.55 * row.cpu_sync) << "row " << i;
    EXPECT_LT(cpu, 1.45 * row.cpu_sync) << "row " << i;

    const struct {
      MpiConfig mc;
      double want;
    } cells[] = {{MpiConfig::A, row.gpu_a},
                 {MpiConfig::B, row.gpu_b},
                 {MpiConfig::C, row.gpu_c}};
    for (const auto& cell : cells) {
      if (cell.mc == MpiConfig::A && row.nodes == 1024) continue;
      const double got = m.simulate_gpu_step(make_config(i, cell.mc)).seconds;
      EXPECT_GT(got, 0.55 * cell.want)
          << "row " << i << " config " << to_string(cell.mc);
      EXPECT_LT(got, 1.45 * cell.want)
          << "row " << i << " config " << to_string(cell.mc);
    }
  }
}

TEST(StepModel, OverlappedPencilsWinAt16Nodes) {
  // Paper: at 16 nodes, B (1 pencil/A2A, overlapped) is the fastest GPU
  // configuration.
  DnsStepModel m;
  const double a = m.simulate_gpu_step(make_config(0, MpiConfig::A)).seconds;
  const double b = m.simulate_gpu_step(make_config(0, MpiConfig::B)).seconds;
  const double c = m.simulate_gpu_step(make_config(0, MpiConfig::C)).seconds;
  EXPECT_LT(b, c);
  EXPECT_LT(b, a);
}

TEST(StepModel, WholeSlabWinsBeyond16Nodes) {
  // Paper Sec. 5.2: "Beyond 16 nodes, waiting to send the entire slab at
  // once is faster than overlapping communications of a pencil at a time."
  DnsStepModel m;
  for (std::size_t i = 1; i < std::size(kCases); ++i) {
    const double b =
        m.simulate_gpu_step(make_config(i, MpiConfig::B)).seconds;
    const double c =
        m.simulate_gpu_step(make_config(i, MpiConfig::C)).seconds;
    EXPECT_LT(c, b) << "nodes=" << kCases[i].nodes;
  }
}

TEST(StepModel, TwoTasksPerNodeBeatSix) {
  DnsStepModel m;
  for (std::size_t i = 0; i < std::size(kCases); ++i) {
    const double a =
        m.simulate_gpu_step(make_config(i, MpiConfig::A)).seconds;
    const double best = std::min(
        m.simulate_gpu_step(make_config(i, MpiConfig::B)).seconds,
        m.simulate_gpu_step(make_config(i, MpiConfig::C)).seconds);
    EXPECT_LT(best, a) << "nodes=" << kCases[i].nodes;
  }
}

TEST(StepModel, GpuSpeedupSubstantialAndShrinkingAtScale) {
  DnsStepModel m;
  std::vector<double> speedup;
  for (std::size_t i = 0; i < std::size(kCases); ++i) {
    const double cpu = m.cpu_step_seconds(kCases[i].n, kCases[i].nodes);
    double best = 1e300;
    for (const auto mc : {MpiConfig::A, MpiConfig::B, MpiConfig::C}) {
      best = std::min(best, m.simulate_gpu_step(make_config(i, mc)).seconds);
    }
    speedup.push_back(cpu / best);
  }
  // Speedup of order 3 or higher at the weak-scaled sizes (paper: 4.2-5.1),
  // dropping at the 18432^3 stretch size (paper: 2.9).
  for (std::size_t i = 0; i + 1 < speedup.size(); ++i) {
    EXPECT_GT(speedup[i], 3.0) << "case " << i;
  }
  EXPECT_GT(speedup.back(), 2.0);
  EXPECT_LT(speedup.back(), speedup[2]);
}

TEST(StepModel, HeadlineNumbers) {
  // The paper's two headline results: ~4.7x at 12288^3 (largest size in the
  // literature) and < 20 s/step at 18432^3 (the wallclock goal of Sec. 3,
  // "approximately 20s per RK2 timestep").
  DnsStepModel m;
  const double cpu12k = m.cpu_step_seconds(12288, 1024);
  const double gpu12k =
      m.simulate_gpu_step(make_config(2, MpiConfig::C)).seconds;
  EXPECT_GT(cpu12k / gpu12k, 4.0);
  EXPECT_LT(cpu12k / gpu12k, 5.5);

  const double gpu18k =
      m.simulate_gpu_step(make_config(3, MpiConfig::C)).seconds;
  EXPECT_LT(gpu18k, model::paper::kWallclockGoalPerStep);
}

TEST(StepModel, MpiOnlyIsALowerBound) {
  // Fig. 9: the standalone-MPI line bounds every DNS configuration from
  // below.
  DnsStepModel m;
  for (std::size_t i = 0; i < std::size(kCases); ++i) {
    for (const auto mc : {MpiConfig::B, MpiConfig::C}) {
      const auto cfg = make_config(i, mc);
      EXPECT_LT(m.mpi_only_step_seconds(cfg),
                m.simulate_gpu_step(cfg).seconds)
          << "nodes=" << kCases[i].nodes;
    }
  }
}

TEST(StepModel, MpiDominatesRuntimeInBestConfig) {
  // Sec. 6: FFT compute plus CPU<->GPU movement is less than ~1/7 of the
  // runtime; the bulk is the all-to-all.
  DnsStepModel m;
  const auto r = m.simulate_gpu_step(make_config(3, MpiConfig::C));
  EXPECT_GT(r.mpi_busy / r.seconds, 0.6);
}

/// Fig. 10's case: 12288^3 on 1024 nodes, 3 pencils per slab.
PipelineConfig fig10_config(MpiConfig mpi) {
  PipelineConfig cfg;
  cfg.n = 12288;
  cfg.nodes = 1024;
  cfg.pencils = 3;
  cfg.mpi = mpi;
  return cfg;
}

TEST(StepModel, SpansCarryTheirLaneRankAndName) {
  // Every op is one span whose thread names its lane in the step's lane
  // table and whose rank is that lane's "r<k>" prefix, so per-rank overlap
  // groups exactly the ops the lane names do.
  DnsStepModel m;
  const auto r = m.simulate_gpu_step(fig10_config(MpiConfig::A));
  ASSERT_FALSE(r.records.empty());
  std::set<int> ranks;
  for (std::size_t i = 0; i < r.records.size(); ++i) {
    const auto& s = r.records[i];
    EXPECT_EQ(s.id, i + 1);
    ASSERT_GE(s.thread, 0);
    ASSERT_LT(static_cast<std::size_t>(s.thread), r.lanes.size());
    const std::string& lane = r.lanes[static_cast<std::size_t>(s.thread)];
    ASSERT_GE(s.rank, 0) << lane;
    EXPECT_EQ(lane.substr(0, lane.find('.')), "r" + std::to_string(s.rank))
        << s.name;
    ranks.insert(s.rank);
  }
  EXPECT_EQ(ranks.size(), 3u);  // config A: 3 ranks per socket
}

TEST(StepModel, TransferBusyIsOneUnionOfAllCopies) {
  // transfer_busy is wall time with >= 1 copy active: one union over H2D
  // copies (staging and zero-copy unpack) and D2H copies, never more than
  // the step. In config C the two directions overlap, so it is strictly
  // less than the H2D union plus the D2H union.
  DnsStepModel m;
  const auto busy_of = [](const StepResult& r, bool d2h) {
    std::vector<obs::SpanRecord> copies;
    for (const auto& s : r.records) {
      if ((s.name.find(".d2h") != std::string::npos) == d2h) {
        copies.push_back(s);
      }
    }
    return obs::busy_time(copies, obs::SpanKind::Transfer);
  };
  for (const auto mc : {MpiConfig::A, MpiConfig::B, MpiConfig::C}) {
    const auto r = m.simulate_gpu_step(fig10_config(mc));
    const double h2d = busy_of(r, false);
    const double d2h = busy_of(r, true);
    EXPECT_GT(h2d, 0.0) << to_string(mc);
    EXPECT_GT(d2h, 0.0) << to_string(mc);
    EXPECT_LE(r.transfer_busy, r.seconds) << to_string(mc);
    EXPECT_GE(r.transfer_busy, std::max(h2d, d2h)) << to_string(mc);
    EXPECT_LE(r.transfer_busy, h2d + d2h + 1e-12) << to_string(mc);
    if (mc == MpiConfig::C) {
      EXPECT_LT(r.transfer_busy, 0.9 * (h2d + d2h));
    }
  }
}

TEST(StepModel, AsyncBeatsSerializedAblation) {
  DnsStepModel m;
  auto cfg = make_config(2, MpiConfig::C);
  const double async_t = m.simulate_gpu_step(cfg).seconds;
  cfg.async = false;
  const double sync_t = m.simulate_gpu_step(cfg).seconds;
  EXPECT_LT(async_t, sync_t);
}

TEST(StepModel, ManyMemcpyCopyMethodIsSlower) {
  // Fig. 7 consequence at DNS scale: per-chunk cudaMemcpyAsync copies make
  // the step slower than pitched copies.
  DnsStepModel m;
  auto cfg = make_config(3, MpiConfig::C);
  const double pitched = m.simulate_gpu_step(cfg).seconds;
  cfg.copy_method = gpu::CopyMethod::ManyMemcpyAsync;
  const double many = m.simulate_gpu_step(cfg).seconds;
  EXPECT_GT(many, pitched);
}

TEST(StepModel, StrongScalingOf18432CaseA) {
  // Sec. 5.3: 18432^3 with 6 tasks/node: 1536 -> 3072 nodes at 95.7%
  // strong-scaling efficiency. The model should show near-ideal strong
  // scaling too (communication volume per node halves).
  DnsStepModel m;
  PipelineConfig c3072 = make_config(3, MpiConfig::A);
  PipelineConfig c1536 = c3072;
  c1536.nodes = 1536;
  c1536.pencils = 7;  // memory model: twice the per-node footprint
  const double t3072 = m.simulate_gpu_step(c3072).seconds;
  const double t1536 = m.simulate_gpu_step(c1536).seconds;
  const double ss = model::strong_scaling_percent(1536, t1536, 3072, t3072);
  EXPECT_GT(ss, 80.0);
  EXPECT_LT(ss, 115.0);
}

TEST(StepModel, WeakScalingMatchesTable4Shape) {
  // Weak scaling of the best configuration relative to 3072^3 (Eq. 4)
  // decays with scale and stays within +-15 points of Table 4.
  DnsStepModel m;
  std::vector<double> best(std::size(kCases));
  for (std::size_t i = 0; i < std::size(kCases); ++i) {
    best[i] = 1e300;
    for (const auto mc : {MpiConfig::A, MpiConfig::B, MpiConfig::C}) {
      best[i] =
          std::min(best[i], m.simulate_gpu_step(make_config(i, mc)).seconds);
    }
  }
  double prev = 101.0;
  for (std::size_t i = 1; i < std::size(kCases); ++i) {
    const double ws = model::weak_scaling_percent(
        kCases[0].n, kCases[0].nodes, best[0], kCases[i].n, kCases[i].nodes,
        best[i]);
    EXPECT_LT(ws, prev) << "weak scaling must decay";
    EXPECT_NEAR(ws, model::paper::kTable4[i].weak_scaling_pct, 15.0);
    prev = ws;
  }
}

TEST(StepModel, CpuCoresPerNodeRule) {
  EXPECT_EQ(DnsStepModel::cpu_cores_per_node(3072), 32);
  EXPECT_EQ(DnsStepModel::cpu_cores_per_node(6144), 32);
  EXPECT_EQ(DnsStepModel::cpu_cores_per_node(12288), 32);
  EXPECT_EQ(DnsStepModel::cpu_cores_per_node(18432), 36);
}

TEST(StepModel, GpuDirectGivesNoNoticeableBenefit) {
  // Sec. 3.3: "after implementing CUDA-aware MPI and GPU-direct we did not
  // see any noticeable benefit to our runtime" - the pipeline is NIC-bound
  // and the D2H already doubles as the pack.
  DnsStepModel m;
  auto cfg = make_config(3, MpiConfig::C);
  const double staged = m.simulate_gpu_step(cfg).seconds;
  cfg.gpu_direct = true;
  const double direct = m.simulate_gpu_step(cfg).seconds;
  EXPECT_LT(std::abs(direct - staged) / staged, 0.10);
}

TEST(StepModel, RK4CostsAboutTwiceRK2) {
  // Sec. 2: "The cost of RK4 per time step is approximately doubled."
  DnsStepModel m;
  auto cfg = make_config(2, MpiConfig::C);
  const double rk2 = m.simulate_gpu_step(cfg).seconds;
  cfg.rk_substeps = 4;
  const double rk4 = m.simulate_gpu_step(cfg).seconds;
  EXPECT_NEAR(rk4 / rk2, 2.0, 0.15);
}

TEST(StepModel, ZeroCopyUnpackBeatsStagedUnpackInTransferStream) {
  // Sec. 4.2/5.2: the zero-copy unpack frees the transfer stream (and the
  // copy engines) at the cost of a few SMs; at the production operating
  // point it should not be slower than pushing unpacks through the
  // transfer stream.
  DnsStepModel m;
  auto cfg = make_config(3, MpiConfig::C);
  cfg.unpack_method = gpu::CopyMethod::ZeroCopy;
  const double zc = m.simulate_gpu_step(cfg).seconds;
  cfg.unpack_method = gpu::CopyMethod::Memcpy2DAsync;
  const double staged = m.simulate_gpu_step(cfg).seconds;
  EXPECT_LT(zc, staged * 1.02);
}

TEST(StepModel, ScalarCostScalesWithTransposedVariables) {
  // Each scalar adds 4 of the 9 variable-transposes a velocity-only substep
  // performs, so the communication-bound step time grows roughly as
  // (9 + 4m) / 9.
  DnsStepModel m;
  auto cfg = make_config(2, MpiConfig::C);
  const double base = m.simulate_gpu_step(cfg).seconds;
  cfg.scalars = 1;
  const double one = m.simulate_gpu_step(cfg).seconds;
  cfg.scalars = 2;
  const double two = m.simulate_gpu_step(cfg).seconds;
  EXPECT_NEAR(one / base, 13.0 / 9.0, 0.12);
  EXPECT_NEAR(two / base, 17.0 / 9.0, 0.15);
}

TEST(StepModel, RejectsInfeasibleConfigurations) {
  DnsStepModel m;
  // 18432^3 on 1024 nodes: below the 1302-node memory estimate.
  PipelineConfig too_few = make_config(3, MpiConfig::C);
  too_few.nodes = 1024;
  EXPECT_THROW(m.simulate_gpu_step(too_few), util::Error);

  // Too few pencils: the 27 GPU buffers would not fit in 96 GB.
  PipelineConfig too_big_pencils = make_config(3, MpiConfig::C);
  too_big_pencils.pencils = 1;
  EXPECT_THROW(m.simulate_gpu_step(too_big_pencils), util::Error);

  // The paper's production point is feasible.
  EXPECT_NO_THROW(m.simulate_gpu_step(make_config(3, MpiConfig::C)));
}

TEST(Timeline, LanePerStreamViewShowsStreams) {
  DnsStepModel m;
  const auto r = m.simulate_gpu_step(make_config(0, MpiConfig::B));
  const std::string t =
      render_timeline(r.records, r.seconds, {.columns = 60, .lanes = r.lanes});
  EXPECT_NE(t.find(".compute"), std::string::npos);
  EXPECT_NE(t.find(".transfer"), std::string::npos);
  EXPECT_NE(t.find(".mpi"), std::string::npos);
}

// --- timeline rendering (Fig. 10 machinery) ---

obs::SpanRecord span(obs::SpanId id, const std::string& name,
                     obs::SpanKind kind, int thread, double start,
                     double end) {
  obs::SpanRecord s;
  s.id = id;
  s.name = name;
  s.kind = kind;
  s.thread = thread;
  s.start_s = start;
  s.end_s = end;
  return s;
}

TEST(Timeline, RendersCategoriesAndDuration) {
  DnsStepModel m;
  const auto r = m.simulate_gpu_step(make_config(2, MpiConfig::C));
  const std::string t = render_timeline(r.records, r.seconds);
  // One row per span kind: H2D, D2H+pack and unpack copies share the
  // transfer row.
  EXPECT_EQ(t.find("MPI      |"), 0u);
  EXPECT_NE(t.find("\ntransfer |"), std::string::npos);
  EXPECT_NE(t.find("\ncompute  |"), std::string::npos);
  EXPECT_EQ(t.find("H2D"), std::string::npos);
  EXPECT_NE(t.find('#'), std::string::npos);
  const std::string busy = summarize_busy(r.records, r.seconds);
  EXPECT_NE(busy.find("MPI:"), std::string::npos);
  EXPECT_NE(busy.find("transfer:"), std::string::npos);
  EXPECT_NE(busy.find("compute:"), std::string::npos);
}

TEST(Timeline, EmptyTraceHandled) {
  EXPECT_EQ(render_timeline({}), "(empty timeline)\n");
}

TEST(Timeline, LanePerStreamPaintsOneRowPerLane) {
  // Two lanes, synthetic ops: each lane gets its own labeled row whose '#'
  // extent matches the op placement.
  const std::vector<obs::SpanRecord> recs = {
      span(1, "a", obs::SpanKind::Compute, 0, 0.0, 5.0),
      span(2, "b", obs::SpanKind::Comm, 1, 5.0, 10.0),
  };
  const std::string t = render_timeline(
      recs, 10.0, {.columns = 10, .lanes = {"laneA", "laneB"}});
  EXPECT_NE(t.find("laneA |#####"), std::string::npos);
  EXPECT_NE(t.find("laneB |"), std::string::npos);
  // laneB's row is idle in the first half.
  const auto pos = t.find("laneB |");
  ASSERT_NE(pos, std::string::npos);
  EXPECT_EQ(t.substr(pos + 7, 4), "....");
}

TEST(Timeline, ClipsOpsBeyondTEnd) {
  // With t_end before the second op even starts, the later op must not
  // smear into the last column of the render.
  const std::vector<obs::SpanRecord> recs = {
      span(1, "a", obs::SpanKind::Comm, 0, 0.0, 2.0),
      span(2, "b", obs::SpanKind::Comm, 0, 8.0, 10.0),
  };
  const std::string full = render_timeline(recs, 10.0, {.columns = 10});
  const std::string clipped = render_timeline(recs, 4.0, {.columns = 10});
  // Full window: MPI row shows both ops (last column painted).
  const auto row_of = [](const std::string& s) {
    const auto p = s.find("MPI");
    const auto bar = s.find('|', p);
    return s.substr(bar + 1, 10);
  };
  EXPECT_EQ(row_of(full).back(), '#');
  // Clipped window: only the first op, scaled to the shorter axis; the
  // trailing columns stay idle. (Columns are inclusive of the op's end.)
  EXPECT_EQ(row_of(clipped), "######....");
}

TEST(Timeline, ClipsOpsStraddlingTEnd) {
  // An op that starts inside the window but finishes after t_end paints up
  // to the last column without reading past it.
  const std::vector<obs::SpanRecord> recs = {
      span(1, "a", obs::SpanKind::Comm, 0, 3.0, 100.0),
  };
  const std::string t = render_timeline(recs, 4.0, {.columns = 8});
  const auto p = t.find("MPI");
  const auto bar = t.find('|', p);
  EXPECT_EQ(t.substr(bar + 1, 8), "......##");
}

// --- functional Fig.-4 executor ---

class AsyncFftP : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(AsyncFftP, MatchesMonolithicTransform) {
  const auto [np, q] = GetParam();
  const std::size_t n = 16;
  const int P = 4;
  comm::run_ranks(P, [&](comm::Communicator& comm) {
    transpose::SlabFft3d reference(comm, n);
    AsyncFft3d pipelined(comm, n, np, q);

    util::Rng rng(42, static_cast<std::uint64_t>(comm.rank()));
    std::vector<Real> phys(reference.physical_elems());
    for (auto& v : phys) v = rng.gaussian();

    std::vector<Complex> want(reference.spectral_elems());
    reference.forward(phys, want);

    std::vector<Complex> got(pipelined.spectral_elems());
    const Real* pp = phys.data();
    Complex* gp = got.data();
    pipelined.forward(std::span<const Real* const>(&pp, 1),
                      std::span<Complex* const>(&gp, 1));
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_LT(std::abs(got[i] - want[i]), 1e-9) << "i=" << i;
    }

    // Inverse round trip through the pipelined path.
    std::vector<Real> back(pipelined.physical_elems());
    const Complex* gcp = got.data();
    Real* bp = back.data();
    pipelined.inverse(std::span<const Complex* const>(&gcp, 1),
                      std::span<Real* const>(&bp, 1));
    const double scale = static_cast<double>(n) * n * n;
    for (std::size_t i = 0; i < phys.size(); ++i) {
      EXPECT_NEAR(back[i] / scale, phys[i], 1e-10);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Batching, AsyncFftP,
    ::testing::Values(std::pair{1, 1}, std::pair{3, 1}, std::pair{4, 2},
                      std::pair{4, 4}, std::pair{5, 2}),
    [](const ::testing::TestParamInfo<std::pair<int, int>>& pinfo) {
      return "np" + std::to_string(pinfo.param.first) + "q" +
             std::to_string(pinfo.param.second);
    });

TEST(AsyncFft, MultipleVariablesShareTheExchange) {
  const std::size_t n = 8;
  comm::run_ranks(2, [&](comm::Communicator& comm) {
    transpose::SlabFft3d reference(comm, n);
    AsyncFft3d pipelined(comm, n, 2, 1);

    util::Rng rng(1, static_cast<std::uint64_t>(comm.rank()));
    std::vector<std::vector<Real>> phys(3);
    std::vector<const Real*> pp(3);
    for (int v = 0; v < 3; ++v) {
      phys[static_cast<std::size_t>(v)].resize(reference.physical_elems());
      for (auto& x : phys[static_cast<std::size_t>(v)]) x = rng.gaussian();
      pp[static_cast<std::size_t>(v)] = phys[static_cast<std::size_t>(v)].data();
    }
    std::vector<std::vector<Complex>> got(3), want(3);
    std::vector<Complex*> gp(3), wp(3);
    for (int v = 0; v < 3; ++v) {
      got[static_cast<std::size_t>(v)].resize(reference.spectral_elems());
      want[static_cast<std::size_t>(v)].resize(reference.spectral_elems());
      gp[static_cast<std::size_t>(v)] = got[static_cast<std::size_t>(v)].data();
      wp[static_cast<std::size_t>(v)] = want[static_cast<std::size_t>(v)].data();
    }
    reference.forward(std::span<const Real* const>(pp.data(), 3),
                      std::span<Complex* const>(wp.data(), 3));
    pipelined.forward(std::span<const Real* const>(pp.data(), 3),
                      std::span<Complex* const>(gp.data(), 3));
    for (int v = 0; v < 3; ++v) {
      for (std::size_t i = 0; i < want[0].size(); ++i) {
        EXPECT_LT(std::abs(got[static_cast<std::size_t>(v)][i] -
                           want[static_cast<std::size_t>(v)][i]),
                  1e-9);
      }
    }
  });
}

}  // namespace
}  // namespace psdns::pipeline
