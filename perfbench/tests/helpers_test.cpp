// Tests of the benchmark's own helpers (src/bench_stats.hpp): the
// nearest-rank percentile and its tail rule, the seeded Poisson schedule,
// the energy-budget checker and the Table 3 comparison.
//
//   python3 perfbench/run.py --self-test

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "bench_stats.hpp"

namespace {

using perfbench::percentile;
using perfbench::tail_percentile;
using psdns::pipeline::MpiConfig;

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, NearestRank) {
  const std::vector<double> v = {15, 20, 35, 40, 50};
  EXPECT_EQ(percentile(v, 5), 15);
  EXPECT_EQ(percentile(v, 30), 20);
  EXPECT_EQ(percentile(v, 40), 20);
  EXPECT_EQ(percentile(v, 50), 35);
  EXPECT_EQ(percentile(v, 100), 50);
  EXPECT_EQ(perfbench::median(one_to(10)), 5);
  EXPECT_EQ(percentile(one_to(100), 90), 90);
}

TEST(Percentile, OrderDoesNotMatter) {
  std::vector<double> v = one_to(37);
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(percentile(v, 50), 19);
}

TEST(Percentile, EmptyIsNan) { EXPECT_TRUE(std::isnan(percentile({}, 50))); }

TEST(TailPercentile, NoTailUnderFortySamples) {
  EXPECT_FALSE(tail_percentile(one_to(39), 50).has_value());
  EXPECT_FALSE(tail_percentile(one_to(39), 75).has_value());
  ASSERT_TRUE(tail_percentile(one_to(40), 75).has_value());
  EXPECT_EQ(*tail_percentile(one_to(40), 75), 30);
}

TEST(TailPercentile, NeedsTenSamplesBeyond) {
  EXPECT_FALSE(tail_percentile(one_to(99), 90).has_value());
  ASSERT_TRUE(tail_percentile(one_to(100), 90).has_value());
  EXPECT_EQ(*tail_percentile(one_to(100), 90), 90);
  EXPECT_FALSE(tail_percentile(one_to(999), 99).has_value());
  EXPECT_TRUE(tail_percentile(one_to(1000), 99).has_value());
}

TEST(PoissonSchedule, SameSeedSameDueTimes) {
  const auto a = perfbench::poisson_schedule(7, 500, 50.0);
  const auto b = perfbench::poisson_schedule(7, 500, 50.0);
  const auto c = perfbench::poisson_schedule(8, 500, 50.0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  ASSERT_EQ(a.size(), 500u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_GE(a.front(), 0.0);
  EXPECT_LT(a.back(), 50.0);
}

TEST(PoissonSchedule, MeanRateWithinFivePercent) {
  // 10 per second nominal: the arrivals in each half of the window and
  // the mean gap both match the rate, and the gaps are exponential
  // (coefficient of variation 1).
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const auto due = perfbench::poisson_schedule(seed, 20000, 2000.0);
    const auto first_half = static_cast<double>(
        std::lower_bound(due.begin(), due.end(), 1000.0) - due.begin());
    EXPECT_NEAR(first_half / 1000.0, 10.0, 0.5) << "seed " << seed;
    std::vector<double> gaps;
    for (std::size_t i = 1; i < due.size(); ++i) {
      gaps.push_back(due[i] - due[i - 1]);
    }
    const double mean =
        std::accumulate(gaps.begin(), gaps.end(), 0.0) / gaps.size();
    double var = 0.0;
    for (const double g : gaps) var += (g - mean) * (g - mean);
    var /= static_cast<double>(gaps.size());
    EXPECT_NEAR(1.0 / mean, 10.0, 0.5) << "seed " << seed;
    EXPECT_NEAR(std::sqrt(var) / mean, 1.0, 0.05) << "seed " << seed;
  }
}

TEST(PortableShuffle, SameSeedSameOrderAndAPermutation) {
  std::vector<int> a = {0, 1, 2, 3, 4, 5, 6, 7}, b = a;
  std::mt19937_64 ga(3), gb(3);
  perfbench::portable_shuffle(a, ga);
  perfbench::portable_shuffle(b, gb);
  EXPECT_EQ(a, b);
  std::vector<int> sorted = a;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

// E(t) = E0 exp(-lambda t), eps = -dE/dt = lambda E: an exact budget.
struct Decay {
  std::vector<double> t, e, eps;
  Decay(double lambda, double dt, int steps, double eps_scale = 1.0) {
    for (int i = 0; i <= steps; ++i) {
      const double ti = dt * i;
      t.push_back(ti);
      e.push_back(0.5 * std::exp(-lambda * ti));
      eps.push_back(eps_scale * lambda * e.back());
    }
  }
};

TEST(EnergyBudget, ExactDecayPasses) {
  const double lambda = 2.0;
  const Decay d(lambda, 0.01, 50);
  const auto b = perfbench::check_energy_budget(d.t, d.e, d.eps,
                                                1.0 / lambda, 0.5);
  EXPECT_TRUE(b.ok) << b.residual << " vs " << b.tolerance;
  // What is left is the trapezoid rule's error, (lambda dt)^2 / 12.
  EXPECT_NEAR(b.residual / b.dissipated, std::pow(lambda * 0.01, 2) / 12.0,
              1e-6);
  EXPECT_LT(std::abs(b.residual), b.tolerance);
}

TEST(EnergyBudget, ResidualShrinksAsDtSquared) {
  const double lambda = 2.0;
  const Decay coarse(lambda, 0.02, 25), fine(lambda, 0.01, 50);
  const auto bc = perfbench::check_energy_budget(coarse.t, coarse.e,
                                                 coarse.eps, 0.5, 0.5);
  const auto bf =
      perfbench::check_energy_budget(fine.t, fine.e, fine.eps, 0.5, 0.5);
  EXPECT_NEAR(bc.residual / bf.residual, 4.0, 0.05);
}

TEST(EnergyBudget, WrongDissipationFails) {
  const double lambda = 2.0;
  const Decay d(lambda, 0.01, 50, 0.99);  // eps 1% low
  EXPECT_FALSE(
      perfbench::check_energy_budget(d.t, d.e, d.eps, 1.0 / lambda, 0.5).ok);
}

TEST(EnergyBudget, RisingOrNonFiniteFails) {
  Decay d(2.0, 0.01, 20);
  d.e.back() = d.e.front() * 1.01;
  EXPECT_FALSE(perfbench::check_energy_budget(d.t, d.e, d.eps, 0.5, 0.5).ok);
  Decay n(2.0, 0.01, 20);
  n.eps[3] = std::nan("");
  EXPECT_FALSE(perfbench::check_energy_budget(n.t, n.e, n.eps, 0.5, 0.5).ok);
  EXPECT_FALSE(perfbench::check_energy_budget({0.0}, {1.0}, {1.0}, 1, 1).ok);
}

double paper_value(std::size_t i, MpiConfig mpi) {
  const auto& row = psdns::model::paper::kTable3[i];
  return mpi == MpiConfig::A ? row.gpu_a
                             : mpi == MpiConfig::B ? row.gpu_b : row.gpu_c;
}

TEST(Table3, PaperAgainstItselfIsWithin) {
  const auto cells = perfbench::compare_table3(paper_value);
  ASSERT_EQ(cells.size(), 3 * std::size(psdns::model::paper::kTable3));
  EXPECT_TRUE(perfbench::table3_ok(cells));
  int exempt = 0;
  for (const auto& c : cells) {
    EXPECT_TRUE(c.within);
    EXPECT_EQ(c.paper_s, c.model_s);
    if (c.exempt) {
      ++exempt;
      EXPECT_EQ(c.nodes, 1024);
      EXPECT_EQ(c.mpi, MpiConfig::A);
    }
  }
  EXPECT_EQ(exempt, 1);
}

TEST(Table3, BandEdges) {
  const auto scaled = [](double f) {
    return [f](std::size_t i, MpiConfig m) { return f * paper_value(i, m); };
  };
  EXPECT_TRUE(perfbench::table3_ok(perfbench::compare_table3(scaled(1.44))));
  EXPECT_TRUE(perfbench::table3_ok(perfbench::compare_table3(scaled(0.56))));
  EXPECT_FALSE(perfbench::table3_ok(perfbench::compare_table3(scaled(1.46))));
  EXPECT_FALSE(perfbench::table3_ok(perfbench::compare_table3(scaled(0.54))));
}

TEST(Table3, OnlyTheDocumentedCellIsExempt) {
  // Config A at 1024 nodes twice the paper: still fine.
  const auto a1024 = [](std::size_t i, MpiConfig m) {
    const bool cell = m == MpiConfig::A &&
                      psdns::model::paper::kTable3[i].nodes == 1024;
    return (cell ? 2.0 : 1.0) * paper_value(i, m);
  };
  EXPECT_TRUE(perfbench::table3_ok(perfbench::compare_table3(a1024)));
  // Config B at 1024 nodes twice the paper: a failure.
  const auto b1024 = [](std::size_t i, MpiConfig m) {
    const bool cell = m == MpiConfig::B &&
                      psdns::model::paper::kTable3[i].nodes == 1024;
    return (cell ? 2.0 : 1.0) * paper_value(i, m);
  };
  EXPECT_FALSE(perfbench::table3_ok(perfbench::compare_table3(b1024)));
}

}  // namespace
