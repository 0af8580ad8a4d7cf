// Host micro-benchmarks of the functional FFT library (google-benchmark):
// the kernels that actually run in the laptop-scale validation path.

#include <benchmark/benchmark.h>

#include <vector>

#include "fft/fft3d.hpp"
#include "fft/plan.hpp"
#include "fft/real.hpp"
#include "gbench_main.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using psdns::fft::BatchLayout;
using psdns::fft::Complex;
using psdns::fft::Direction;
using psdns::fft::Real;

void BM_C2C(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto plan = psdns::fft::get_plan(n);
  psdns::util::Rng rng(1);
  std::vector<Complex> x(n), y(n);
  for (auto& c : x) c = Complex{rng.gaussian(), rng.gaussian()};
  for (auto _ : state) {
    plan->transform(Direction::Forward, x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_C2C)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096)->Arg(18432);

void BM_C2C_NonPow2(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto plan = psdns::fft::get_plan(n);
  psdns::util::Rng rng(2);
  std::vector<Complex> x(n), y(n);
  for (auto& c : x) c = Complex{rng.gaussian(), rng.gaussian()};
  for (auto _ : state) {
    plan->transform(Direction::Forward, x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_C2C_NonPow2)->Arg(3 * 81)->Arg(5 * 243)->Arg(97);

void BM_R2C(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto plan = psdns::fft::get_plan_r2c(n);
  psdns::util::Rng rng(3);
  std::vector<Real> x(n);
  std::vector<Complex> y(n / 2 + 1);
  for (auto& v : x) v = rng.gaussian();
  for (auto _ : state) {
    plan->forward(x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_R2C)->Arg(64)->Arg(1024)->Arg(18432);

void BM_Strided(benchmark::State& state) {
  // The y-direction line shape of a pencil: stride = pencil width.
  const std::size_t n = 256, stride = 64;
  const auto plan = psdns::fft::get_plan(n);
  psdns::util::Rng rng(4);
  std::vector<Complex> x(n * stride);
  for (auto& c : x) c = Complex{rng.gaussian(), rng.gaussian()};
  for (auto _ : state) {
    plan->transform_strided(Direction::Forward, x.data(),
                            static_cast<std::ptrdiff_t>(stride), x.data(),
                            static_cast<std::ptrdiff_t>(stride));
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_Strided);

// Per-line vs. batched transforms of the same plane of lines: n lines of
// length n at stride n (dist 1), the z-line layout of an n x n plane. The
// ratio of these two benches is the win of the blocked-gather Stockham path
// over gather/recurse/scatter per line.
void BM_PerLineStrided(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto plan = psdns::fft::get_plan(n);
  psdns::util::Rng rng(6);
  std::vector<Complex> x(n * n);
  for (auto& c : x) c = Complex{rng.gaussian(), rng.gaussian()};
  for (auto _ : state) {
    for (std::size_t b = 0; b < n; ++b) {
      plan->transform_strided(Direction::Forward, x.data() + b,
                              static_cast<std::ptrdiff_t>(n), x.data() + b,
                              static_cast<std::ptrdiff_t>(n));
    }
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n * n));
}
BENCHMARK(BM_PerLineStrided)->Arg(64)->Arg(256)->Arg(1024);

void BM_BatchedLines(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto plan = psdns::fft::get_plan(n);
  psdns::util::Rng rng(6);
  std::vector<Complex> x(n * n);
  for (auto& c : x) c = Complex{rng.gaussian(), rng.gaussian()};
  const BatchLayout layout{.count = n, .stride = n, .dist = 1};
  for (auto _ : state) {
    plan->transform_batch(Direction::Forward, x.data(), x.data(), layout);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n * n));
}
BENCHMARK(BM_BatchedLines)->Arg(64)->Arg(256)->Arg(1024);

// Worker-pool scaling of the batched path: same plane of lines as
// BM_BatchedLines, swept over pool widths. The pool is resized outside the
// timing loop and restored afterwards so the other benches keep running at
// the PSDNS_THREADS-configured width.
void BM_BatchedLinesThreads(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  auto& pool = psdns::util::ThreadPool::global();
  const int prev = pool.threads();
  pool.set_threads(threads);
  const auto plan = psdns::fft::get_plan(n);
  psdns::util::Rng rng(6);
  std::vector<Complex> x(n * n);
  for (auto& c : x) c = Complex{rng.gaussian(), rng.gaussian()};
  const BatchLayout layout{.count = n, .stride = n, .dist = 1};
  for (auto _ : state) {
    plan->transform_batch(Direction::Forward, x.data(), x.data(), layout);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n * n));
  pool.set_threads(prev);
}
BENCHMARK(BM_BatchedLinesThreads)
    ->Args({1024, 1})
    ->Args({1024, 2})
    ->Args({1024, 4});

// One field's x and y passes on one of two slab ranks at N = 128, timed in
// the same binary so their ratio is a machine-independent figure. The x
// pass takes n*n/2 unit-stride real lines (in_dist n) into n/2+1
// coefficients each (out_dist n/2+1); the y pass moves the same complex
// bytes as n/2 planes of n/2+1 lines at stride n/2+1 (dist 1).
std::size_t slab_rank_lines(std::size_t n) { return n * n / 2; }

void BM_R2CBatch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t h = n / 2 + 1, lines = slab_rank_lines(n);
  const auto plan = psdns::fft::get_plan_r2c(n);
  psdns::util::Rng rng(7);
  std::vector<Real> x(n * lines);
  std::vector<Complex> y(h * lines);
  for (auto& v : x) v = rng.gaussian();
  for (auto _ : state) {
    plan->forward_batch(x.data(), n, y.data(), h, lines);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n * lines));
}
BENCHMARK(BM_R2CBatch)->Arg(128);

void BM_C2RBatch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t h = n / 2 + 1, lines = slab_rank_lines(n);
  const auto plan = psdns::fft::get_plan_r2c(n);
  psdns::util::Rng rng(8);
  std::vector<Complex> y(h * lines);
  std::vector<Real> x(n * lines);
  for (auto& c : y) c = Complex{rng.gaussian(), rng.gaussian()};
  for (auto _ : state) {
    plan->inverse_batch(y.data(), h, x.data(), n, lines);
    benchmark::DoNotOptimize(x.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n * lines));
}
BENCHMARK(BM_C2RBatch)->Arg(128);

void BM_C2CPlane(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t h = n / 2 + 1, planes = n / 2;
  const auto plan = psdns::fft::get_plan(n);
  psdns::util::Rng rng(9);
  std::vector<Complex> x(h * n * planes);
  for (auto& c : x) c = Complex{rng.gaussian(), rng.gaussian()};
  const BatchLayout layout{.count = h, .stride = h, .dist = 1};
  for (auto _ : state) {
    for (std::size_t p = 0; p < planes; ++p) {
      Complex* base = x.data() + h * n * p;
      plan->transform_batch(Direction::Forward, base, base, layout);
    }
    benchmark::DoNotOptimize(x.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n * slab_rank_lines(n)));
}
BENCHMARK(BM_C2CPlane)->Arg(128);

void BM_Fft3dR2C(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  psdns::fft::Shape3 shape{n, n, n};
  psdns::util::Rng rng(5);
  std::vector<Real> x(shape.volume());
  std::vector<Complex> y((n / 2 + 1) * n * n);
  for (auto& v : x) v = rng.gaussian();
  for (auto _ : state) {
    psdns::fft::fft3d_r2c(shape, x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(shape.volume()));
}
BENCHMARK(BM_Fft3dR2C)->Arg(16)->Arg(32)->Arg(64);

}  // namespace

int main(int argc, char** argv) {
  return psdns::bench::run_benchmarks_with_report(argc, argv, "micro_fft",
                                                  /*input_seed=*/1);
}
