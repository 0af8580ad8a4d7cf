#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <vector>

#include "fft/bluestein.hpp"
#include "fft/dft.hpp"
#include "fft/factor.hpp"
#include "fft/fft3d.hpp"
#include "fft/mixed_radix.hpp"
#include "fft/plan.hpp"
#include "fft/real.hpp"
#include "fft/stockham.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace psdns::fft {
namespace {

std::vector<Complex> random_signal(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Complex> v(n);
  for (auto& c : v) c = Complex{rng.gaussian(), rng.gaussian()};
  return v;
}

double max_abs_diff(const std::vector<Complex>& a,
                    const std::vector<Complex>& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a[i] - b[i]));
  }
  return m;
}

TEST(Factor, PrimeFactors) {
  EXPECT_EQ(prime_factors(1), std::vector<std::size_t>{});
  EXPECT_EQ(prime_factors(12), (std::vector<std::size_t>{2, 2, 3}));
  EXPECT_EQ(prime_factors(18432),
            (std::vector<std::size_t>{2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 3, 3}));
  EXPECT_EQ(prime_factors(97), std::vector<std::size_t>{97});
}

TEST(Factor, Smoothness) {
  EXPECT_TRUE(is_smooth(18432));
  EXPECT_TRUE(is_smooth(360));
  EXPECT_FALSE(is_smooth(97));
  EXPECT_FALSE(is_smooth(2 * 23));
}

TEST(Factor, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1023), 1024u);
}

// --- parameterized sweep over transform lengths ---

class C2CLength : public ::testing::TestWithParam<std::size_t> {};

TEST_P(C2CLength, MatchesReferenceDft) {
  const std::size_t n = GetParam();
  const auto x = random_signal(n, 100 + n);
  std::vector<Complex> want(n), got(n);
  dft_reference(Direction::Forward, n, x.data(), want.data());
  PlanC2C plan(n);
  plan.transform(Direction::Forward, x.data(), got.data());
  EXPECT_LT(max_abs_diff(want, got), 1e-9 * static_cast<double>(n))
      << "n=" << n;
}

TEST_P(C2CLength, InverseMatchesReferenceDft) {
  const std::size_t n = GetParam();
  const auto x = random_signal(n, 200 + n);
  std::vector<Complex> want(n), got(n);
  dft_reference(Direction::Inverse, n, x.data(), want.data());
  PlanC2C plan(n);
  plan.transform(Direction::Inverse, x.data(), got.data());
  EXPECT_LT(max_abs_diff(want, got), 1e-9 * static_cast<double>(n));
}

TEST_P(C2CLength, RoundTripRecoversInput) {
  const std::size_t n = GetParam();
  const auto x = random_signal(n, 300 + n);
  std::vector<Complex> f(n), back(n);
  PlanC2C plan(n);
  plan.transform(Direction::Forward, x.data(), f.data());
  plan.transform(Direction::Inverse, f.data(), back.data());
  plan.normalize(back.data(), n);
  EXPECT_LT(max_abs_diff(x, back), 1e-10 * static_cast<double>(n));
}

TEST_P(C2CLength, ParsevalHolds) {
  const std::size_t n = GetParam();
  const auto x = random_signal(n, 400 + n);
  std::vector<Complex> f(n);
  PlanC2C plan(n);
  plan.transform(Direction::Forward, x.data(), f.data());
  double phys = 0.0, spec = 0.0;
  for (const auto& c : x) phys += std::norm(c);
  for (const auto& c : f) spec += std::norm(c);
  EXPECT_NEAR(spec, phys * static_cast<double>(n),
              1e-8 * phys * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(
    Lengths, C2CLength,
    ::testing::Values(1, 2, 3, 4, 5, 6, 8, 9, 12, 15, 16, 17, 24, 27, 30, 32,
                      36, 48, 60, 64, 97, 100, 128, 144, 192, 210, 243, 256,
                      360, 512),
    [](const ::testing::TestParamInfo<std::size_t>& pinfo) { return "n" + std::to_string(pinfo.param); });

TEST(C2C, InPlaceTransformAllowed) {
  const std::size_t n = 64;
  auto x = random_signal(n, 1);
  std::vector<Complex> want(n);
  PlanC2C plan(n);
  plan.transform(Direction::Forward, x.data(), want.data());
  plan.transform(Direction::Forward, x.data(), x.data());
  EXPECT_LT(max_abs_diff(want, x), 1e-12);
}

TEST(C2C, SingleFrequencyIsDelta) {
  const std::size_t n = 48;
  std::vector<Complex> x(n), f(n);
  const double k0 = 5.0;
  for (std::size_t j = 0; j < n; ++j) {
    const double phase =
        2.0 * std::numbers::pi * k0 * static_cast<double>(j) / n;
    x[j] = Complex{std::cos(phase), std::sin(phase)};
  }
  PlanC2C plan(n);
  plan.transform(Direction::Forward, x.data(), f.data());
  for (std::size_t k = 0; k < n; ++k) {
    const double want = k == 5 ? static_cast<double>(n) : 0.0;
    EXPECT_NEAR(std::abs(f[k]), want, 1e-9) << "k=" << k;
  }
}

TEST(C2C, StridedMatchesContiguous) {
  const std::size_t n = 36, stride = 7;
  const auto x = random_signal(n * stride, 2);
  std::vector<Complex> want(n), got_buf(n * stride, Complex{-1, -1});
  std::vector<Complex> gathered(n);
  for (std::size_t j = 0; j < n; ++j) gathered[j] = x[j * stride];
  PlanC2C plan(n);
  plan.transform(Direction::Forward, gathered.data(), want.data());
  plan.transform_strided(Direction::Forward, x.data(),
                         static_cast<std::ptrdiff_t>(stride), got_buf.data(),
                         static_cast<std::ptrdiff_t>(stride));
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_LT(std::abs(got_buf[k * stride] - want[k]), 1e-12);
  }
}

TEST(C2C, BatchedMatchesLoop) {
  const std::size_t n = 32, count = 5;
  auto x = random_signal(n * count, 3);
  auto want = x;
  PlanC2C plan(n);
  for (std::size_t b = 0; b < count; ++b) {
    plan.transform(Direction::Forward, want.data() + b * n,
                   want.data() + b * n);
  }
  plan.transform_batch(Direction::Forward, x.data(), x.data(),
                       BatchLayout{.count = count, .stride = 1, .dist = n});
  EXPECT_LT(max_abs_diff(want, x), 1e-12);
}

TEST(C2C, BatchedStridedLayout) {
  // Lines of length 16 interleaved with stride 4 (like y-lines in a plane).
  const std::size_t n = 16, stride = 4;
  auto x = random_signal(n * stride, 4);
  auto want = x;
  PlanC2C plan(n);
  for (std::size_t b = 0; b < stride; ++b) {
    plan.transform_strided(Direction::Forward, want.data() + b,
                           static_cast<std::ptrdiff_t>(stride),
                           want.data() + b, static_cast<std::ptrdiff_t>(stride));
  }
  plan.transform_batch(Direction::Forward, x.data(), x.data(),
                       BatchLayout{.count = stride, .stride = stride, .dist = 1});
  EXPECT_LT(max_abs_diff(want, x), 1e-12);
}

// --- batched Stockham engine ---

// Engine-level check against the naive DFT: every supported radix alone and
// mixed, across batch widths that straddle the blocking boundaries.
TEST(Stockham, MatchesReferenceAcrossRadicesAndBatches) {
  // Pure radices 2/3/4/5/7 and mixed smooth sizes (including the paper's
  // 2^a*3^b family and 5- and 7-smooth lengths).
  const std::size_t sizes[] = {1,  2,  3,  4,  5,   7,   8,   9,  16, 25,
                               27, 35, 48, 49, 60,  72,  105, 96, 144, 210,
                               243, 360, 512, 576, 1155};
  for (const std::size_t n : sizes) {
    const std::size_t kb = batch_block_lines(n);
    const std::size_t batches[] = {1, kb - 1, kb, kb + 1, 5};
    StockhamEngine engine(n);
    for (const std::size_t batch : batches) {
      std::vector<Complex> data(n * batch), work(n * batch);
      std::vector<std::vector<Complex>> lines(batch);
      util::Rng rng(1000 + n + batch);
      for (std::size_t b = 0; b < batch; ++b) {
        lines[b].resize(n);
        for (std::size_t j = 0; j < n; ++j) {
          lines[b][j] = Complex{rng.gaussian(), rng.gaussian()};
          // Batch-innermost layout: element j of line b at [b + batch*j].
          (engine.prefers_work_input() ? work : data)[b + batch * j] =
              lines[b][j];
        }
      }
      for (const Direction dir : {Direction::Forward, Direction::Inverse}) {
        auto d = data, w = work;
        engine.execute_batch(dir, d.data(), w.data(), batch);
        double scale = 0.0;
        for (std::size_t b = 0; b < batch; ++b) {
          std::vector<Complex> want(n);
          dft_reference(dir, n, lines[b].data(), want.data());
          for (std::size_t k = 0; k < n; ++k) {
            scale = std::max(scale, std::abs(want[k]));
          }
          for (std::size_t k = 0; k < n; ++k) {
            EXPECT_LT(std::abs(d[b + batch * k] - want[k]), 1e-12 * scale)
                << "n=" << n << " batch=" << batch << " b=" << b
                << " k=" << k;
          }
        }
      }
    }
  }
}

TEST(Stockham, BatchedTransformMatchesPerLineStrided) {
  // transform_batch (gather -> batched engine -> scatter) against the
  // pre-change per-line strided path, smooth and Bluestein lengths.
  for (const std::size_t n : {48u, 97u}) {
    const std::size_t kb = batch_block_lines(n);
    for (const std::size_t count : {std::size_t{1}, kb - 1, kb, kb + 1,
                                    std::size_t{7}}) {
      // Lines adjacent in memory (dist 1), elements strided by count: the
      // z-line layout of a plane.
      auto x = random_signal(n * count, 40 + n + count);
      auto want = x;
      PlanC2C plan(n);
      for (std::size_t b = 0; b < count; ++b) {
        plan.transform_strided(Direction::Forward, want.data() + b,
                               static_cast<std::ptrdiff_t>(count),
                               want.data() + b,
                               static_cast<std::ptrdiff_t>(count));
      }
      plan.transform_batch(
          Direction::Forward, x.data(), x.data(),
          BatchLayout{.count = count, .stride = count, .dist = 1});
      double scale = 0.0;
      for (const auto& c : want) scale = std::max(scale, std::abs(c));
      EXPECT_LT(max_abs_diff(want, x), 1e-12 * scale)
          << "n=" << n << " count=" << count;
    }
  }
}

TEST(Stockham, GatherScatterRoundTripLeavesGapsUntouched) {
  // Lines covering only residues 0 and 1 of a stride-4 layout: a
  // forward+inverse round trip must recover the lines and never write the
  // sentinel gaps.
  const std::size_t n = 24, stride = 4, count = 2;
  const Complex sentinel{-7.0, 13.0};
  std::vector<Complex> buf(n * stride, sentinel);
  util::Rng rng(77);
  for (std::size_t b = 0; b < count; ++b) {
    for (std::size_t j = 0; j < n; ++j) {
      buf[b + j * stride] = Complex{rng.gaussian(), rng.gaussian()};
    }
  }
  const auto orig = buf;
  PlanC2C plan(n);
  const BatchLayout layout{.count = count, .stride = stride, .dist = 1};
  plan.transform_batch(Direction::Forward, buf.data(), buf.data(), layout);
  plan.transform_batch(Direction::Inverse, buf.data(), buf.data(), layout);
  for (std::size_t idx = 0; idx < buf.size(); ++idx) {
    if (idx % stride < count) {
      EXPECT_LT(std::abs(buf[idx] / static_cast<double>(n) - orig[idx]),
                1e-12)
          << idx;
    } else {
      EXPECT_EQ(buf[idx], sentinel) << idx;  // gap must be bit-identical
    }
  }
}

// The generic-radix combine of the recursive engine (now reached via
// transform_strided and Bluestein) against the reference, exercising the
// precomputed radix-r DFT rows for r in {5, 7, 11, 13, 17, 19}.
TEST(MixedRadix, GenericRadixMatchesReference) {
  for (const std::size_t n : {5u, 7u, 11u, 13u, 17u, 19u, 55u, 91u, 133u,
                              323u}) {
    const auto x = random_signal(n, 900 + n);
    std::vector<Complex> want(n), got(n);
    MixedRadixEngine engine(n);
    for (const Direction dir : {Direction::Forward, Direction::Inverse}) {
      dft_reference(dir, n, x.data(), want.data());
      engine.execute(dir, x.data(), 1, got.data());
      EXPECT_LT(max_abs_diff(want, got), 1e-9 * static_cast<double>(n))
          << "n=" << n;
    }
  }
}

TEST(Bluestein, PrimeLengthMatchesReference) {
  for (const std::size_t n : {7u, 23u, 97u, 101u}) {
    const auto x = random_signal(n, 500 + n);
    std::vector<Complex> want(n), got(n);
    dft_reference(Direction::Forward, n, x.data(), want.data());
    BluesteinEngine engine(n);
    engine.execute(Direction::Forward, x.data(), 1, got.data());
    EXPECT_LT(max_abs_diff(want, got), 1e-8) << "n=" << n;
  }
}

TEST(PlanCache, ReturnsSharedInstance) {
  const auto a = get_plan(64);
  const auto b = get_plan(64);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_NE(get_plan(128).get(), a.get());
}

// --- real transforms ---

class R2CLength : public ::testing::TestWithParam<std::size_t> {};

TEST_P(R2CLength, ForwardMatchesComplexDft) {
  const std::size_t n = GetParam();
  util::Rng rng(600 + n);
  std::vector<Real> x(n);
  for (auto& v : x) v = rng.gaussian();
  std::vector<Complex> full_in(n), want(n);
  for (std::size_t j = 0; j < n; ++j) full_in[j] = Complex{x[j], 0.0};
  dft_reference(Direction::Forward, n, full_in.data(), want.data());

  PlanR2C plan(n);
  std::vector<Complex> got(plan.spectrum_size());
  plan.forward(x.data(), got.data());
  for (std::size_t k = 0; k < plan.spectrum_size(); ++k) {
    EXPECT_LT(std::abs(got[k] - want[k]), 1e-9 * static_cast<double>(n))
        << "n=" << n << " k=" << k;
  }
}

TEST_P(R2CLength, RoundTripScalesByN) {
  const std::size_t n = GetParam();
  util::Rng rng(700 + n);
  std::vector<Real> x(n), back(n);
  for (auto& v : x) v = rng.gaussian();
  PlanR2C plan(n);
  std::vector<Complex> spec(plan.spectrum_size());
  plan.forward(x.data(), spec.data());
  plan.inverse(spec.data(), back.data());
  for (std::size_t j = 0; j < n; ++j) {
    EXPECT_NEAR(back[j], x[j] * static_cast<double>(n),
                1e-9 * static_cast<double>(n));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Lengths, R2CLength,
    ::testing::Values(2, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 7, 9, 15),
    [](const ::testing::TestParamInfo<std::size_t>& pinfo) { return "n" + std::to_string(pinfo.param); });

TEST(R2C, NyquistAndMeanAreReal) {
  const std::size_t n = 32;
  util::Rng rng(8);
  std::vector<Real> x(n);
  for (auto& v : x) v = rng.gaussian();
  PlanR2C plan(n);
  std::vector<Complex> spec(plan.spectrum_size());
  plan.forward(x.data(), spec.data());
  EXPECT_NEAR(spec.front().imag(), 0.0, 1e-12);
  EXPECT_NEAR(spec.back().imag(), 0.0, 1e-12);
}

// Batched real transforms over padded line layouts: line b of the real side
// starts at b*(n+2), line b of the spectral side at b*(n/2+3).
struct PaddedRealBatch {
  std::size_t n, count, rdist, cdist;
  std::vector<Real> real;
  std::vector<Complex> spec;

  PaddedRealBatch(std::size_t len, std::size_t lines, std::uint64_t seed)
      : n(len), count(lines), rdist(len + 2), cdist(len / 2 + 3),
        real(lines * rdist), spec(lines * cdist) {
    util::Rng rng(seed);
    for (auto& v : real) v = rng.gaussian();
    for (auto& c : spec) c = Complex{rng.gaussian(), rng.gaussian()};
  }
};

constexpr Real kRealPad = -123.25;
const Complex kComplexPad{-7.5, 3.25};

TEST(R2C, BatchMatchesPerLine) {
  for (const std::size_t n : {2, 6, 8, 12, 48, 64, 96, 128, 7, 9}) {
    for (const std::size_t count : {1, 3, 63, 64, 65, 130}) {
      const PaddedRealBatch x(n, count, 31 * n + count);
      const PlanR2C plan(n);
      const std::size_t h = plan.spectrum_size();

      // Forward: every line against the per-line transform; the two
      // padding coefficients of every output line stay untouched.
      std::vector<Complex> got(count * x.cdist, kComplexPad);
      plan.forward_batch(x.real.data(), x.rdist, got.data(), x.cdist, count);
      std::vector<Complex> want(count * h);
      double scale = 1.0;
      for (std::size_t b = 0; b < count; ++b) {
        plan.forward(x.real.data() + b * x.rdist, want.data() + b * h);
      }
      for (const auto& c : want) scale = std::max(scale, std::abs(c));
      for (std::size_t b = 0; b < count; ++b) {
        for (std::size_t k = 0; k < x.cdist; ++k) {
          const Complex g = got[b * x.cdist + k];
          if (k < h) {
            ASSERT_LT(std::abs(g - want[b * h + k]), 1e-12 * scale)
                << "forward n=" << n << " count=" << count << " b=" << b
                << " k=" << k;
          } else {
            ASSERT_EQ(g, kComplexPad) << "forward pad n=" << n << " b=" << b;
          }
        }
      }

      // Inverse, with the spectra and reals in swapped roles.
      std::vector<Real> back(count * x.rdist, kRealPad);
      plan.inverse_batch(x.spec.data(), x.cdist, back.data(), x.rdist, count);
      std::vector<Real> ref(count * n);
      scale = 1.0;
      for (std::size_t b = 0; b < count; ++b) {
        plan.inverse(x.spec.data() + b * x.cdist, ref.data() + b * n);
      }
      for (const Real v : ref) scale = std::max(scale, std::abs(v));
      for (std::size_t b = 0; b < count; ++b) {
        for (std::size_t j = 0; j < x.rdist; ++j) {
          const Real g = back[b * x.rdist + j];
          if (j < n) {
            ASSERT_LT(std::abs(g - ref[b * n + j]), 1e-12 * scale)
                << "inverse n=" << n << " count=" << count << " b=" << b
                << " j=" << j;
          } else {
            ASSERT_EQ(g, kRealPad) << "inverse pad n=" << n << " b=" << b;
          }
        }
      }
    }
  }
}

// --- 3-D transforms ---

TEST(Fft3d, C2CRoundTrip) {
  const Shape3 shape{6, 4, 8};
  auto x = random_signal(shape.volume(), 10);
  auto data = x;
  fft3d_c2c(Direction::Forward, shape, data.data());
  fft3d_c2c(Direction::Inverse, shape, data.data());
  const double scale = static_cast<double>(shape.volume());
  double err = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    err = std::max(err, std::abs(data[i] / scale - x[i]));
  }
  EXPECT_LT(err, 1e-11);
}

TEST(Fft3d, C2CSingleModeIsDelta) {
  const Shape3 shape{8, 8, 8};
  std::vector<Complex> data(shape.volume());
  const int kx = 2, ky = 3, kz = 1;
  for (std::size_t k = 0; k < shape.nz; ++k) {
    for (std::size_t j = 0; j < shape.ny; ++j) {
      for (std::size_t i = 0; i < shape.nx; ++i) {
        const double phase =
            2.0 * std::numbers::pi *
            (kx * static_cast<double>(i) / shape.nx +
             ky * static_cast<double>(j) / shape.ny +
             kz * static_cast<double>(k) / shape.nz);
        data[i + shape.nx * (j + shape.ny * k)] =
            Complex{std::cos(phase), std::sin(phase)};
      }
    }
  }
  fft3d_c2c(Direction::Forward, shape, data.data());
  const std::size_t peak = kx + shape.nx * (ky + shape.ny * kz);
  for (std::size_t idx = 0; idx < data.size(); ++idx) {
    const double want =
        idx == peak ? static_cast<double>(shape.volume()) : 0.0;
    EXPECT_NEAR(std::abs(data[idx]), want, 1e-8);
  }
}

TEST(Fft3d, R2CRoundTrip) {
  const Shape3 shape{16, 6, 10};
  util::Rng rng(11);
  std::vector<Real> x(shape.volume());
  for (auto& v : x) v = rng.gaussian();
  std::vector<Complex> spec((shape.nx / 2 + 1) * shape.ny * shape.nz);
  std::vector<Real> back(shape.volume());
  fft3d_r2c(shape, x.data(), spec.data());
  fft3d_c2r(shape, spec.data(), back.data());
  const double scale = static_cast<double>(shape.volume());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(back[i] / scale, x[i], 1e-11);
  }
}

TEST(Fft3d, R2CMatchesC2COnRealInput) {
  const Shape3 shape{8, 4, 6};
  util::Rng rng(12);
  std::vector<Real> x(shape.volume());
  for (auto& v : x) v = rng.gaussian();
  std::vector<Complex> full(shape.volume());
  for (std::size_t i = 0; i < x.size(); ++i) full[i] = Complex{x[i], 0.0};
  fft3d_c2c(Direction::Forward, shape, full.data());

  const std::size_t nxh = shape.nx / 2 + 1;
  std::vector<Complex> spec(nxh * shape.ny * shape.nz);
  fft3d_r2c(shape, x.data(), spec.data());
  for (std::size_t k = 0; k < shape.nz; ++k) {
    for (std::size_t j = 0; j < shape.ny; ++j) {
      for (std::size_t i = 0; i < nxh; ++i) {
        EXPECT_LT(std::abs(spec[i + nxh * (j + shape.ny * k)] -
                           full[i + shape.nx * (j + shape.ny * k)]),
                  1e-9);
      }
    }
  }
}

// Batched 3-D transforms against the pre-change per-line path (rebuilt here
// from the single-line primitives) and the r2c -> c2r identity.
class Fft3dBatched : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Fft3dBatched, R2CMatchesPerLinePathAndRoundTrips) {
  const std::size_t n = GetParam();
  const Shape3 shape{n, n, n};
  const std::size_t nxh = n / 2 + 1;
  util::Rng rng(5000 + n);
  std::vector<Real> x(shape.volume());
  for (auto& v : x) v = rng.gaussian();

  // Pre-change reference: per-line r2c in x, then per-line strided y and z.
  const auto prx = get_plan_r2c(n);
  const auto p = get_plan(n);
  std::vector<Complex> want(nxh * n * n);
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t j = 0; j < n; ++j) {
      prx->forward(x.data() + n * (j + n * k), want.data() + nxh * (j + n * k));
    }
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < nxh; ++i) {
      Complex* line = want.data() + i + nxh * n * k;
      p->transform_strided(Direction::Forward, line,
                           static_cast<std::ptrdiff_t>(nxh), line,
                           static_cast<std::ptrdiff_t>(nxh));
    }
  }
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < nxh; ++i) {
      Complex* line = want.data() + i + nxh * j;
      p->transform_strided(Direction::Forward, line,
                           static_cast<std::ptrdiff_t>(nxh * n), line,
                           static_cast<std::ptrdiff_t>(nxh * n));
    }
  }

  std::vector<Complex> got(nxh * n * n);
  fft3d_r2c(shape, x.data(), got.data());
  double scale = 0.0;
  for (const auto& c : want) scale = std::max(scale, std::abs(c));
  EXPECT_LT(max_abs_diff(want, got), 1e-12 * scale) << "n=" << n;

  // c2r(r2c(x)) == volume * x to the same relative tolerance.
  std::vector<Real> back(shape.volume());
  fft3d_c2r(shape, got.data(), back.data());
  const double vol = static_cast<double>(shape.volume());
  double err = 0.0, ref = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    err = std::max(err, std::abs(back[i] / vol - x[i]));
    ref = std::max(ref, std::abs(x[i]));
  }
  EXPECT_LT(err, 1e-12 * ref * vol) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, Fft3dBatched,
                         ::testing::Values(16, 24, 32),
                         [](const ::testing::TestParamInfo<std::size_t>& pinfo) {
                           return "n" + std::to_string(pinfo.param);
                         });

// --- SIMD backend dispatch ---

// Restores the dispatched kernel backend (and with it the documented
// env/CPUID selection order) no matter how the test exits.
class BackendGuard {
 public:
  BackendGuard() : saved_(util::simd::active_backend()) {}
  ~BackendGuard() { util::simd::set_backend(saved_); }

 private:
  util::simd::Backend saved_;
};

// Runs a batched transform of `count` lines of length n under the given
// backend; plane layout (dist 1) to cover the fused gather-free path, and
// both directions to cover the inverse butterflies.
std::vector<Complex> batch_under_backend(util::simd::Backend backend,
                                         std::size_t n, std::size_t count,
                                         Direction dir) {
  util::simd::set_backend(backend);
  auto x = random_signal(n * count, 77);
  PlanC2C plan(n);
  plan.transform_batch(dir, x.data(), x.data(),
                       BatchLayout{.count = count, .stride = count, .dist = 1});
  return x;
}

TEST(Simd, BackendsAgreeAcrossRadicesAndBatches) {
  if (!util::simd::avx2_supported()) {
    GTEST_SKIP() << "no AVX2+FMA kernel on this build/CPU";
  }
  BackendGuard guard;
  // Lengths hit every dedicated butterfly (2/3/4), the generic direct-prime
  // rows (5, 7, 11), mixed schedules, and the Bluestein fallback (97, 101);
  // counts 1 and odd values exercise the scalar remainder tail of every
  // AVX2 sweep plus blocking-boundary block shapes.
  const std::size_t lengths[] = {2, 3, 4, 5, 7, 8, 9, 11, 12, 16, 25,
                                 27, 49, 60, 64, 97, 101, 121, 210, 256};
  const std::size_t counts[] = {1, 3, 7, 13, 33};
  for (const std::size_t n : lengths) {
    for (const std::size_t count : counts) {
      for (const Direction dir : {Direction::Forward, Direction::Inverse}) {
        const auto scalar =
            batch_under_backend(util::simd::Backend::Scalar, n, count, dir);
        const auto avx2 =
            batch_under_backend(util::simd::Backend::Avx2, n, count, dir);
        double scale = 1.0;
        for (const auto& c : scalar) scale = std::max(scale, std::abs(c));
        EXPECT_LT(max_abs_diff(scalar, avx2), 1e-12 * scale)
            << "n=" << n << " count=" << count
            << " dir=" << (dir == Direction::Forward ? "fwd" : "inv");
      }
    }
  }
}

TEST(Simd, BackendsAgreeOnReal3d) {
  if (!util::simd::avx2_supported()) {
    GTEST_SKIP() << "no AVX2+FMA kernel on this build/CPU";
  }
  BackendGuard guard;
  const std::size_t n = 24;
  const Shape3 shape{n, n, n};
  util::Rng rng(5);
  std::vector<Real> x(shape.volume());
  for (auto& v : x) v = rng.gaussian();
  std::vector<Complex> a((n / 2 + 1) * n * n), b(a.size());
  util::simd::set_backend(util::simd::Backend::Scalar);
  fft3d_r2c(shape, x.data(), a.data());
  util::simd::set_backend(util::simd::Backend::Avx2);
  fft3d_r2c(shape, x.data(), b.data());
  double scale = 0.0;
  for (const auto& c : a) scale = std::max(scale, std::abs(c));
  EXPECT_LT(max_abs_diff(a, b), 1e-12 * scale);
}

TEST(Simd, BackendsAgreeOnRealBatch) {
  if (!util::simd::avx2_supported()) {
    GTEST_SKIP() << "no AVX2+FMA kernel on this build/CPU";
  }
  BackendGuard guard;
  // Line counts below, at and across a block; lengths whose half is odd
  // exercise the scalar remainder after the full packs.
  for (const std::size_t n : {2, 6, 8, 12, 64, 96, 128}) {
    for (const std::size_t count : {1, 3, 65, 130}) {
      const PaddedRealBatch x(n, count, 17 * n + count);
      const PlanR2C plan(n);
      std::vector<Complex> fwd[2];
      std::vector<Real> inv[2];
      for (const auto backend :
           {util::simd::Backend::Scalar, util::simd::Backend::Avx2}) {
        util::simd::set_backend(backend);
        const auto i = static_cast<std::size_t>(backend);
        fwd[i].assign(count * x.cdist, kComplexPad);
        inv[i].assign(count * x.rdist, kRealPad);
        plan.forward_batch(x.real.data(), x.rdist, fwd[i].data(), x.cdist,
                           count);
        plan.inverse_batch(x.spec.data(), x.cdist, inv[i].data(), x.rdist,
                           count);
      }
      double fscale = 1.0, iscale = 1.0;
      for (const auto& c : fwd[0]) fscale = std::max(fscale, std::abs(c));
      for (const Real v : inv[0]) iscale = std::max(iscale, std::abs(v));
      EXPECT_LT(max_abs_diff(fwd[0], fwd[1]), 1e-12 * fscale)
          << "forward n=" << n << " count=" << count;
      double idiff = 0.0;
      for (std::size_t j = 0; j < inv[0].size(); ++j) {
        idiff = std::max(idiff, std::abs(inv[0][j] - inv[1][j]));
      }
      EXPECT_LT(idiff, 1e-12 * iscale) << "inverse n=" << n
                                       << " count=" << count;
    }
  }
}

// --- worker-pool determinism ---

// The block partition and stripe->thread binding are pure functions of the
// loop bounds, so a pooled run must be bitwise identical to the inline one.
TEST(ThreadedBatch, PooledTransformsBitwiseMatchInline) {
  auto& pool = util::ThreadPool::global();
  const int prev = pool.threads();
  const std::size_t n = 64;
  const auto x = random_signal(n * n, 11);
  PlanC2C plan(n);
  const BatchLayout layout{.count = n, .stride = n, .dist = 1};

  pool.set_threads(1);
  auto inline_out = x;
  plan.transform_batch(Direction::Forward, inline_out.data(),
                       inline_out.data(), layout);
  pool.set_threads(4);
  auto pooled_out = x;
  plan.transform_batch(Direction::Forward, pooled_out.data(),
                       pooled_out.data(), layout);
  pool.set_threads(prev);

  for (std::size_t i = 0; i < inline_out.size(); ++i) {
    ASSERT_EQ(inline_out[i], pooled_out[i]) << "i=" << i;
  }
}

TEST(ThreadedBatch, PooledReal3dBitwiseMatchesInline) {
  auto& pool = util::ThreadPool::global();
  const int prev = pool.threads();
  const std::size_t n = 32;
  const Shape3 shape{n, n, n};
  util::Rng rng(9);
  std::vector<Real> x(shape.volume());
  for (auto& v : x) v = rng.gaussian();
  std::vector<Complex> a((n / 2 + 1) * n * n), b(a.size());

  pool.set_threads(1);
  fft3d_r2c(shape, x.data(), a.data());
  pool.set_threads(4);
  fft3d_r2c(shape, x.data(), b.data());
  pool.set_threads(prev);

  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "i=" << i;
  }
}

}  // namespace
}  // namespace psdns::fft
