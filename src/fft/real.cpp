#include "fft/real.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <numbers>
#include <vector>

#include "fft/stockham.hpp"
#include "obs/log.hpp"
#include "obs/registry.hpp"
#include "util/arena.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace psdns::fft {

namespace {

// Per-thread scratch shared by all real plans, checked out of the
// workspace arena so it participates in the arena's peak accounting: the
// r2c/c2r paths run once per grid line in the DNS, so per-call allocation
// would dominate.
util::WorkspaceArena::Handle<Complex>& scratch(std::size_t slot,
                                               std::size_t n) {
  thread_local util::WorkspaceArena::Handle<Complex> buf[2];
  buf[slot].ensure(n);
  return buf[slot];
}

// Ping-pong staging for the batched paths (separate from scratch(): the
// per-line fallbacks this file keeps use scratch() internally).
util::WorkspaceArena::Handle<Complex>& batch_scratch(std::size_t slot,
                                                     std::size_t n) {
  thread_local util::WorkspaceArena::Handle<Complex> buf[2];
  buf[slot].ensure(n);
  return buf[slot];
}

// Lines per block of the batched real paths: small enough that the two
// half-length staging buffers (8 KiB each) stay L1-resident, so the pack,
// the half-length stages and the unravel all run out of L1 while the user
// lines stream through once; 8 to 64 lines, as for batch_block_lines.
std::size_t real_block_lines(std::size_t h) {
  constexpr std::size_t kStageBytes = std::size_t{1} << 13;
  return std::clamp<std::size_t>(kStageBytes / (sizeof(Complex) * h), 8, 64);
}

// (Re c, Re c) at [k], (Im c, Im c) at [h + 1 + k] for c = f(omega[k]).
template <class F>
std::vector<Complex> pack_twiddles(const std::vector<Complex>& omega, F f) {
  const std::size_t m = omega.size();
  std::vector<Complex> tw(2 * m);
  for (std::size_t k = 0; k < m; ++k) {
    const Complex c = f(omega[k]);
    tw[k] = Complex{c.real(), c.real()};
    tw[m + k] = Complex{c.imag(), c.imag()};
  }
  return tw;
}

}  // namespace

PlanR2C::PlanR2C(std::size_t n) : n_(n) {
  PSDNS_REQUIRE(n >= 2, "real transform length must be >= 2");
  if (n % 2 == 0) {
    half_ = get_plan(n / 2);
    const std::size_t h = n / 2;
    omega_.resize(h + 1);
    const double base = -2.0 * std::numbers::pi / static_cast<double>(n);
    for (std::size_t k = 0; k <= h; ++k) {
      const double phase = base * static_cast<double>(k);
      omega_[k] = Complex{std::cos(phase), std::sin(phase)};
    }
    unravel_tw_ = pack_twiddles(omega_, [](Complex w) {
      return Complex{0.5 * w.imag(), -0.5 * w.real()};  // -i w / 2
    });
    recover_tw_ = pack_twiddles(omega_, [](Complex w) {
      return Complex{0.5 * w.imag(), 0.5 * w.real()};  // i conj(w) / 2
    });
  } else {
    full_ = get_plan(n);
  }
}

void PlanR2C::forward(const Real* in, Complex* out) const {
  if (n_ % 2 != 0) {
    auto& tmp_in = scratch(0, n_);
    auto& tmp_out = scratch(1, n_);
    for (std::size_t j = 0; j < n_; ++j) tmp_in[j] = Complex{in[j], 0.0};
    full_->transform(Direction::Forward, tmp_in.data(), tmp_out.data());
    for (std::size_t k = 0; k < spectrum_size(); ++k) out[k] = tmp_out[k];
    return;
  }

  const std::size_t h = n_ / 2;
  // Pack adjacent real pairs into h complex samples and take one half-length
  // complex transform.
  auto& z = scratch(0, h);
  auto& zf = scratch(1, h);
  for (std::size_t j = 0; j < h; ++j) {
    z[j] = Complex{in[2 * j], in[2 * j + 1]};
  }
  half_->transform(Direction::Forward, z.data(), zf.data());

  // Unravel: A[k] = FFT(even samples), B[k] = FFT(odd samples);
  // X[k] = A[k] + w^k B[k] with w = exp(-2*pi*i/n).
  const Complex i_unit{0.0, 1.0};
  for (std::size_t k = 0; k <= h; ++k) {
    const Complex zk = k == h ? zf[0] : zf[k];
    const Complex zmk = std::conj(zf[(h - k) % h]);
    const Complex a = 0.5 * (zk + zmk);
    const Complex b = (zk - zmk) / (2.0 * i_unit);
    out[k] = a + omega_[k] * b;
  }
}

void PlanR2C::inverse(const Complex* in, Real* out) const {
  if (n_ % 2 != 0) {
    // Expand conjugate-symmetric spectrum and use the full complex plan.
    auto& spec = scratch(0, n_);
    auto& tmp = scratch(1, n_);
    for (std::size_t k = 0; k < spectrum_size(); ++k) spec[k] = in[k];
    for (std::size_t k = spectrum_size(); k < n_; ++k) {
      spec[k] = std::conj(in[n_ - k]);
    }
    full_->transform(Direction::Inverse, spec.data(), tmp.data());
    for (std::size_t j = 0; j < n_; ++j) out[j] = tmp[j].real();
    return;
  }

  const std::size_t h = n_ / 2;
  // Recover the packed half-length spectrum: Z[k] = A[k] + i*B[k] with
  // A[k] = (X[k] + conj(X[h-k]))/2, B[k] = (X[k] - conj(X[h-k])) * wbar^k / 2.
  auto& z = scratch(0, h);
  auto& zt = scratch(1, h);
  const Complex i_unit{0.0, 1.0};
  for (std::size_t k = 0; k < h; ++k) {
    const Complex xk = in[k];
    const Complex xmk = std::conj(in[h - k]);
    const Complex a = 0.5 * (xk + xmk);
    const Complex b = 0.5 * (xk - xmk) * std::conj(omega_[k]);
    z[k] = a + i_unit * b;
  }
  half_->transform(Direction::Inverse, z.data(), zt.data());
  // The half-length unnormalized inverse carries a factor h; the FFTW c2r
  // convention wants a factor n = 2h, hence the extra 2.
  for (std::size_t j = 0; j < h; ++j) {
    out[2 * j] = 2.0 * zt[j].real();
    out[2 * j + 1] = 2.0 * zt[j].imag();
  }
}

void PlanR2C::forward_batch(const Real* in, std::size_t in_dist, Complex* out,
                            std::size_t out_dist, std::size_t count) const {
  const StockhamEngine* eng = n_ % 2 == 0 ? half_->stockham() : nullptr;
  if (!eng) {
    for (std::size_t b = 0; b < count; ++b) {
      forward(in + b * in_dist, out + b * out_dist);
    }
    return;
  }

  const std::size_t h = n_ / 2;
  const std::size_t bmax = real_block_lines(h);
  const std::size_t blocks = (count + bmax - 1) / bmax;
  const detail::RealPassKernels& kern = detail::real_pass_kernels();

  // Blocks stripe across the worker pool; per-thread staging keeps them
  // independent and the fixed bmax partition keeps results bitwise identical
  // at any thread count (see PlanC2C::transform_batch).
  util::ThreadPool::global().parallel_for(
      "fft.r2c.batch", 0, blocks, [&](std::size_t blk) {
        const std::size_t b0 = blk * bmax;
        const std::size_t nb = std::min(bmax, count - b0);
        Complex* stage0 = batch_scratch(0, bmax * h).data();
        Complex* stage1 = batch_scratch(1, bmax * h).data();
        // Pack adjacent real pairs batch-innermost, take the half-length
        // transforms, unravel the spectra back into the user lines.
        kern.r2c_pack(in + b0 * in_dist, in_dist, h, nb,
                      eng->prefers_work_input() ? stage1 : stage0);
        eng->execute_batch(Direction::Forward, stage0, stage1, nb);
        kern.r2c_unravel(stage0, unravel_tw_.data(), h, nb,
                         out + b0 * out_dist, out_dist);
      });
}

void PlanR2C::inverse_batch(const Complex* in, std::size_t in_dist, Real* out,
                            std::size_t out_dist, std::size_t count) const {
  const StockhamEngine* eng = n_ % 2 == 0 ? half_->stockham() : nullptr;
  if (!eng) {
    for (std::size_t b = 0; b < count; ++b) {
      inverse(in + b * in_dist, out + b * out_dist);
    }
    return;
  }

  const std::size_t h = n_ / 2;
  const std::size_t bmax = real_block_lines(h);
  const std::size_t blocks = (count + bmax - 1) / bmax;
  const detail::RealPassKernels& kern = detail::real_pass_kernels();

  util::ThreadPool::global().parallel_for(
      "fft.r2c.batch", 0, blocks, [&](std::size_t blk) {
        const std::size_t b0 = blk * bmax;
        const std::size_t nb = std::min(bmax, count - b0);
        Complex* stage0 = batch_scratch(0, bmax * h).data();
        Complex* stage1 = batch_scratch(1, bmax * h).data();
        kern.c2r_recover(in + b0 * in_dist, in_dist, recover_tw_.data(), h,
                         nb, eng->prefers_work_input() ? stage1 : stage0);
        eng->execute_batch(Direction::Inverse, stage0, stage1, nb);
        kern.c2r_scatter(stage0, h, nb, out + b0 * out_dist, out_dist);
      });
}

std::shared_ptr<const PlanR2C> get_plan_r2c(std::size_t n) {
  static std::mutex mutex;
  static std::map<std::size_t, std::shared_ptr<const PlanR2C>> cache;
  std::lock_guard lock(mutex);
  auto& slot = cache[n];
  if (!slot) {
    obs::registry().counter_add("fft.plan_cache.miss");
    obs::log_event(obs::LogLevel::Debug, "fft", "r2c plan cache miss",
                   {{"n", n}});
    slot = std::make_shared<const PlanR2C>(n);
  } else {
    obs::registry().counter_add("fft.plan_cache.hit");
  }
  return slot;
}

}  // namespace psdns::fft
