#pragma once
// Real <-> complex 1-D transforms using the half-length complex trick for
// even lengths (the DNS takes complex-to-real transforms in the unit-stride x
// direction, exactly as Sec. 3.3 of the paper describes).
//
// Conventions match FFTW: forward(x) yields the first n/2+1 coefficients of
// the DFT of x; inverse is unnormalized, so inverse(forward(x)) == n * x.

#include <cstddef>
#include <memory>
#include <vector>

#include "fft/plan.hpp"
#include "fft/types.hpp"

namespace psdns::fft {

class PlanR2C {
 public:
  explicit PlanR2C(std::size_t n);

  std::size_t size() const { return n_; }
  std::size_t spectrum_size() const { return n_ / 2 + 1; }

  /// out[k], k in [0, n/2], = sum_j in[j] exp(-2*pi*i*j*k/n). Out-of-place.
  void forward(const Real* in, Complex* out) const;

  /// Inverse of `forward`, unnormalized (result is n * original signal).
  /// Out-of-place; `in` must hold spectrum_size() coefficients.
  void inverse(const Complex* in, Real* out) const;

  /// Batched forward over `count` lines: line b reads n reals starting at
  /// in[b*in_dist] and writes spectrum_size() coefficients starting at
  /// out[b*out_dist]. Even smooth lengths run blocks of lines through the
  /// batched Stockham half-length engine (pack, transform, unravel all
  /// vectorize across the batch); other lengths fall back per line.
  void forward_batch(const Real* in, std::size_t in_dist, Complex* out,
                     std::size_t out_dist, std::size_t count) const;

  /// Batched inverse, same layout contract as forward_batch.
  void inverse_batch(const Complex* in, std::size_t in_dist, Real* out,
                     std::size_t out_dist, std::size_t count) const;

 private:
  std::size_t n_;
  std::shared_ptr<const PlanC2C> half_;  // length n/2 plan (even n)
  std::shared_ptr<const PlanC2C> full_;  // length n fallback (odd n)
  std::vector<Complex> omega_;           // exp(-2*pi*i*k/n), k in [0, n/2]
  // The batched passes' factors -i omega_[k]/2 (forward) and
  // i conj(omega_[k])/2 (inverse), laid out as the pack kernels load them
  // (see stockham_kernels.hpp).
  std::vector<Complex> unravel_tw_, recover_tw_;
};

/// Process-wide plan cache for real transforms. Thread-safe.
std::shared_ptr<const PlanR2C> get_plan_r2c(std::size_t n);

}  // namespace psdns::fft
