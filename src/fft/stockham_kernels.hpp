#pragma once
// Stage kernel bodies for the Stockham engine, written once as templates
// over a SIMD pack type (util::simd::ScalarPack / Avx2Pack) and instantiated
// per backend in their own translation units: stockham.cpp (scalar, plain
// flags) and stockham_avx2.cpp (-mavx2 -mfma). Each butterfly is spelled as
// a generic lambda over the pack type; sweep() runs it once for the full
// packs and once more (scalar) for an odd batch remainder, so the vector
// main loop and the tail share one body. With P = ScalarPack the remainder
// call compiles away and the arithmetic is exactly the pre-SIMD scalar path.
//
// The lambda receives a [q0, q1) range rather than a single index so that
// loop-invariant twiddle broadcasts hoist naturally: each instantiation
// broadcasts its constants once, then iterates. (Leaving the q loop outside
// the typed body makes GCC spill the 6+ broadcast registers of the radix-4
// butterfly and re-broadcast from the stack every iteration.)
//
// Internal header: include only from the stockham kernel translation units.

#include <cstddef>

#include "fft/factor.hpp"
#include "fft/stockham.hpp"
#include "fft/types.hpp"
#include "util/simd.hpp"

// The stage buffers never alias each other (ping-pong pair) nor the twiddle
// tables; saying so lets the compiler keep broadcast twiddles in registers
// across the batch sweep instead of reloading them after every store.
#if defined(__GNUC__) || defined(__clang__)
#define PSDNS_RESTRICT __restrict__
#else
#define PSDNS_RESTRICT
#endif

namespace psdns::fft::detail {

// Twiddles are stored in the forward (exp(-i)) convention; the inverse
// transform conjugates them outside the batch loops.
inline Complex pick_tw(bool inverse, Complex w) {
  return inverse ? Complex{w.real(), -w.imag()} : w;
}

template <class P>
void run_stage_impl(const StockhamStage& st, const Complex* PSDNS_RESTRICT tw,
                    const Complex* PSDNS_RESTRICT mat, bool inverse,
                    std::size_t s, std::size_t xs, std::size_t ys,
                    const Complex* PSDNS_RESTRICT x,
                    Complex* PSDNS_RESTRICT y) {
  using util::simd::ScalarPack;
  const std::size_t m = st.m;

  // Runs `body(pack_tag, q0, q1)` over [0, s): one full-pack range, then a
  // scalar-tail range for odd batch remainders (compiled out when P is
  // scalar). The body loops q0..q1 itself in steps of the pack width.
  const std::size_t main = s - s % P::width;
  const auto sweep = [s, main](auto&& body) {
    if (main != 0) body(P{}, std::size_t{0}, main);
    if constexpr (P::width > 1) {
      if (main != s) body(ScalarPack{}, main, s);
    }
  };

  if (st.radix == 2) {
    for (std::size_t p = 0; p < m; ++p) {
      const Complex w = pick_tw(inverse, tw[p]);
      const Complex* xa = x + xs * p;
      const Complex* xb = x + xs * (p + m);
      Complex* ya = y + ys * (2 * p);
      Complex* yb = ya + ys;
      sweep([=](auto tag, std::size_t q0, std::size_t q1) {
        using Q = decltype(tag);
        const Q wr = Q::broadcast(w.real()), wi = Q::broadcast(w.imag());
        for (std::size_t q = q0; q < q1; q += Q::width) {
          const Q a = Q::load(xa + q);
          const Q b = Q::load(xb + q);
          (a + b).store(ya + q);
          (a - b).cmul(wr, wi).store(yb + q);
        }
      });
    }
    return;
  }

  if (st.radix == 4) {
    // Forward: w_4 = -i, so X1/X3 = (a-c) -+ i(b-d). The inverse flips the
    // sign of the odd-term rotation, which is the same butterfly with the
    // b and d inputs exchanged -- so swap the pointers instead of carrying a
    // sign multiply through the inner loop.
    const std::size_t ob = inverse ? 3 : 1;
    const std::size_t od = inverse ? 1 : 3;
    for (std::size_t p = 0; p < m; ++p) {
      const Complex w1 = pick_tw(inverse, tw[3 * p]);
      const Complex w2 = pick_tw(inverse, tw[3 * p + 1]);
      const Complex w3 = pick_tw(inverse, tw[3 * p + 2]);
      const Complex* xa = x + xs * p;
      const Complex* xb = x + xs * (p + ob * m);
      const Complex* xc = x + xs * (p + 2 * m);
      const Complex* xd = x + xs * (p + od * m);
      Complex* y0 = y + ys * (4 * p);
      Complex* y1 = y0 + ys;
      Complex* y2 = y1 + ys;
      Complex* y3 = y2 + ys;
      sweep([=](auto tag, std::size_t q0, std::size_t q1) {
        using Q = decltype(tag);
        const Q w1r = Q::broadcast(w1.real()), w1i = Q::broadcast(w1.imag());
        const Q w2r = Q::broadcast(w2.real()), w2i = Q::broadcast(w2.imag());
        const Q w3r = Q::broadcast(w3.real()), w3i = Q::broadcast(w3.imag());
        const Complex* PSDNS_RESTRICT pa = xa;
        const Complex* PSDNS_RESTRICT pb = xb;
        const Complex* PSDNS_RESTRICT pc = xc;
        const Complex* PSDNS_RESTRICT pd = xd;
        Complex* PSDNS_RESTRICT o0 = y0;
        Complex* PSDNS_RESTRICT o1 = y1;
        Complex* PSDNS_RESTRICT o2 = y2;
        Complex* PSDNS_RESTRICT o3 = y3;
        for (std::size_t q = q0; q < q1; q += Q::width) {
          const Q a = Q::load(pa + q);
          const Q b = Q::load(pb + q);
          const Q c = Q::load(pc + q);
          const Q d = Q::load(pd + q);
          const Q ac = a + c;
          const Q amc = a - c;
          const Q bd = b + d;
          const Q u = (b - d).mul_neg_i();
          (ac + bd).store(o0 + q);
          (amc + u).cmul(w1r, w1i).store(o1 + q);
          (ac - bd).cmul(w2r, w2i).store(o2 + q);
          (amc - u).cmul(w3r, w3i).store(o3 + q);
        }
      });
    }
    return;
  }

  if (st.radix == 3) {
    // X1/X2 = (a - (b+c)/2) -+ i*(sqrt(3)/2)*(b-c) in the forward direction.
    const double h = inverse ? -0.8660254037844386 : 0.8660254037844386;
    for (std::size_t p = 0; p < m; ++p) {
      const Complex w1 = pick_tw(inverse, tw[2 * p]);
      const Complex w2 = pick_tw(inverse, tw[2 * p + 1]);
      const Complex* xa = x + xs * p;
      const Complex* xb = x + xs * (p + m);
      const Complex* xc = x + xs * (p + 2 * m);
      Complex* y0 = y + ys * (3 * p);
      Complex* y1 = y0 + ys;
      Complex* y2 = y1 + ys;
      sweep([=](auto tag, std::size_t q0, std::size_t q1) {
        using Q = decltype(tag);
        const Q w1r = Q::broadcast(w1.real()), w1i = Q::broadcast(w1.imag());
        const Q w2r = Q::broadcast(w2.real()), w2i = Q::broadcast(w2.imag());
        const Q mh = Q::broadcast(-0.5);
        const Q hp = Q::broadcast(h);
        const Q hn = Q::broadcast(-h);
        for (std::size_t q = q0; q < q1; q += Q::width) {
          const Q a = Q::load(xa + q);
          const Q b = Q::load(xb + q);
          const Q c = Q::load(xc + q);
          const Q t = b + c;
          const Q u = (b - c).mul_neg_i();
          (a + t).store(y0 + q);
          const Q e = a.add_scaled(t, mh);
          e.add_scaled(u, hp).cmul(w1r, w1i).store(y1 + q);
          e.add_scaled(u, hn).cmul(w2r, w2i).store(y2 + q);
        }
      });
    }
    return;
  }

  // Generic radix: per output j, fold the stage twiddle into the radix-r DFT
  // row once, then stream the batch accumulating r scaled loads. The
  // broadcast coefficient packs live outside the q loop; for small r they
  // stay in registers, for larger r they spill as full packs (a plain load
  // per use instead of a broadcast).
  const std::size_t r = st.radix;
  for (std::size_t p = 0; p < m; ++p) {
    const Complex* twrow = tw + p * (r - 1);
    const Complex* xp = x + xs * p;
    for (std::size_t j = 0; j < r; ++j) {
      Complex coef[kMaxDirectPrime];
      const Complex wj =
          j == 0 ? Complex{1.0, 0.0} : pick_tw(inverse, twrow[j - 1]);
      for (std::size_t q2 = 0; q2 < r; ++q2) {
        coef[q2] = pick_tw(inverse, mat[j * r + q2]) * wj;
      }
      Complex* yj = y + ys * (r * p + j);
      sweep([=](auto tag, std::size_t q0, std::size_t q1) {
        using Q = decltype(tag);
        Q cr[kMaxDirectPrime];
        Q ci[kMaxDirectPrime];
        for (std::size_t q2 = 0; q2 < r; ++q2) {
          cr[q2] = Q::broadcast(coef[q2].real());
          ci[q2] = Q::broadcast(coef[q2].imag());
        }
        for (std::size_t q = q0; q < q1; q += Q::width) {
          Q acc = Q::zero();
          for (std::size_t q2 = 0; q2 < r; ++q2) {
            acc = acc.axpy(Q::load(xp + q + xs * (m * q2)), cr[q2], ci[q2]);
          }
          acc.store(yj + q);
        }
      });
    }
  }
}

// Final-stage kernel for execute_batch_plane: the last stage (st.m == 1)
// writes its r output rows as `nchunks` runs of `nb` contiguous user
// elements each. Keeping the chunk loop inside the template lets the
// compiler inline the stage body and hoist the (single) twiddle row's
// broadcasts across all chunks instead of redoing them per call.
template <class P>
void run_stage_tail_impl(const StockhamStage& st,
                         const Complex* PSDNS_RESTRICT tw,
                         const Complex* PSDNS_RESTRICT mat, bool inverse,
                         std::size_t nb, std::size_t nchunks, std::size_t xs,
                         std::size_t out_stride,
                         const Complex* PSDNS_RESTRICT x,
                         Complex* PSDNS_RESTRICT y) {
  for (std::size_t c = 0; c < nchunks; ++c) {
    run_stage_impl<P>(st, tw, mat, inverse, nb, xs, out_stride * nchunks,
                      x + c * nb, y + out_stride * c);
  }
}

// ---------------------------------------------------------------------
// Pre/post passes of the batched real transform (PlanR2C::forward_batch
// and inverse_batch). Each moves one block of nb lines between a big
// line-major array (real lines of n = 2h samples, or spectra of h+1
// coefficients) and the batch-innermost staging rows the half-length
// Stockham stages run on (z[j*nb + b] = element j of line b), and applies
// the half-length twiddle on the way. They walk the block line by line, so
// every line of the big array streams through once as whole cache lines;
// the transpose happens on the L1-resident staging side, where a pack is
// one column of `width` rows (load_strided / store_strided: 2x2 complex
// tiles in the AVX2 pack). Element-outer loops would instead walk all nb
// lines at their (often power-of-two) stride once per element, which
// thrashes L1.
//
// The twiddle tables hold the per-element factor c_k as (Re c_k, Re c_k)
// at tw[k] and (Im c_k, Im c_k) at tw[h + 1 + k], k <= h, so one plain pack
// load yields the cmul operands of `width` consecutive elements.

// Runs body(pack_tag, j0, j1) over [begin, end): the full packs with P, the
// ragged remainder with ScalarPack. The body loops j0..j1 in steps of the
// pack width.
template <class P, class Body>
void sweep_elements(std::size_t begin, std::size_t end, Body&& body) {
  const std::size_t main = end - (end - begin) % P::width;
  if (main != begin) body(P{}, begin, main);
  if constexpr (P::width > 1) {
    if (main != end) body(util::simd::ScalarPack{}, main, end);
  }
}

// s/2 + d * c for s = a + b, d = a - b: both twiddle passes have this form.
template <class Q>
Q half_sum_plus_twiddled_diff(Q a, Q b, Q cr, Q ci) {
  return (a - b).cmul(cr, ci).add_scaled(a + b, Q::broadcast(0.5));
}

// Forward pre pass: z[j*nb + b] = (in[b][2j], in[b][2j+1]), j < h, with
// line b at in + b*in_dist.
template <class P>
void r2c_pack_impl(const Real* in, std::size_t in_dist, std::size_t h,
                   std::size_t nb, Complex* z) {
  const auto zs = static_cast<std::ptrdiff_t>(nb);
  for (std::size_t b = 0; b < nb; ++b) {
    const Real* PSDNS_RESTRICT line = in + b * in_dist;
    Complex* PSDNS_RESTRICT col = z + b;
    sweep_elements<P>(0, h, [=](auto tag, std::size_t j0, std::size_t j1) {
      using Q = decltype(tag);
      for (std::size_t j = j0; j < j1; j += Q::width) {
        Q::load_pair(line + 2 * j).store_strided(col + j * nb, zs);
      }
    });
  }
}

// Forward post pass: with Z the half-length transform of the packed
// samples, X[k] = A + w^k B for A = (Z[k] + conj(Z[h-k]))/2 and
// B = (Z[k] - conj(Z[h-k]))/(2i), i.e. X = s/2 + d c_k with s, d the sum and
// difference and c_k = -i w^k / 2; out[b*out_dist + k] = X[k], k <= h.
template <class P>
void r2c_unravel_impl(const Complex* z, const Complex* tw, std::size_t h,
                      std::size_t nb, Complex* out, std::size_t out_dist) {
  using util::simd::ScalarPack;
  const auto zs = static_cast<std::ptrdiff_t>(nb);
  const Complex* twi = tw + h + 1;
  for (std::size_t b = 0; b < nb; ++b) {
    const Complex* PSDNS_RESTRICT col = z + b;
    Complex* PSDNS_RESTRICT line = out + b * out_dist;
    // k = 0 and k = h both pair row 0 with itself (Z is h-periodic).
    const ScalarPack z0 = ScalarPack::load(col);
    for (const std::size_t k : {std::size_t{0}, h}) {
      half_sum_plus_twiddled_diff(z0, z0.conj(), ScalarPack::load(tw + k),
                                  ScalarPack::load(twi + k))
          .store(line + k);
    }
    sweep_elements<P>(1, h, [=](auto tag, std::size_t k0, std::size_t k1) {
      using Q = decltype(tag);
      for (std::size_t k = k0; k < k1; k += Q::width) {
        const Q zk = Q::load_strided(col + k * nb, zs);
        const Q zm = Q::load_strided(col + (h - k) * nb, -zs).conj();
        half_sum_plus_twiddled_diff(zk, zm, Q::load(tw + k), Q::load(twi + k))
            .store(line + k);
      }
    });
  }
}

// Inverse pre pass: recovers the packed half-length spectrum
// Z[k] = A + iB, A = (X[k] + conj(X[h-k]))/2,
// B = (X[k] - conj(X[h-k])) conj(w^k)/2, i.e. Z = s/2 + d c_k with
// c_k = i conj(w^k) / 2; z[k*nb + b] = Z[k], k < h, with line b's spectrum
// at in + b*in_dist.
template <class P>
void c2r_recover_impl(const Complex* in, std::size_t in_dist,
                      const Complex* tw, std::size_t h, std::size_t nb,
                      Complex* z) {
  const auto zs = static_cast<std::ptrdiff_t>(nb);
  const Complex* twi = tw + h + 1;
  for (std::size_t b = 0; b < nb; ++b) {
    const Complex* PSDNS_RESTRICT line = in + b * in_dist;
    Complex* PSDNS_RESTRICT col = z + b;
    sweep_elements<P>(0, h, [=](auto tag, std::size_t k0, std::size_t k1) {
      using Q = decltype(tag);
      for (std::size_t k = k0; k < k1; k += Q::width) {
        const Q xk = Q::load(line + k);
        const Q xm = Q::load_strided(line + (h - k), -1).conj();
        half_sum_plus_twiddled_diff(xk, xm, Q::load(tw + k), Q::load(twi + k))
            .store_strided(col + k * nb, zs);
      }
    });
  }
}

// Inverse post pass: out[b][2j], out[b][2j+1] = 2 Z[j] (the half-length
// unnormalized inverse carries a factor h; the c2r convention wants n = 2h).
template <class P>
void c2r_scatter_impl(const Complex* z, std::size_t h, std::size_t nb,
                      Real* out, std::size_t out_dist) {
  const auto zs = static_cast<std::ptrdiff_t>(nb);
  for (std::size_t b = 0; b < nb; ++b) {
    const Complex* PSDNS_RESTRICT col = z + b;
    Real* PSDNS_RESTRICT line = out + b * out_dist;
    sweep_elements<P>(0, h, [=](auto tag, std::size_t j0, std::size_t j1) {
      using Q = decltype(tag);
      for (std::size_t j = j0; j < j1; j += Q::width) {
        const Q v = Q::load_strided(col + j * nb, zs);
        (v + v).store_pair(line + 2 * j);
      }
    });
  }
}

template <class P>
constexpr RealPassKernels real_pass_kernels_for() {
  return {&r2c_pack_impl<P>, &r2c_unravel_impl<P>, &c2r_recover_impl<P>,
          &c2r_scatter_impl<P>};
}

}  // namespace psdns::fft::detail
