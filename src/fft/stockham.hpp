#pragma once
// Iterative Stockham autosort FFT over a contiguous batch of lines.
//
// The engine transforms B lines at once, stored batch-innermost: element j of
// line b lives at data[b + B*j]. Each decimation-in-frequency stage streams
// the whole buffer exactly once with a unit-stride inner loop over the batch
// index, so the compiler vectorizes across lines; the autosort property means
// no bit-reversal pass and natural-order output. All stage twiddles and the
// small DFT matrices for generic radices are precomputed at plan time, so the
// inner loops contain no trigonometry and no modular index arithmetic. This
// is the CPU analogue of a batched cuFFT plan over pencil lines — the access
// pattern the paper's GPU port is built around.

#include <cstddef>
#include <vector>

#include "fft/types.hpp"

namespace psdns::fft {

/// One decimation-in-frequency stage of the schedule. Public so the stage
/// kernels (instantiated per SIMD backend in their own translation units)
/// can share it.
struct StockhamStage {
  static constexpr std::size_t kNoMat = static_cast<std::size_t>(-1);
  std::size_t radix = 0;
  std::size_t m = 0;   // sub-transform length after this stage
  std::size_t tw = 0;  // offset into the engine twiddle table
  std::size_t mat = kNoMat;  // index into the generic-radix DFT matrices
};

namespace detail {

/// Scalar stage kernel: always available, the reference semantics.
/// `tw` points at the stage's own twiddle block, `mat` at the stage's r*r
/// DFT matrix (nullptr for radix 2/3/4). `s` is the batch sweep width;
/// `xs`/`ys` are the row strides of `x`/`y`, equal to `s` except when the
/// first/last stage streams a pitched user buffer directly
/// (execute_batch_plane).
void run_stage_scalar(const StockhamStage& st, const Complex* tw,
                      const Complex* mat, bool inverse, std::size_t s,
                      std::size_t xs, std::size_t ys, const Complex* x,
                      Complex* y);

/// Final-stage variant for execute_batch_plane: runs the (m == 1) stage as
/// `nchunks` sweeps of `nb` lines, writing chunk c's rows straight into the
/// pitched user buffer at y + out_stride*c.
void run_stage_tail_scalar(const StockhamStage& st, const Complex* tw,
                           const Complex* mat, bool inverse, std::size_t nb,
                           std::size_t nchunks, std::size_t xs,
                           std::size_t out_stride, const Complex* x,
                           Complex* y);

#if defined(PSDNS_HAVE_AVX2)
/// AVX2+FMA instantiation of the same kernel (stockham_avx2.cpp, compiled
/// with -mavx2 -mfma); call only when util::simd::avx2_supported().
void run_stage_avx2(const StockhamStage& st, const Complex* tw,
                    const Complex* mat, bool inverse, std::size_t s,
                    std::size_t xs, std::size_t ys, const Complex* x,
                    Complex* y);
void run_stage_tail_avx2(const StockhamStage& st, const Complex* tw,
                         const Complex* mat, bool inverse, std::size_t nb,
                         std::size_t nchunks, std::size_t xs,
                         std::size_t out_stride, const Complex* x, Complex* y);
#endif

/// Pre/post passes of the batched real transform over one block of `nb`
/// lines of a length-2h real transform, between the line-major user arrays
/// and the batch-innermost staging rows `z` (row j = element j of every
/// line). Written once over the SIMD packs in stockham_kernels.hpp; one
/// table per backend. `tw` holds the unravel (or recover) factor c_k as
/// (Re c_k, Re c_k) at tw[k] and (Im c_k, Im c_k) at tw[h + 1 + k], k <= h.
struct RealPassKernels {
  /// z[j*nb + b] = (in[b*in_dist + 2j], in[b*in_dist + 2j + 1]), j < h.
  void (*r2c_pack)(const Real* in, std::size_t in_dist, std::size_t h,
                   std::size_t nb, Complex* z);
  /// out[b*out_dist + k], k <= h: the spectrum unravelled from the
  /// half-length transform z, with c_k = -i exp(-2 pi i k / 2h) / 2.
  void (*r2c_unravel)(const Complex* z, const Complex* tw, std::size_t h,
                      std::size_t nb, Complex* out, std::size_t out_dist);
  /// z[k*nb + b], k < h: the packed half-length spectrum recovered from
  /// the h+1 coefficients of each line, with c_k = i exp(2 pi i k / 2h) / 2.
  void (*c2r_recover)(const Complex* in, std::size_t in_dist,
                      const Complex* tw, std::size_t h, std::size_t nb,
                      Complex* z);
  /// out[b*out_dist + 2j + {0, 1}] = 2 * (re, im) of z[j*nb + b].
  void (*c2r_scatter)(const Complex* z, std::size_t h, std::size_t nb,
                      Real* out, std::size_t out_dist);
};

/// The scalar table, the AVX2+FMA table (stockham_avx2.cpp) and the one the
/// active backend selects, as for the stage kernels.
const RealPassKernels& real_pass_kernels_scalar();
#if defined(PSDNS_HAVE_AVX2)
const RealPassKernels& real_pass_kernels_avx2();
#endif
const RealPassKernels& real_pass_kernels();

}  // namespace detail

class StockhamEngine {
 public:
  /// Requires is_smooth(n).
  explicit StockhamEngine(std::size_t n);

  std::size_t size() const { return n_; }
  std::size_t stage_count() const { return stages_.size(); }

  /// True when execute_batch expects its input in `work` (odd stage count);
  /// otherwise the input must be in `data`. The result is always in `data`,
  /// so a caller that gathers into the right buffer pays no parity copy.
  bool prefers_work_input() const { return stages_.size() % 2 == 1; }

  /// Transforms `batch` lines of length size(), stored batch-innermost in
  /// the input buffer (see prefers_work_input()). `data` and `work` must
  /// each hold size()*batch elements and must not alias; both are clobbered
  /// and the result lands in `data` in natural order. Inverse is
  /// unnormalized, matching MixedRadixEngine.
  void execute_batch(Direction dir, Complex* data, Complex* work,
                     std::size_t batch) const;

  /// Like execute_batch, but for plane layouts (dist == 1): element j of
  /// line b is read from in[b + in_stride*j] and written to
  /// out[b + out_stride*j]. The first stage streams the pitched input and
  /// the last stage writes the pitched output directly, so neither a
  /// gather nor a scatter pass touches the block. `in == out` is allowed
  /// (the input is fully consumed before the final stage writes).
  /// `stage0`/`stage1` are staging only (batch*size() each, clobbered).
  void execute_batch_plane(Direction dir, const Complex* in,
                           std::size_t in_stride, Complex* out,
                           std::size_t out_stride, Complex* stage0,
                           Complex* stage1, std::size_t batch) const;

 private:
  static constexpr std::size_t kNoMat = StockhamStage::kNoMat;

  std::size_t n_;
  std::vector<StockhamStage> stages_;
  std::vector<Complex> twiddle_;  // per-stage tables, forward convention
  std::vector<std::vector<Complex>> radix_mats_;  // w_r^{j*q} DFT matrices
};

}  // namespace psdns::fft
