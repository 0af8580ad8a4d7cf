// AVX2+FMA instantiation of the Stockham stage kernels and of the batched
// real transform's pre/post passes. This translation unit is the only one
// compiled with -mavx2 -mfma (see fft/CMakeLists.txt), so a generic x86-64
// build still links it and dispatches here at runtime when CPUID reports
// AVX2+FMA (util::simd::active_backend()).

#include "fft/stockham_kernels.hpp"

#if !defined(__AVX2__) || !defined(__FMA__)
#error "stockham_avx2.cpp must be compiled with -mavx2 -mfma"
#endif

namespace psdns::fft::detail {

void run_stage_avx2(const StockhamStage& st, const Complex* tw,
                    const Complex* mat, bool inverse, std::size_t s,
                    std::size_t xs, std::size_t ys, const Complex* x,
                    Complex* y) {
  run_stage_impl<util::simd::Avx2Pack>(st, tw, mat, inverse, s, xs, ys, x, y);
}

void run_stage_tail_avx2(const StockhamStage& st, const Complex* tw,
                         const Complex* mat, bool inverse, std::size_t nb,
                         std::size_t nchunks, std::size_t xs,
                         std::size_t out_stride, const Complex* x,
                         Complex* y) {
  run_stage_tail_impl<util::simd::Avx2Pack>(st, tw, mat, inverse, nb, nchunks,
                                            xs, out_stride, x, y);
}

const RealPassKernels& real_pass_kernels_avx2() {
  static constexpr RealPassKernels kernels =
      real_pass_kernels_for<util::simd::Avx2Pack>();
  return kernels;
}

}  // namespace psdns::fft::detail
