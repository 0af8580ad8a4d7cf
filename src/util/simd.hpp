#pragma once
// Portable SIMD wrapper for the batch-innermost FFT hot path.
//
// Two interchangeable "pack" types implement the same tiny complex-arithmetic
// vocabulary over interleaved std::complex<double> storage: ScalarPack (one
// complex per op, always available) and Avx2Pack (two complexes per __m256d,
// FMA). Kernels are written once as templates over the pack type; the AVX2
// instantiation lives in its own translation unit compiled with -mavx2 -mfma
// (see src/fft/stockham_avx2.cpp), so one binary carries both bodies and
// picks at runtime via CPUID. Backend selection order: set_backend() >
// PSDNS_SIMD env (auto|scalar|avx2) > CPUID autodetect.
//
// Avx2Pack is only *defined* in TUs compiled with AVX2+FMA enabled (the
// dedicated kernel TU, or everything under -march=native); the dispatch
// query below works everywhere.

#include <atomic>
#include <complex>
#include <cstddef>
#include <cstdlib>
#include <cstring>

#include "util/check.hpp"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

namespace psdns::util::simd {

enum class Backend { Scalar = 0, Avx2 = 1 };

inline const char* to_string(Backend b) {
  return b == Backend::Avx2 ? "avx2" : "scalar";
}

/// True when the build carries the AVX2 kernel translation unit at all
/// (x86-64 and the compiler accepted -mavx2 -mfma).
inline bool avx2_compiled() {
#if defined(PSDNS_HAVE_AVX2)
  return true;
#else
  return false;
#endif
}

/// True when both the binary and the running CPU can execute the AVX2+FMA
/// kernels.
inline bool avx2_supported() {
#if defined(PSDNS_HAVE_AVX2) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

namespace detail {

inline std::atomic<int>& backend_slot() {
  static std::atomic<int> slot{-1};
  return slot;
}

inline Backend detect_backend() {
  const char* env = std::getenv("PSDNS_SIMD");
  if (env != nullptr && *env != '\0' && std::strcmp(env, "auto") != 0) {
    if (std::strcmp(env, "scalar") == 0) return Backend::Scalar;
    PSDNS_REQUIRE(std::strcmp(env, "avx2") == 0,
                  "PSDNS_SIMD must be auto, scalar or avx2");
    PSDNS_REQUIRE(avx2_supported(),
                  "PSDNS_SIMD=avx2 but this build/CPU has no AVX2+FMA path");
    return Backend::Avx2;
  }
  return avx2_supported() ? Backend::Avx2 : Backend::Scalar;
}

}  // namespace detail

/// The backend batched kernels dispatch to. Resolved once (env + CPUID) on
/// first use; set_backend() overrides it at any time.
inline Backend active_backend() {
  auto& slot = detail::backend_slot();
  int v = slot.load(std::memory_order_relaxed);
  if (v < 0) {
    int expected = -1;
    slot.compare_exchange_strong(expected,
                                 static_cast<int>(detail::detect_backend()),
                                 std::memory_order_relaxed);
    v = slot.load(std::memory_order_relaxed);
  }
  return static_cast<Backend>(v);
}

/// Forces the dispatched backend (tests compare the two kernels directly).
inline void set_backend(Backend b) {
  PSDNS_REQUIRE(b == Backend::Scalar || avx2_supported(),
                "cannot force the AVX2 backend: unsupported build or CPU");
  detail::backend_slot().store(static_cast<int>(b),
                               std::memory_order_relaxed);
}

/// One interleaved complex<double>. The reference semantics every other
/// backend must match (up to FMA rounding).
struct ScalarPack {
  static constexpr std::size_t width = 1;

  double re = 0.0;
  double im = 0.0;

  static ScalarPack zero() { return {}; }
  /// Both lanes = s. Used to hoist twiddle components out of batch sweeps.
  static ScalarPack broadcast(double s) { return {s, s}; }
  static ScalarPack load(const std::complex<double>* p) {
    return {p->real(), p->imag()};
  }
  void store(std::complex<double>* p) const { *p = {re, im}; }
  /// One complex from / to two adjacent reals (a real line read as pairs).
  static ScalarPack load_pair(const double* p) { return {p[0], p[1]}; }
  void store_pair(double* p) const {
    p[0] = re;
    p[1] = im;
  }
  /// Element i of the pack from / to p[i * stride]: one column of a
  /// row-major block (a negative stride walks it backwards).
  static ScalarPack load_strided(const std::complex<double>* p,
                                 std::ptrdiff_t) {
    return load(p);
  }
  void store_strided(std::complex<double>* p, std::ptrdiff_t) const {
    store(p);
  }

  friend ScalarPack operator+(ScalarPack a, ScalarPack b) {
    return {a.re + b.re, a.im + b.im};
  }
  friend ScalarPack operator-(ScalarPack a, ScalarPack b) {
    return {a.re - b.re, a.im - b.im};
  }

  /// this * (wr + i*wi)
  ScalarPack cmul(double wr, double wi) const {
    return {re * wr - im * wi, re * wi + im * wr};
  }
  /// cmul with pre-broadcast twiddle components (same arithmetic).
  ScalarPack cmul(ScalarPack wr, ScalarPack wi) const {
    return cmul(wr.re, wi.re);
  }
  /// this * (-i)
  ScalarPack mul_neg_i() const { return {im, -re}; }
  ScalarPack conj() const { return {re, -im}; }
  /// this + s*u  (real scale)
  ScalarPack add_scaled(ScalarPack u, double s) const {
    return {re + s * u.re, im + s * u.im};
  }
  ScalarPack add_scaled(ScalarPack u, ScalarPack s) const {
    return add_scaled(u, s.re);
  }
  /// this + x * (wr + i*wi)
  ScalarPack axpy(ScalarPack x, double wr, double wi) const {
    return {re + (x.re * wr - x.im * wi), im + (x.re * wi + x.im * wr)};
  }
  ScalarPack axpy(ScalarPack x, ScalarPack wr, ScalarPack wi) const {
    return axpy(x, wr.re, wi.re);
  }
};

#if defined(__AVX2__) && defined(__FMA__)

/// Two interleaved complex<double> in one __m256d: (re0, im0, re1, im1).
struct Avx2Pack {
  static constexpr std::size_t width = 2;

  __m256d v;

  static Avx2Pack zero() { return {_mm256_setzero_pd()}; }
  static Avx2Pack broadcast(double s) { return {_mm256_set1_pd(s)}; }
  static Avx2Pack load(const std::complex<double>* p) {
    return {_mm256_loadu_pd(reinterpret_cast<const double*>(p))};
  }
  void store(std::complex<double>* p) const {
    _mm256_storeu_pd(reinterpret_cast<double*>(p), v);
  }
  static Avx2Pack load_pair(const double* p) { return {_mm256_loadu_pd(p)}; }
  void store_pair(double* p) const { _mm256_storeu_pd(p, v); }
  // Two 128-bit halves: the insert and extract take a memory operand, so
  // neither needs a shuffle.
  static Avx2Pack load_strided(const std::complex<double>* p,
                               std::ptrdiff_t stride) {
    const auto* d = reinterpret_cast<const double*>(p);
    return {_mm256_insertf128_pd(_mm256_castpd128_pd256(_mm_loadu_pd(d)),
                                 _mm_loadu_pd(d + 2 * stride), 1)};
  }
  void store_strided(std::complex<double>* p, std::ptrdiff_t stride) const {
    auto* d = reinterpret_cast<double*>(p);
    _mm_storeu_pd(d, _mm256_castpd256_pd128(v));
    _mm_storeu_pd(d + 2 * stride, _mm256_extractf128_pd(v, 1));
  }

  friend Avx2Pack operator+(Avx2Pack a, Avx2Pack b) {
    return {_mm256_add_pd(a.v, b.v)};
  }
  friend Avx2Pack operator-(Avx2Pack a, Avx2Pack b) {
    return {_mm256_sub_pd(a.v, b.v)};
  }

  Avx2Pack cmul(double wr, double wi) const {
    return cmul(broadcast(wr), broadcast(wi));
  }

  /// cmul with pre-broadcast twiddle components: callers hoist the two
  /// broadcasts out of the batch sweep so the loop body is permute+mul+fma.
  Avx2Pack cmul(Avx2Pack wr, Avx2Pack wi) const {
    // (re*wr - im*wi, im*wr + re*wi): fmaddsub subtracts in the even
    // (real) lanes and adds in the odd (imag) lanes.
    const __m256d sw = _mm256_permute_pd(v, 0x5);  // (im0, re0, im1, re1)
    return {_mm256_fmaddsub_pd(v, wr.v, _mm256_mul_pd(sw, wi.v))};
  }

  Avx2Pack mul_neg_i() const {
    // (re, im) -> (im, -re): swap within each complex, flip the odd lanes.
    const __m256d sw = _mm256_permute_pd(v, 0x5);
    return {_mm256_xor_pd(sw, _mm256_set_pd(-0.0, 0.0, -0.0, 0.0))};
  }

  Avx2Pack conj() const {
    return {_mm256_xor_pd(v, _mm256_set_pd(-0.0, 0.0, -0.0, 0.0))};
  }

  Avx2Pack add_scaled(Avx2Pack u, double s) const {
    return add_scaled(u, broadcast(s));
  }

  Avx2Pack add_scaled(Avx2Pack u, Avx2Pack s) const {
    return {_mm256_fmadd_pd(u.v, s.v, v)};
  }

  Avx2Pack axpy(Avx2Pack x, double wr, double wi) const {
    return axpy(x, broadcast(wr), broadcast(wi));
  }

  Avx2Pack axpy(Avx2Pack x, Avx2Pack wr, Avx2Pack wi) const {
    const __m256d sw = _mm256_permute_pd(x.v, 0x5);
    const __m256d xw = _mm256_fmaddsub_pd(x.v, wr.v, _mm256_mul_pd(sw, wi.v));
    return {_mm256_add_pd(v, xw)};
  }
};

#endif  // __AVX2__ && __FMA__

}  // namespace psdns::util::simd
