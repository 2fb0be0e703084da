// Scalar + SSE2 SZ row kernels and the per-call dispatcher.
//
// The scalar bodies here are the reference semantics: they restate the
// exact expressions from quantizer.h / pipeline.cpp, and every SIMD
// variant must match them bit-for-bit (see kernels.h).  The SSE2 path
// is compiled whenever the target has baseline SSE2 (always true on
// x86-64); the AVX2 path lives in kernels_avx2.cpp behind its own
// compile flags and is declared here when CMake enables it.

#include "sz/kernels.h"

#include <cmath>
#include <limits>

#include "common/cpu.h"
#include "sz/quantizer.h"

#if defined(__SSE2__) || defined(__x86_64__) || defined(_M_X64)
#define SZSEC_KERNELS_SSE2 1
#include <emmintrin.h>
#endif

namespace szsec::sz::kernels {

namespace {

// SIMD quantize/dequantize do the code arithmetic in 32-bit lanes; fall
// back to the (int64) scalar path for implausibly large bin counts.
constexpr int64_t kMaxSimdRadius = int64_t{1} << 30;

// ---------------------------------------------------------------- scalar

template <typename T>
void predict_affine_row_scalar(double t_zy, double slope_x, double intercept,
                               size_t n, T* pred) {
  for (size_t i = 0; i < n; ++i) {
    pred[i] = static_cast<T>((t_zy + slope_x * static_cast<double>(i)) +
                             intercept);
  }
}

template <typename T>
void quantize_row_scalar(const T* values, const T* pred, size_t n, double eb,
                         int64_t radius, uint32_t* codes, T* recon) {
  const double two_eb = 2.0 * eb;
  for (size_t i = 0; i < n; ++i) {
    const double diff = static_cast<double>(values[i]) - pred[i];
    const double scaled = diff / two_eb;
    const double rounded = round_half_even(scaled);
    if (std::abs(rounded) >= static_cast<double>(radius) ||
        !std::isfinite(diff)) {
      codes[i] = 0;
      continue;
    }
    const T rec = static_cast<T>(pred[i] + rounded * two_eb);
    if (std::abs(static_cast<double>(rec) - values[i]) > eb) {
      codes[i] = 0;
      continue;
    }
    recon[i] = rec;
    codes[i] = static_cast<uint32_t>(static_cast<int64_t>(rounded) + radius);
  }
}

template <typename T>
void dequantize_row_scalar(const uint32_t* codes, T* values, size_t n,
                           double eb, int64_t radius) {
  const double two_eb = 2.0 * eb;
  for (size_t i = 0; i < n; ++i) {
    const int64_t q = static_cast<int64_t>(codes[i]) - radius;
    values[i] = static_cast<T>(static_cast<double>(values[i]) +
                               static_cast<double>(q) * two_eb);
  }
}

// ----------------------------------------------------------------- sse2

#ifdef SZSEC_KERNELS_SSE2

// Round-to-nearest-even without SSE4.1 ROUNDPD: adding and subtracting
// 1.5*2^52 forces the fraction bits out in [2^52, 2^53) where the ulp
// is 1.  Exact for |x| < 2^51; larger magnitudes come back merely huge,
// and every caller guards with |rounded| < radius (<= 2^30) anyway.
constexpr double kRoundMagic = 6755399441055744.0;

inline __m128d abs_pd(__m128d v) {
  return _mm_and_pd(
      v, _mm_castsi128_pd(_mm_set1_epi64x(0x7fffffffffffffffLL)));
}

inline __m128d round_pd(__m128d v) {
  const __m128d magic = _mm_set1_pd(kRoundMagic);
  return _mm_sub_pd(_mm_add_pd(v, magic), magic);
}

namespace sse2 {

// First half of the two-lane quantize body: rounding plus the
// range/finiteness guard.  The reconstruction-error guard is
// type-specific (the scalar code narrows to T *before* comparing), so
// it lives in quantize2_finish's callers.
inline void quantize2_pre(__m128d v, __m128d p, __m128d vtwo_eb,
                          __m128d vradius, __m128d vinf, __m128d& rounded,
                          __m128d& rec, __m128d& ok) {
  const __m128d diff = _mm_sub_pd(v, p);
  const __m128d scaled = _mm_div_pd(diff, vtwo_eb);
  rounded = round_pd(scaled);
  ok = _mm_and_pd(_mm_cmplt_pd(abs_pd(diff), vinf),
                  _mm_cmplt_pd(abs_pd(rounded), vradius));
  rec = _mm_add_pd(p, _mm_mul_pd(rounded, vtwo_eb));
}

// Second guard + code extraction.  `rec_t` is the reconstruction after
// any narrowing to T, widened back to double — what the scalar code
// compares.  Scalar form is `if (|rec - v| > eb) fail`, which *passes*
// on an unordered compare — mirror that with andnot(GT) rather than LE.
inline void quantize2_finish(__m128d v, __m128d rec_t, __m128d veb,
                             __m128d rounded, int32_t radius32, __m128d ok,
                             uint32_t code_out[2]) {
  ok = _mm_andnot_pd(_mm_cmpgt_pd(abs_pd(_mm_sub_pd(rec_t, v)), veb), ok);
  const __m128i q32 = _mm_cvtpd_epi32(rounded);
  alignas(16) int32_t cbuf[4];
  _mm_store_si128(reinterpret_cast<__m128i*>(cbuf),
                  _mm_add_epi32(q32, _mm_set1_epi32(radius32)));
  const int m = _mm_movemask_pd(ok);
  code_out[0] = (m & 1) ? static_cast<uint32_t>(cbuf[0]) : 0;
  code_out[1] = (m & 2) ? static_cast<uint32_t>(cbuf[1]) : 0;
}

void quantize_row_f64(const double* values, const double* pred, size_t n,
                      double eb, int64_t radius, uint32_t* codes,
                      double* recon) {
  const __m128d veb = _mm_set1_pd(eb);
  const __m128d vtwo_eb = _mm_set1_pd(2.0 * eb);
  const __m128d vradius = _mm_set1_pd(static_cast<double>(radius));
  const __m128d vinf =
      _mm_set1_pd(std::numeric_limits<double>::infinity());
  const auto radius32 = static_cast<int32_t>(radius);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d v = _mm_loadu_pd(values + i);
    __m128d rounded, rec, ok;
    quantize2_pre(v, _mm_loadu_pd(pred + i), vtwo_eb, vradius, vinf, rounded,
                  rec, ok);
    uint32_t c[2];
    quantize2_finish(v, rec, veb, rounded, radius32, ok, c);
    alignas(16) double rbuf[2];
    _mm_store_pd(rbuf, rec);
    codes[i] = c[0];
    if (c[0] != 0) recon[i] = rbuf[0];
    codes[i + 1] = c[1];
    if (c[1] != 0) recon[i + 1] = rbuf[1];
  }
  quantize_row_scalar(values + i, pred + i, n - i, eb, radius, codes + i,
                      recon + i);
}

void quantize_row_f32(const float* values, const float* pred, size_t n,
                      double eb, int64_t radius, uint32_t* codes,
                      float* recon) {
  const __m128d veb = _mm_set1_pd(eb);
  const __m128d vtwo_eb = _mm_set1_pd(2.0 * eb);
  const __m128d vradius = _mm_set1_pd(static_cast<double>(radius));
  const __m128d vinf =
      _mm_set1_pd(std::numeric_limits<double>::infinity());
  const auto radius32 = static_cast<int32_t>(radius);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d v = _mm_cvtps_pd(_mm_castsi128_ps(_mm_loadl_epi64(
        reinterpret_cast<const __m128i*>(values + i))));
    const __m128d p = _mm_cvtps_pd(_mm_castsi128_ps(_mm_loadl_epi64(
        reinterpret_cast<const __m128i*>(pred + i))));
    __m128d rounded, rec, ok;
    quantize2_pre(v, p, vtwo_eb, vradius, vinf, rounded, rec, ok);
    // Narrow to float first — the scalar code casts to T and compares
    // the narrowed value against the bound.
    const __m128 rec_ps = _mm_cvtpd_ps(rec);
    uint32_t c[2];
    quantize2_finish(v, _mm_cvtps_pd(rec_ps), veb, rounded, radius32, ok, c);
    alignas(16) float rbuf[4];
    _mm_store_ps(rbuf, rec_ps);
    codes[i] = c[0];
    if (c[0] != 0) recon[i] = rbuf[0];
    codes[i + 1] = c[1];
    if (c[1] != 0) recon[i + 1] = rbuf[1];
  }
  quantize_row_scalar(values + i, pred + i, n - i, eb, radius, codes + i,
                      recon + i);
}

void predict_affine_row_f64(double t_zy, double slope_x, double intercept,
                            size_t n, double* pred) {
  const __m128d vt = _mm_set1_pd(t_zy);
  const __m128d vs = _mm_set1_pd(slope_x);
  const __m128d vb = _mm_set1_pd(intercept);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d xd =
        _mm_set_pd(static_cast<double>(i + 1), static_cast<double>(i));
    _mm_storeu_pd(pred + i,
                  _mm_add_pd(_mm_add_pd(vt, _mm_mul_pd(vs, xd)), vb));
  }
  for (size_t j = i; j < n; ++j) {
    pred[j] = (t_zy + slope_x * static_cast<double>(j)) + intercept;
  }
}

void predict_affine_row_f32(double t_zy, double slope_x, double intercept,
                            size_t n, float* pred) {
  const __m128d vt = _mm_set1_pd(t_zy);
  const __m128d vs = _mm_set1_pd(slope_x);
  const __m128d vb = _mm_set1_pd(intercept);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d xd =
        _mm_set_pd(static_cast<double>(i + 1), static_cast<double>(i));
    const __m128d p = _mm_add_pd(_mm_add_pd(vt, _mm_mul_pd(vs, xd)), vb);
    alignas(16) float buf[4];
    _mm_store_ps(buf, _mm_cvtpd_ps(p));
    pred[i] = buf[0];
    pred[i + 1] = buf[1];
  }
  for (size_t j = i; j < n; ++j) {
    pred[j] = static_cast<float>(
        (t_zy + slope_x * static_cast<double>(j)) + intercept);
  }
}

void dequantize_row_f64(const uint32_t* codes, double* values, size_t n,
                        double eb, int64_t radius) {
  const __m128d vtwo_eb = _mm_set1_pd(2.0 * eb);
  const __m128i vradius = _mm_set1_epi32(static_cast<int32_t>(radius));
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128i c = _mm_loadl_epi64(
        reinterpret_cast<const __m128i*>(codes + i));
    const __m128d q = _mm_cvtepi32_pd(_mm_sub_epi32(c, vradius));
    _mm_storeu_pd(values + i, _mm_add_pd(_mm_loadu_pd(values + i),
                                         _mm_mul_pd(q, vtwo_eb)));
  }
  dequantize_row_scalar(codes + i, values + i, n - i, eb, radius);
}

void dequantize_row_f32(const uint32_t* codes, float* values, size_t n,
                        double eb, int64_t radius) {
  const __m128d vtwo_eb = _mm_set1_pd(2.0 * eb);
  const __m128i vradius = _mm_set1_epi32(static_cast<int32_t>(radius));
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128i c = _mm_loadl_epi64(
        reinterpret_cast<const __m128i*>(codes + i));
    const __m128d q = _mm_cvtepi32_pd(_mm_sub_epi32(c, vradius));
    const __m128d p = _mm_cvtps_pd(_mm_castsi128_ps(_mm_loadl_epi64(
        reinterpret_cast<const __m128i*>(values + i))));
    alignas(16) float buf[4];
    _mm_store_ps(buf, _mm_cvtpd_ps(_mm_add_pd(p, _mm_mul_pd(q, vtwo_eb))));
    values[i] = buf[0];
    values[i + 1] = buf[1];
  }
  dequantize_row_scalar(codes + i, values + i, n - i, eb, radius);
}

}  // namespace sse2

#endif  // SZSEC_KERNELS_SSE2

}  // namespace

#ifdef SZSEC_HAVE_AVX2
// Defined in kernels_avx2.cpp (compiled with -mavx2; no FMA, so the
// mul/add sequences round exactly like the scalar code).
namespace avx2 {
void predict_affine_row_f32(double t_zy, double slope_x, double intercept,
                            size_t n, float* pred);
void predict_affine_row_f64(double t_zy, double slope_x, double intercept,
                            size_t n, double* pred);
void quantize_row_f32(const float* values, const float* pred, size_t n,
                      double eb, int64_t radius, uint32_t* codes,
                      float* recon);
void quantize_row_f64(const double* values, const double* pred, size_t n,
                      double eb, int64_t radius, uint32_t* codes,
                      double* recon);
void dequantize_row_f32(const uint32_t* codes, float* values, size_t n,
                        double eb, int64_t radius);
void dequantize_row_f64(const uint32_t* codes, double* values, size_t n,
                        double eb, int64_t radius);
}  // namespace avx2
#endif

const char* active_backend() {
  const uint32_t f = cpu::enabled_features();
#ifdef SZSEC_HAVE_AVX2
  if (f & cpu::kAvx2) return "avx2";
#endif
#ifdef SZSEC_KERNELS_SSE2
  if (f & cpu::kSse2) return "sse2";
#endif
  return "scalar";
}

template <>
void predict_affine_row<float>(double t_zy, double slope_x, double intercept,
                               size_t n, float* pred) {
  const uint32_t f = cpu::enabled_features();
#ifdef SZSEC_HAVE_AVX2
  if (f & cpu::kAvx2) {
    return avx2::predict_affine_row_f32(t_zy, slope_x, intercept, n, pred);
  }
#endif
#ifdef SZSEC_KERNELS_SSE2
  if (f & cpu::kSse2) {
    return sse2::predict_affine_row_f32(t_zy, slope_x, intercept, n, pred);
  }
#endif
  (void)f;
  predict_affine_row_scalar(t_zy, slope_x, intercept, n, pred);
}

template <>
void predict_affine_row<double>(double t_zy, double slope_x, double intercept,
                                size_t n, double* pred) {
  const uint32_t f = cpu::enabled_features();
#ifdef SZSEC_HAVE_AVX2
  if (f & cpu::kAvx2) {
    return avx2::predict_affine_row_f64(t_zy, slope_x, intercept, n, pred);
  }
#endif
#ifdef SZSEC_KERNELS_SSE2
  if (f & cpu::kSse2) {
    return sse2::predict_affine_row_f64(t_zy, slope_x, intercept, n, pred);
  }
#endif
  (void)f;
  predict_affine_row_scalar(t_zy, slope_x, intercept, n, pred);
}

template <>
void quantize_row<float>(const float* values, const float* pred, size_t n,
                         double eb, int64_t radius, uint32_t* codes,
                         float* recon) {
  const uint32_t f = cpu::enabled_features();
  if (radius <= kMaxSimdRadius) {
#ifdef SZSEC_HAVE_AVX2
    if (f & cpu::kAvx2) {
      return avx2::quantize_row_f32(values, pred, n, eb, radius, codes,
                                    recon);
    }
#endif
#ifdef SZSEC_KERNELS_SSE2
    if (f & cpu::kSse2) {
      return sse2::quantize_row_f32(values, pred, n, eb, radius, codes,
                                    recon);
    }
#endif
  }
  (void)f;
  quantize_row_scalar(values, pred, n, eb, radius, codes, recon);
}

template <>
void quantize_row<double>(const double* values, const double* pred, size_t n,
                          double eb, int64_t radius, uint32_t* codes,
                          double* recon) {
  const uint32_t f = cpu::enabled_features();
  if (radius <= kMaxSimdRadius) {
#ifdef SZSEC_HAVE_AVX2
    if (f & cpu::kAvx2) {
      return avx2::quantize_row_f64(values, pred, n, eb, radius, codes,
                                    recon);
    }
#endif
#ifdef SZSEC_KERNELS_SSE2
    if (f & cpu::kSse2) {
      return sse2::quantize_row_f64(values, pred, n, eb, radius, codes,
                                    recon);
    }
#endif
  }
  (void)f;
  quantize_row_scalar(values, pred, n, eb, radius, codes, recon);
}

template <>
void dequantize_row<float>(const uint32_t* codes, float* values, size_t n,
                           double eb, int64_t radius) {
  const uint32_t f = cpu::enabled_features();
  if (radius <= kMaxSimdRadius) {
#ifdef SZSEC_HAVE_AVX2
    if (f & cpu::kAvx2) {
      return avx2::dequantize_row_f32(codes, values, n, eb, radius);
    }
#endif
#ifdef SZSEC_KERNELS_SSE2
    if (f & cpu::kSse2) {
      return sse2::dequantize_row_f32(codes, values, n, eb, radius);
    }
#endif
  }
  (void)f;
  dequantize_row_scalar(codes, values, n, eb, radius);
}

template <>
void dequantize_row<double>(const uint32_t* codes, double* values, size_t n,
                            double eb, int64_t radius) {
  const uint32_t f = cpu::enabled_features();
  if (radius <= kMaxSimdRadius) {
#ifdef SZSEC_HAVE_AVX2
    if (f & cpu::kAvx2) {
      return avx2::dequantize_row_f64(codes, values, n, eb, radius);
    }
#endif
#ifdef SZSEC_KERNELS_SSE2
    if (f & cpu::kSse2) {
      return sse2::dequantize_row_f64(codes, values, n, eb, radius);
    }
#endif
  }
  (void)f;
  dequantize_row_scalar(codes, values, n, eb, radius);
}

}  // namespace szsec::sz::kernels
