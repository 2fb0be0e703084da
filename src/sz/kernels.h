// Runtime-dispatched SIMD row kernels for the SZ predict/quantize stage.
//
// These are the element-wise inner loops of the block pipeline — affine
// (regression/mean) row prediction, linear-scale quantization and
// dequantization — vectorized with SSE2/AVX2 and selected per call from
// cpu::enabled_features().  Every kernel is *bit-identical* to the
// scalar expression it replaces: the IEEE-754 operations (convert,
// subtract, divide, round-to-nearest-even, multiply, add) are exactly
// specified per lane, no FMA contraction is used, and the operation
// order matches the scalar code.  Archives produced at any dispatch
// level are therefore byte-for-byte equal (asserted by the golden
// container pins and tests/kernel_dispatch_test.cpp).
//
// Only element-wise stages are vectorized.  The Lorenzo predictor reads
// reconstructed neighbours and the per-block predictor selection
// accumulates doubles in scan order.  The rule for both is: reorder
// independent points, never reassociate.  pipeline.cpp visits a Lorenzo
// block plane by plane so the core overlaps independent points, each
// running the scalar operations in their order; summing a block's terms
// in another order would change output bytes — see docs/PERFORMANCE.md.
#pragma once

#include <cstddef>
#include <cstdint>

namespace szsec::sz::kernels {

/// Name of the kernel set the current feature mask selects: "avx2",
/// "sse2" or "scalar".  Used by benches to detect silent fallback.
const char* active_backend();

/// Fills pred[i] = (T)((t_zy + slope_x * (double)i) + intercept) for
/// i in [0, n) — the regression predictor along a row, with the z/y
/// terms pre-folded into t_zy by the caller (exactly as the scalar
/// pipeline associates them).
template <typename T>
void predict_affine_row(double t_zy, double slope_x, double intercept,
                        size_t n, T* pred);

/// Element-wise LinearQuantizer::quantize over a row: for each i sets
/// codes[i] and, when codes[i] != 0, recon[i] to the decoder-visible
/// reconstruction.  Lanes that quantize to 0 (unpredictable) leave
/// recon[i] unspecified — the caller overwrites them from the
/// unpredictable encoder.  `eb` is the absolute error bound; `radius`
/// is LinearQuantizer::radius().
template <typename T>
void quantize_row(const T* values, const T* pred, size_t n, double eb,
                  int64_t radius, uint32_t* codes, T* recon);

/// Element-wise LinearQuantizer::dequantize over a row: `values` holds
/// the predictions on entry and the reconstructions on exit.  Lanes
/// with codes[i] == 0 get an unspecified value — the caller overwrites
/// them from the unpredictable stream.  Callers must validate
/// codes[i] < bins beforehand.
template <typename T>
void dequantize_row(const uint32_t* codes, T* values, size_t n, double eb,
                    int64_t radius);

}  // namespace szsec::sz::kernels
