// The SZ-1.4-style four-stage pipeline, exposed stage by stage.
//
// Stage boundaries are public API because the paper's three secure schemes
// hook in at different points:
//
//   stage 1+2  predict_quantize()       field -> quantization codes
//   stage 3    huffman_encode_codes()   codes -> tree blob + codeword bits
//              [Encr-Quant encrypts tree+codewords; Encr-Huffman the tree]
//   stage 4    zlite::deflate()         everything -> compressed stream
//              [Cmpr-Encr encrypts after this]
//
// The inverse stages mirror them.  src/core assembles stages + encryption
// into complete containers; this module stays encryption-free.
#pragma once

#include <span>
#include <vector>

#include "common/bytestream.h"
#include "common/dims.h"
#include "common/timer.h"
#include "huffman/huffman.h"
#include "sz/params.h"

namespace szsec::sz {

/// Output of stages 1+2 (prediction + linear-scale quantization).
struct QuantizedField {
  Params params;
  Dims dims;
  DType dtype = DType::kFloat32;

  /// One code per element in block-scan order.  0 = unpredictable.
  std::vector<uint32_t> codes;

  /// Truncated-IEEE blob of unpredictable values, in scan order.
  Bytes unpredictable;
  uint64_t unpredictable_count = 0;

  /// Per-block predictor modes + quantized coefficients/means.
  Bytes side_info;
};

/// Output of stage 3 (variable-length encoding).
struct EncodedQuant {
  Bytes tree;       ///< serialized canonical Huffman table ("the tree")
  Bytes codewords;  ///< MSB-first packed codeword stream
  uint64_t symbol_count = 0;
};

/// Stages 1+2.  `times`, if non-null, accumulates "prediction" and
/// "quantization" stage durations (they are fused in one pass; the cost is
/// recorded as "predict+quantize").
QuantizedField predict_quantize(std::span<const float> data, const Dims& dims,
                                const Params& params,
                                PipelineMetrics* times = nullptr);
QuantizedField predict_quantize(std::span<const double> data,
                                const Dims& dims, const Params& params,
                                PipelineMetrics* times = nullptr);

/// Stage 3: builds the Huffman code table from the code histogram and
/// encodes the code stream.
EncodedQuant huffman_encode_codes(const QuantizedField& q,
                                  PipelineMetrics* times = nullptr);

/// Stage 3 inverse.
std::vector<uint32_t> huffman_decode_codes(BytesView tree, BytesView codewords,
                                           uint64_t count,
                                           PipelineMetrics* times = nullptr);

/// Stages 1+2 inverse: rebuilds the field from codes + side channel data.
/// `out` must have dims.count() elements.
void reconstruct(const Params& params, const Dims& dims,
                 std::span<const uint32_t> codes, BytesView unpredictable,
                 BytesView side_info, std::span<float> out,
                 PipelineMetrics* times = nullptr);
void reconstruct(const Params& params, const Dims& dims,
                 std::span<const uint32_t> codes, BytesView unpredictable,
                 BytesView side_info, std::span<double> out,
                 PipelineMetrics* times = nullptr);

/// Linear (row-major) index of every element in block-scan order:
/// codes[i] in a QuantizedField describes element scan_order[i] of the
/// original field.  Used by the Figure 3 predictability-map bench to map
/// quantization codes back onto the spatial grid.
std::vector<uint64_t> block_scan_order(const Dims& dims,
                                       const Params& params);

/// Fraction of elements that were predictable (paper Figure 2's x-axis
/// companion statistic).
inline double predictable_fraction(const QuantizedField& q) {
  if (q.codes.empty()) return 0.0;
  return 1.0 - static_cast<double>(q.unpredictable_count) /
                   static_cast<double>(q.codes.size());
}

}  // namespace szsec::sz
