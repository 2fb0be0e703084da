#include "sz/pipeline.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "sz/interpolation.h"
#include "sz/kernels.h"
#include "sz/predictor.h"
#include "sz/quantizer.h"
#include "sz/regression.h"
#include "sz/unpredictable.h"

namespace szsec::sz {

namespace {

// Dims of any rank are normalized to (nt, nz, ny, nx): 4D fields iterate
// their slowest dimension as independent 3D volumes (SZ's convention for
// the SCALE-LetKF snapshot dims), and 1D/2D embed with leading extents 1.
struct Shape {
  size_t nt, nz, ny, nx;
};

Shape normalize(const Dims& dims) {
  switch (dims.rank()) {
    case 1:
      return {1, 1, 1, dims[0]};
    case 2:
      return {1, 1, dims[0], dims[1]};
    case 3:
      return {1, dims[0], dims[1], dims[2]};
    default:
      return {dims[0], dims[1], dims[2], dims[3]};
  }
}

struct BlockShape {
  size_t bz, by, bx;
};

// Prediction block shape by effective rank: cubes for 3D, squares for 2D,
// long segments for 1D so the per-block side info stays a small fraction.
BlockShape block_shape(const Shape& s, const Params& p) {
  const size_t b = std::max<uint32_t>(2, p.block_side);
  if (s.nz == 1 && s.ny == 1) return {1, 1, b * b * b};
  if (s.nz == 1) return {1, 2 * b, 2 * b};
  return {b, b, b};
}

// Per-block predictor choice: estimates each candidate's absolute error on
// a sample of the block (x-stride 2) and picks the minimum.  The Lorenzo
// estimate uses original-data neighbours — the standard SZ approximation,
// since reconstructed values don't exist before the block is committed.
template <typename T>
PredictorMode choose_mode(const T* data, size_t nz, size_t ny, size_t nx,
                          size_t z0, size_t y0, size_t x0, size_t bz,
                          size_t by, size_t bx, const Params& params,
                          const RegressionCoeffs& reg, double mean) {
  const Lorenzo3D<T> lorenzo{data, nz, ny, nx};
  double err_l = 0, err_r = 0, err_m = 0;
  for (size_t z = 0; z < bz; ++z) {
    for (size_t y = 0; y < by; ++y) {
      for (size_t x = 0; x < bx; x += 2) {
        const size_t gz = z0 + z, gy = y0 + y, gx = x0 + x;
        const double v = data[(gz * ny + gy) * nx + gx];
        err_l += std::abs(v - static_cast<double>(lorenzo.predict(gz, gy, gx)));
        if (params.use_regression) {
          const double pr = reg.slope[0] * static_cast<double>(z) +
                            reg.slope[1] * static_cast<double>(y) +
                            reg.slope[2] * static_cast<double>(x) +
                            reg.intercept;
          err_r += std::abs(v - pr);
        }
        if (params.use_mean_predictor) err_m += std::abs(v - mean);
      }
    }
  }
  PredictorMode mode = PredictorMode::kLorenzo;
  double best = err_l;
  if (params.use_mean_predictor && err_m < best) {
    best = err_m;
    mode = PredictorMode::kMean;
  }
  if (params.use_regression && err_r < best) {
    mode = PredictorMode::kRegression;
  }
  return mode;
}

// Lorenzo-predicts and quantizes one block plane by plane: plane s holds
// the block-local points with z + y + x == s (for a 1-D block, one point
// each, so scan order).  Lorenzo reads only neighbours with no larger
// coordinate, which lie on earlier planes or in earlier blocks, so the
// points of a plane are independent and the core overlaps their divide
// and rounding chains.  Each point still runs the scan-order visit's IEEE
// operations in its order (points are reordered, never reassociated), so
// codes and reconstructions are the scan-order ones.  Codes land at their
// scan-order index in `codes`.  An unpredictable point takes its
// truncated value now; the caller writes its bits after the block, in
// scan order.  Returns the number of unpredictable points.
template <typename T>
size_t lorenzo_block(const T* data, T* recon, size_t nz, size_t ny,
                     size_t nx, size_t z0, size_t y0, size_t x0, size_t bz,
                     size_t by, size_t bx, const LinearQuantizer& quant,
                     const UnpredictableEncoder& unpred, uint32_t* codes) {
  const Lorenzo3D<T> lorenzo{recon, nz, ny, nx};
  size_t misses = 0;
  const size_t yx_last = (by - 1) + (bx - 1);
  for (size_t s = 0; s <= (bz - 1) + yx_last; ++s) {
    const size_t z_end = std::min(bz, s + 1);
    for (size_t z = s > yx_last ? s - yx_last : 0; z < z_end; ++z) {
      const size_t yx = s - z;
      const size_t y_end = std::min(by, yx + 1);
      for (size_t y = yx >= bx ? yx - (bx - 1) : 0; y < y_end; ++y) {
        const size_t x = yx - y;
        const size_t gz = z0 + z, gy = y0 + y, gx = x0 + x;
        const size_t idx = (gz * ny + gy) * nx + gx;
        const T v = data[idx];
        const T pred = lorenzo.predict(gz, gy, gx);
        T rv = pred;
        const uint32_t code = quant.quantize(v, pred, rv);
        codes[(z * by + y) * bx + x] = code;
        if (code == 0) {
          rv = unpred.truncate(v);
          ++misses;
        }
        recon[idx] = rv;
      }
    }
  }
  return misses;
}

template <typename T>
void encode_volume(const T* data, T* recon, size_t nz, size_t ny, size_t nx,
                   const Params& params, const LinearQuantizer& quant,
                   const CoeffCodec& codec, UnpredictableEncoder& unpred,
                   ByteWriter& side, std::vector<uint32_t>& codes,
                   uint64_t& unpred_count, const BlockShape& bs) {
  std::vector<T> pred_row(bs.bx);
  const auto radius = static_cast<int64_t>(quant.radius());
  for (size_t z0 = 0; z0 < nz; z0 += bs.bz) {
    const size_t bz = std::min(bs.bz, nz - z0);
    for (size_t y0 = 0; y0 < ny; y0 += bs.by) {
      const size_t by = std::min(bs.by, ny - y0);
      for (size_t x0 = 0; x0 < nx; x0 += bs.bx) {
        const size_t bx = std::min(bs.bx, nx - x0);
        const T* block0 = data + (z0 * ny + y0) * nx + x0;

        RegressionCoeffs reg;
        double mean = 0;
        if (params.use_regression || params.use_mean_predictor) {
          reg = fit_block(block0, bz, by, bx, ny * nx, nx, 1);
          // The regression intercept at the block centre is the mean.
          mean = reg.intercept +
                 reg.slope[0] * (static_cast<double>(bz) - 1) / 2 +
                 reg.slope[1] * (static_cast<double>(by) - 1) / 2 +
                 reg.slope[2] * (static_cast<double>(bx) - 1) / 2;
        }
        const PredictorMode mode =
            choose_mode(data, nz, ny, nx, z0, y0, x0, bz, by, bx, params,
                        reg, mean);

        side.put_u8(static_cast<uint8_t>(mode));
        double qmean = 0;
        if (mode == PredictorMode::kRegression) {
          codec.encode(reg, side);  // quantizes in place
        } else if (mode == PredictorMode::kMean) {
          qmean = codec.encode_mean(mean, side);
        }

        if (mode == PredictorMode::kLorenzo) {
          const size_t code_base = codes.size();
          codes.resize(code_base + bz * by * bx);
          uint32_t* block_codes = codes.data() + code_base;
          const size_t misses =
              lorenzo_block(data, recon, nz, ny, nx, z0, y0, x0, bz, by, bx,
                            quant, unpred, block_codes);
          // The unpredictable stream stays in scan order.
          for (size_t i = 0, seen = 0; seen < misses; ++i) {
            if (block_codes[i] != 0) continue;
            const size_t z = i / (by * bx), y = i / bx % by, x = i % bx;
            unpred.put(data[((z0 + z) * ny + (y0 + y)) * nx + (x0 + x)]);
            ++seen;
          }
          unpred_count += misses;
        } else {
          // Regression/mean predictions are element-wise: predict and
          // quantize whole rows through the SIMD kernels, then patch the
          // unpredictable lanes in scan order.
          for (size_t z = 0; z < bz; ++z) {
            for (size_t y = 0; y < by; ++y) {
              const size_t row0 = ((z0 + z) * ny + (y0 + y)) * nx + x0;
              if (mode == PredictorMode::kRegression) {
                const double t_zy = reg.slope[0] * static_cast<double>(z) +
                                    reg.slope[1] * static_cast<double>(y);
                kernels::predict_affine_row(t_zy, reg.slope[2],
                                            reg.intercept, bx,
                                            pred_row.data());
              } else {
                std::fill_n(pred_row.data(), bx, static_cast<T>(qmean));
              }
              const size_t code_base = codes.size();
              codes.resize(code_base + bx);
              kernels::quantize_row(data + row0, pred_row.data(), bx,
                                    quant.error_bound(), radius,
                                    codes.data() + code_base, recon + row0);
              for (size_t x = 0; x < bx; ++x) {
                if (codes[code_base + x] == 0) {
                  recon[row0 + x] = unpred.put(data[row0 + x]);
                  ++unpred_count;
                }
              }
            }
          }
        }
      }
    }
  }
}

template <typename T>
void decode_volume(T* out, size_t nz, size_t ny, size_t nx,
                   const Params& params, const LinearQuantizer& quant,
                   const CoeffCodec& codec, UnpredictableDecoder& unpred,
                   ByteReader& side, const uint32_t*& code_it,
                   const BlockShape& bs) {
  const Lorenzo3D<T> lorenzo{out, nz, ny, nx};
  const auto radius = static_cast<int64_t>(quant.radius());
  for (size_t z0 = 0; z0 < nz; z0 += bs.bz) {
    const size_t bz = std::min(bs.bz, nz - z0);
    for (size_t y0 = 0; y0 < ny; y0 += bs.by) {
      const size_t by = std::min(bs.by, ny - y0);
      for (size_t x0 = 0; x0 < nx; x0 += bs.bx) {
        const size_t bx = std::min(bs.bx, nx - x0);

        const auto mode = static_cast<PredictorMode>(side.get_u8());
        SZSEC_CHECK_FORMAT(
            mode == PredictorMode::kLorenzo || mode == PredictorMode::kMean ||
                mode == PredictorMode::kRegression,
            "bad predictor mode");
        RegressionCoeffs reg;
        double qmean = 0;
        if (mode == PredictorMode::kRegression) {
          reg = codec.decode(side);
        } else if (mode == PredictorMode::kMean) {
          qmean = codec.decode_mean(side);
        }

        if (mode == PredictorMode::kLorenzo) {
          for (size_t z = 0; z < bz; ++z) {
            for (size_t y = 0; y < by; ++y) {
              for (size_t x = 0; x < bx; ++x) {
                const size_t gz = z0 + z, gy = y0 + y, gx = x0 + x;
                const size_t idx = (gz * ny + gy) * nx + gx;
                const T pred = lorenzo.predict(gz, gy, gx);
                const uint32_t code = *code_it++;
                if (code == 0) {
                  if constexpr (std::is_same_v<T, float>) {
                    out[idx] = unpred.next_f32();
                  } else {
                    out[idx] = unpred.next_f64();
                  }
                } else {
                  SZSEC_CHECK_FORMAT(code < quant.bins(),
                                     "quantization code out of range");
                  out[idx] = quant.dequantize(code, pred);
                }
              }
            }
          }
        } else {
          // Row-kernel path mirroring encode_volume: predict the row in
          // place, dequantize every non-zero lane, then patch zeros from
          // the unpredictable stream in scan order.
          for (size_t z = 0; z < bz; ++z) {
            for (size_t y = 0; y < by; ++y) {
              const size_t row0 = ((z0 + z) * ny + (y0 + y)) * nx + x0;
              T* row = out + row0;
              if (mode == PredictorMode::kRegression) {
                const double t_zy = reg.slope[0] * static_cast<double>(z) +
                                    reg.slope[1] * static_cast<double>(y);
                kernels::predict_affine_row(t_zy, reg.slope[2],
                                            reg.intercept, bx, row);
              } else {
                std::fill_n(row, bx, static_cast<T>(qmean));
              }
              for (size_t x = 0; x < bx; ++x) {
                SZSEC_CHECK_FORMAT(code_it[x] == 0 || code_it[x] < quant.bins(),
                                   "quantization code out of range");
              }
              kernels::dequantize_row(code_it, row, bx, quant.error_bound(),
                                      radius);
              for (size_t x = 0; x < bx; ++x) {
                if (code_it[x] == 0) {
                  if constexpr (std::is_same_v<T, float>) {
                    row[x] = unpred.next_f32();
                  } else {
                    row[x] = unpred.next_f64();
                  }
                }
              }
              code_it += bx;
            }
          }
        }
      }
    }
  }
}

template <typename T>
QuantizedField predict_quantize_impl(std::span<const T> data,
                                     const Dims& dims, const Params& raw,
                                     StageTimes* times) {
  SZSEC_REQUIRE(data.size() == dims.count(),
                "data size does not match dims");
  SZSEC_REQUIRE(raw.quant_bins >= 4 && raw.quant_bins % 2 == 0,
                "quant_bins must be even and >= 4");
  ScopedStageTimer timer(times, "predict+quantize");

  // Resolve a REL bound to an absolute one against the data's range; the
  // resolved Params travel in the container so the decoder is mode-free.
  Params params = raw;
  if (raw.eb_mode == ErrorBoundMode::kRel) {
    SZSEC_REQUIRE(raw.rel_error_bound > 0,
                  "relative error bound must be positive");
    T lo = data.empty() ? T{0} : data[0];
    T hi = lo;
    for (T v : data) {
      if (v < lo) lo = v;
      if (v > hi) hi = v;
    }
    const double range = static_cast<double>(hi) - static_cast<double>(lo);
    params.abs_error_bound =
        std::max(range * raw.rel_error_bound, 1e-30);
    params.eb_mode = ErrorBoundMode::kAbs;
  }
  SZSEC_REQUIRE(params.abs_error_bound > 0, "error bound must be positive");
  // An infinite bound (given, or a REL bound over a range with +-inf)
  // would overflow the unpredictable encoder's exponent arithmetic.
  SZSEC_REQUIRE(std::isfinite(params.abs_error_bound),
                "error bound must be finite");

  QuantizedField q;
  q.params = params;
  q.dims = dims;
  q.dtype = std::is_same_v<T, float> ? DType::kFloat32 : DType::kFloat64;
  q.codes.reserve(data.size());

  const Shape s = normalize(dims);
  const BlockShape bs = block_shape(s, params);
  const LinearQuantizer quant(params.abs_error_bound, params.quant_bins);
  const CoeffCodec codec(params.abs_error_bound, params.block_side);
  UnpredictableEncoder unpred(params.abs_error_bound);
  ByteWriter side;

  std::vector<T> recon(s.nz * s.ny * s.nx);
  const size_t vol = s.nz * s.ny * s.nx;
  for (size_t t = 0; t < s.nt; ++t) {
    if (params.predictor == Predictor::kInterpolation) {
      interp_encode_volume(data.data() + t * vol, recon.data(), s.nz, s.ny,
                           s.nx, quant, unpred, q.codes,
                           q.unpredictable_count);
    } else {
      encode_volume(data.data() + t * vol, recon.data(), s.nz, s.ny, s.nx,
                    params, quant, codec, unpred, side, q.codes,
                    q.unpredictable_count, bs);
    }
  }
  q.unpredictable = unpred.finish();
  q.side_info = side.take();
  return q;
}

template <typename T>
void reconstruct_impl(const Params& params, const Dims& dims,
                      std::span<const uint32_t> codes, BytesView unpredictable,
                      BytesView side_info, std::span<T> out,
                      StageTimes* times) {
  SZSEC_REQUIRE(out.size() == dims.count(), "output size mismatch");
  SZSEC_CHECK_FORMAT(codes.size() == dims.count(),
                     "code count does not match dims");
  ScopedStageTimer timer(times, "reconstruct");

  const Shape s = normalize(dims);
  const BlockShape bs = block_shape(s, params);
  const LinearQuantizer quant(params.abs_error_bound, params.quant_bins);
  const CoeffCodec codec(params.abs_error_bound, params.block_side);
  UnpredictableDecoder unpred(unpredictable, params.abs_error_bound);
  ByteReader side(side_info);

  const uint32_t* code_it = codes.data();
  const size_t vol = s.nz * s.ny * s.nx;
  for (size_t t = 0; t < s.nt; ++t) {
    if (params.predictor == Predictor::kInterpolation) {
      interp_decode_volume(out.data() + t * vol, s.nz, s.ny, s.nx, quant,
                           unpred, code_it);
    } else {
      decode_volume(out.data() + t * vol, s.nz, s.ny, s.nx, params, quant,
                    codec, unpred, side, code_it, bs);
    }
  }
}

}  // namespace

QuantizedField predict_quantize(std::span<const float> data, const Dims& dims,
                                const Params& params, StageTimes* times) {
  return predict_quantize_impl(data, dims, params, times);
}

QuantizedField predict_quantize(std::span<const double> data,
                                const Dims& dims, const Params& params,
                                StageTimes* times) {
  return predict_quantize_impl(data, dims, params, times);
}

std::vector<uint64_t> block_scan_order(const Dims& dims,
                                       const Params& params) {
  SZSEC_REQUIRE(params.predictor == Predictor::kBlockHybrid,
                "block_scan_order applies to the block predictor only");
  const Shape s = normalize(dims);
  const BlockShape bs = block_shape(s, params);
  std::vector<uint64_t> order;
  order.reserve(dims.count());
  const size_t vol = s.nz * s.ny * s.nx;
  for (size_t t = 0; t < s.nt; ++t) {
    for (size_t z0 = 0; z0 < s.nz; z0 += bs.bz) {
      const size_t bz = std::min(bs.bz, s.nz - z0);
      for (size_t y0 = 0; y0 < s.ny; y0 += bs.by) {
        const size_t by = std::min(bs.by, s.ny - y0);
        for (size_t x0 = 0; x0 < s.nx; x0 += bs.bx) {
          const size_t bx = std::min(bs.bx, s.nx - x0);
          for (size_t z = 0; z < bz; ++z) {
            for (size_t y = 0; y < by; ++y) {
              for (size_t x = 0; x < bx; ++x) {
                order.push_back(t * vol +
                                ((z0 + z) * s.ny + (y0 + y)) * s.nx +
                                (x0 + x));
              }
            }
          }
        }
      }
    }
  }
  return order;
}

EncodedQuant huffman_encode_codes(const QuantizedField& q,
                                  StageTimes* times) {
  ScopedStageTimer timer(times, "huffman");
  EncodedQuant e;
  e.symbol_count = q.codes.size();
  if (q.codes.empty()) return e;
  const huffman::CodeTable table =
      huffman::build_code_table(huffman::count_symbols(q.codes));
  e.tree = huffman::serialize_table(table);
  e.codewords = huffman::encode(table, q.codes);
  return e;
}

std::vector<uint32_t> huffman_decode_codes(BytesView tree, BytesView codewords,
                                           uint64_t count,
                                           StageTimes* times) {
  ScopedStageTimer timer(times, "huffman");
  if (count == 0) return {};
  // Every symbol takes at least one bit, so the stream holds at most
  // min(count, its bit count) of them, and a table using more is forged.
  const huffman::CodeTable table = huffman::deserialize_table(
      tree, std::min<uint64_t>(count, uint64_t{codewords.size()} * 8));
  return huffman::decode(table, codewords, static_cast<size_t>(count));
}

void reconstruct(const Params& params, const Dims& dims,
                 std::span<const uint32_t> codes, BytesView unpredictable,
                 BytesView side_info, std::span<float> out,
                 StageTimes* times) {
  reconstruct_impl(params, dims, codes, unpredictable, side_info, out, times);
}

void reconstruct(const Params& params, const Dims& dims,
                 std::span<const uint32_t> codes, BytesView unpredictable,
                 BytesView side_info, std::span<double> out,
                 StageTimes* times) {
  reconstruct_impl(params, dims, codes, unpredictable, side_info, out, times);
}

}  // namespace szsec::sz
