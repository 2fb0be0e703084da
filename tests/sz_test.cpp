// SZ pipeline tests: quantizer algebra, unpredictable-value codec,
// predictor identities, regression fitting, and — most importantly — the
// error-bound guarantee on full predict/quantize -> reconstruct round
// trips across ranks, dtypes, and data regimes.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <random>

#include "common/stats.h"
#include "data/datasets.h"
#include "sz/analysis.h"
#include "sz/pipeline.h"
#include "sz/predictor.h"
#include "sz/quantizer.h"
#include "sz/regression.h"
#include "sz/unpredictable.h"

namespace szsec::sz {
namespace {

// --- Rounding ------------------------------------------------------------------

void expect_rounds_like_nearbyint(double x) {
  ASSERT_EQ(std::bit_cast<uint64_t>(round_half_even(x)),
            std::bit_cast<uint64_t>(std::nearbyint(x)))
      << "x = " << x << " (bits " << std::hex << std::bit_cast<uint64_t>(x)
      << ")";
}

TEST(Rounding, EdgeValuesMatchNearbyint) {
  using lim = std::numeric_limits<double>;
  const double two51 = 2251799813685248.0, two52 = 2 * two51;
  const double values[] = {
      0.0, -0.0, 0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 0.49999999999999994,
      -0.49999999999999994, 3.5, -1e-300, two51 - 0.5, two51 + 0.5,
      -(two51 + 0.5), two52 - 1, two52 - 0.5, two52, two52 + 1, -(two52 + 1),
      2 * two52 + 2, lim::max(), -lim::max(), lim::min(), -lim::min(),
      lim::denorm_min(), -lim::denorm_min(), lim::min() / 3, lim::infinity(),
      -lim::infinity(), lim::quiet_NaN(), -lim::quiet_NaN(),
      std::bit_cast<double>(uint64_t{0x7FF8000000000123}),
      lim::signaling_NaN()};
  for (const double x : values) expect_rounds_like_nearbyint(x);
}

TEST(Rounding, SeededRandomDoublesMatchNearbyint) {
  std::mt19937_64 rng(0x40D);
  std::uniform_int_distribution<int> exponent(-3, 54);
  for (int i = 0; i < 1000000; ++i) {
    double x = 0;
    switch (i % 3) {
      case 0:  // any bit pattern: every exponent, NaNs and infinities
        x = std::bit_cast<double>(rng());
        break;
      case 1:  // the magnitudes where rounding does something
        x = std::ldexp(std::bit_cast<double>((rng() >> 12) |
                                             0x3FF0000000000000ull),
                       exponent(rng));
        break;
      default:  // ties
        x = static_cast<double>(static_cast<int64_t>(rng() >> 12)) + 0.5;
    }
    if (rng() & 1) x = -x;
    expect_rounds_like_nearbyint(x);
  }
}

// --- LinearQuantizer ---------------------------------------------------------

TEST(Quantizer, RoundTripWithinBound) {
  const LinearQuantizer q(1e-3, 65536);
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> vals(-10, 10);
  for (int i = 0; i < 10000; ++i) {
    const double v = vals(rng);
    const double pred = vals(rng) * 0.1 + v;  // prediction near the value
    double recon = 0;
    const uint32_t code = q.quantize(v, pred, recon);
    if (code != 0) {
      EXPECT_LE(std::abs(recon - v), 1e-3 * (1 + 1e-12));
      EXPECT_DOUBLE_EQ(q.dequantize(code, pred), recon);
      EXPECT_GE(code, 1u);
      EXPECT_LT(code, 65536u);
    }
  }
}

TEST(Quantizer, PerfectPredictionIsCenterCode) {
  const LinearQuantizer q(1e-4, 65536);
  double recon = 0;
  const uint32_t code = q.quantize(1.5, 1.5, recon);
  EXPECT_EQ(code, 32768u);  // radius
  EXPECT_DOUBLE_EQ(recon, 1.5);
}

TEST(Quantizer, FarValueIsUnpredictable) {
  const LinearQuantizer q(1e-6, 65536);
  double recon = 0;
  // Needs |diff| / 2eb >= 32768 bins: diff = 1.0 >> 32768 * 2e-6.
  EXPECT_EQ(q.quantize(1.0, 0.0, recon), 0u);
}

TEST(Quantizer, NonFiniteIsUnpredictable) {
  const LinearQuantizer q(1e-3, 65536);
  float recon = 0;
  EXPECT_EQ(q.quantize(std::numeric_limits<float>::infinity(), 0.0f, recon),
            0u);
  EXPECT_EQ(q.quantize(std::numeric_limits<float>::quiet_NaN(), 0.0f, recon),
            0u);
}

class QuantizerBinsTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(QuantizerBinsTest, CodeRangeRespected) {
  const uint32_t bins = GetParam();
  const LinearQuantizer q(1e-2, bins);
  std::mt19937_64 rng(bins);
  std::uniform_real_distribution<double> vals(-1e3, 1e3);
  for (int i = 0; i < 2000; ++i) {
    const double v = vals(rng), pred = vals(rng);
    double recon = 0;
    const uint32_t code = q.quantize(v, pred, recon);
    EXPECT_LT(code, bins);
    if (code != 0) EXPECT_LE(std::abs(recon - v), 1e-2 * (1 + 1e-12));
  }
}

INSTANTIATE_TEST_SUITE_P(BinCounts, QuantizerBinsTest,
                         ::testing::Values(4, 256, 4096, 65536, 1u << 20));

// --- Unpredictable codec -------------------------------------------------------

template <typename T>
void check_unpredictable_roundtrip(double eb, std::vector<T> values) {
  UnpredictableEncoder enc(eb);
  std::vector<T> truncated;
  truncated.reserve(values.size());
  using Raw = std::conditional_t<std::is_same_v<T, float>, uint32_t,
                                 uint64_t>;
  for (T v : values) {
    const T pure = enc.truncate(v);
    truncated.push_back(enc.put(v));
    EXPECT_EQ(std::bit_cast<Raw>(pure), std::bit_cast<Raw>(truncated.back()));
  }
  const Bytes blob = enc.finish();
  UnpredictableDecoder dec{BytesView(blob), eb};
  for (size_t i = 0; i < values.size(); ++i) {
    T decoded;
    if constexpr (std::is_same_v<T, float>) {
      decoded = dec.next_f32();
    } else {
      decoded = dec.next_f64();
    }
    // Decoder sees exactly what the encoder reported.
    const Raw decoded_raw = std::bit_cast<Raw>(decoded);
    const Raw truncated_raw = std::bit_cast<Raw>(truncated[i]);
    EXPECT_EQ(decoded_raw, truncated_raw);
    // And the truncation respects the error bound (finite values).
    if (std::isfinite(values[i])) {
      EXPECT_LE(std::abs(static_cast<double>(decoded) - values[i]), eb)
          << "value " << values[i] << " eb " << eb;
    }
  }
}

TEST(Unpredictable, Float32RoundTripVariousMagnitudes) {
  for (double eb : {1e-7, 1e-5, 1e-3, 1e-1}) {
    std::vector<float> vals = {0.0f,    -0.0f,   1.0f,     -1.0f,
                               3.14f,   1e-10f,  -2.5e8f,  6.25e-2f,
                               1e20f,   -1e-20f, 123.456f, 0.999999f};
    check_unpredictable_roundtrip(eb, vals);
  }
}

TEST(Unpredictable, Float64RoundTripVariousMagnitudes) {
  for (double eb : {1e-9, 1e-6, 1e-3}) {
    std::vector<double> vals = {0.0,   -0.0,  1.0,    -1.0,   2.718281828,
                                1e-30, 1e100, -3.5e7, 1e-3, 42.0};
    check_unpredictable_roundtrip(eb, vals);
  }
}

TEST(Unpredictable, RandomizedFloat32) {
  std::mt19937_64 rng(77);
  std::uniform_real_distribution<float> vals(-1e6f, 1e6f);
  std::vector<float> values(5000);
  for (auto& v : values) v = vals(rng);
  check_unpredictable_roundtrip(1e-4, values);
}

TEST(Unpredictable, InfAndNanSurvive) {
  UnpredictableEncoder enc(1e-3);
  enc.put(std::numeric_limits<float>::infinity());
  enc.put(-std::numeric_limits<float>::infinity());
  enc.put(std::numeric_limits<float>::quiet_NaN());
  const Bytes blob = enc.finish();
  UnpredictableDecoder dec{BytesView(blob), 1e-3};
  EXPECT_EQ(dec.next_f32(), std::numeric_limits<float>::infinity());
  EXPECT_EQ(dec.next_f32(), -std::numeric_limits<float>::infinity());
  EXPECT_TRUE(std::isnan(dec.next_f32()));
}

TEST(Unpredictable, TightBoundStoresMoreBits) {
  // The blob for eb=1e-9 must be larger than for eb=1e-1 on the same data.
  std::mt19937_64 rng(3);
  std::vector<float> values(1000);
  std::uniform_real_distribution<float> vals(-100.f, 100.f);
  for (auto& v : values) v = vals(rng);
  auto blob_size = [&](double eb) {
    UnpredictableEncoder enc(eb);
    for (float v : values) enc.put(v);
    return enc.finish().size();
  };
  EXPECT_GT(blob_size(1e-9), blob_size(1e-1));
}

// --- Predictors ----------------------------------------------------------------

TEST(Lorenzo, ExactOnLinearField1D) {
  // 1D Lorenzo reproduces constants exactly.
  std::vector<double> recon = {5.0, 5.0, 5.0};
  const Lorenzo1D<double> p{recon.data()};
  EXPECT_DOUBLE_EQ(p.predict(0), 0.0);  // boundary: zero
  EXPECT_DOUBLE_EQ(p.predict(1), 5.0);
  EXPECT_DOUBLE_EQ(p.predict(2), 5.0);
}

TEST(Lorenzo, ExactOnLinearField2D) {
  // 2D Lorenzo is exact for planes f(x,y) = a + bx + cy (its second mixed
  // difference annihilates them; an xy cross term would survive).
  const size_t ny = 8, nx = 8;
  std::vector<double> f(ny * nx);
  for (size_t j = 0; j < ny; ++j) {
    for (size_t i = 0; i < nx; ++i) {
      f[j * nx + i] = 2.0 + 3.0 * i + 5.0 * j;
    }
  }
  const Lorenzo2D<double> p{f.data(), ny, nx};
  for (size_t j = 1; j < ny; ++j) {
    for (size_t i = 1; i < nx; ++i) {
      EXPECT_NEAR(p.predict(j, i), f[j * nx + i], 1e-9);
    }
  }
}

TEST(Lorenzo, ExactOnLinearField3D) {
  const size_t nz = 5, ny = 5, nx = 5;
  std::vector<double> f(nz * ny * nx);
  for (size_t k = 0; k < nz; ++k) {
    for (size_t j = 0; j < ny; ++j) {
      for (size_t i = 0; i < nx; ++i) {
        f[(k * ny + j) * nx + i] = 1.0 + 2.0 * i + 3.0 * j + 4.0 * k;
      }
    }
  }
  const Lorenzo3D<double> p{f.data(), nz, ny, nx};
  for (size_t k = 1; k < nz; ++k) {
    for (size_t j = 1; j < ny; ++j) {
      for (size_t i = 1; i < nx; ++i) {
        EXPECT_NEAR(p.predict(k, j, i), f[(k * ny + j) * nx + i], 1e-9);
      }
    }
  }
}

// --- Regression -----------------------------------------------------------------

TEST(Regression, RecoversExactLinearField) {
  const size_t bz = 4, by = 5, bx = 6;
  std::vector<double> block(bz * by * bx);
  for (size_t z = 0; z < bz; ++z) {
    for (size_t y = 0; y < by; ++y) {
      for (size_t x = 0; x < bx; ++x) {
        block[(z * by + y) * bx + x] = 7.0 + 0.5 * z - 1.25 * y + 2.0 * x;
      }
    }
  }
  const RegressionCoeffs c =
      fit_block(block.data(), bz, by, bx, by * bx, bx, 1);
  EXPECT_NEAR(c.slope[0], 0.5, 1e-9);
  EXPECT_NEAR(c.slope[1], -1.25, 1e-9);
  EXPECT_NEAR(c.slope[2], 2.0, 1e-9);
  EXPECT_NEAR(c.intercept, 7.0, 1e-9);
}

TEST(Regression, DegenerateExtents) {
  // Extent-1 axes get zero slope.
  const std::vector<double> block = {1.0, 2.0, 3.0, 4.0};
  const RegressionCoeffs c = fit_block(block.data(), 1, 1, 4, 4, 4, 1);
  EXPECT_DOUBLE_EQ(c.slope[0], 0.0);
  EXPECT_DOUBLE_EQ(c.slope[1], 0.0);
  EXPECT_NEAR(c.slope[2], 1.0, 1e-9);
  EXPECT_NEAR(c.intercept, 1.0, 1e-9);
}

TEST(Regression, CoeffCodecRoundTrip) {
  const CoeffCodec codec(1e-3, 6);
  RegressionCoeffs c;
  c.slope[0] = 0.123;
  c.slope[1] = -45.6;
  c.slope[2] = 1e-7;
  c.intercept = 1234.5;
  ByteWriter w;
  RegressionCoeffs quantized = c;
  codec.encode(quantized, w);
  const Bytes buf = w.take();
  ByteReader r{BytesView(buf)};
  const RegressionCoeffs decoded = codec.decode(r);
  for (int i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(decoded.slope[i], quantized.slope[i]);
    EXPECT_NEAR(decoded.slope[i], c.slope[i], 1e-3 / 12.0 + 1e-12);
  }
  EXPECT_DOUBLE_EQ(decoded.intercept, quantized.intercept);
  EXPECT_NEAR(decoded.intercept, c.intercept, 5e-4 + 1e-12);
}

// --- Full pipeline round trips ---------------------------------------------------

template <typename T>
void expect_pipeline_bound(std::span<const T> data, const Dims& dims,
                           const Params& params) {
  const QuantizedField q = predict_quantize(data, dims, params);
  ASSERT_EQ(q.codes.size(), dims.count());

  const EncodedQuant enc = huffman_encode_codes(q);
  const std::vector<uint32_t> codes = huffman_decode_codes(
      BytesView(enc.tree), BytesView(enc.codewords), enc.symbol_count);
  ASSERT_EQ(codes, q.codes);

  std::vector<T> out(dims.count());
  reconstruct(params, dims, codes, BytesView(q.unpredictable),
              BytesView(q.side_info), std::span<T>(out));
  EXPECT_TRUE(within_abs_bound(data, std::span<const T>(out),
                               params.abs_error_bound));
}

class PipelineEbTest : public ::testing::TestWithParam<double> {};

TEST_P(PipelineEbTest, SmoothField3DWithinBound) {
  const Dims dims{16, 20, 24};
  std::vector<float> f(dims.count());
  for (size_t k = 0; k < 16; ++k) {
    for (size_t j = 0; j < 20; ++j) {
      for (size_t i = 0; i < 24; ++i) {
        f[(k * 20 + j) * 24 + i] = static_cast<float>(
            std::sin(0.3 * k) * std::cos(0.2 * j) + 0.05 * i);
      }
    }
  }
  Params p;
  p.abs_error_bound = GetParam();
  expect_pipeline_bound(std::span<const float>(f), dims, p);
}

INSTANTIATE_TEST_SUITE_P(ErrorBounds, PipelineEbTest,
                         ::testing::Values(1e-7, 1e-6, 1e-5, 1e-4, 1e-3,
                                           1e-2, 1e-1));

TEST(Pipeline, RandomNoiseWithinBound) {
  // Worst case: incompressible noise — nearly all unpredictable at a
  // tight bound, still within bound after reconstruction.
  const Dims dims{10, 12, 14};
  std::mt19937_64 rng(41);
  std::uniform_real_distribution<float> vals(-100.f, 100.f);
  std::vector<float> f(dims.count());
  for (auto& v : f) v = vals(rng);
  Params p;
  p.abs_error_bound = 1e-6;
  expect_pipeline_bound(std::span<const float>(f), dims, p);
}

TEST(Pipeline, ConstantFieldCompressesToNearNothing) {
  const Dims dims{32, 32, 32};
  const std::vector<float> f(dims.count(), 3.25f);
  Params p;
  p.abs_error_bound = 1e-5;
  const QuantizedField q =
      predict_quantize(std::span<const float>(f), dims, p);
  EXPECT_EQ(q.unpredictable_count, 0u);
  const EncodedQuant enc = huffman_encode_codes(q);
  // One symbol: 1 bit per element.
  EXPECT_LE(enc.codewords.size(), dims.count() / 8 + 8);
  expect_pipeline_bound(std::span<const float>(f), dims, p);
}

class PipelineRankTest : public ::testing::TestWithParam<Dims> {};

TEST_P(PipelineRankTest, AllRanksWithinBound) {
  const Dims dims = GetParam();
  std::mt19937_64 rng(dims.rank());
  std::vector<float> f(dims.count());
  float walk = 0;
  for (auto& v : f) {
    walk += static_cast<float>((rng() % 1000) - 500) * 1e-4f;
    v = walk;
  }
  Params p;
  p.abs_error_bound = 1e-4;
  expect_pipeline_bound(std::span<const float>(f), dims, p);
}

INSTANTIATE_TEST_SUITE_P(
    Ranks, PipelineRankTest,
    ::testing::Values(Dims{1000}, Dims{50, 60}, Dims{12, 13, 14},
                      Dims{3, 8, 10, 12},
                      // Extents below / at / above block sides:
                      Dims{5}, Dims{6, 6}, Dims{6, 6, 6}, Dims{7, 7, 7},
                      Dims{1, 1, 100}, Dims{2, 3, 4, 5}));

TEST(Pipeline, Float64WithinBound) {
  const Dims dims{8, 16, 16};
  std::vector<double> f(dims.count());
  for (size_t i = 0; i < f.size(); ++i) {
    f[i] = std::sin(i * 0.01) * 1e6;
  }
  Params p;
  p.abs_error_bound = 1e-4;
  expect_pipeline_bound(std::span<const double>(f), dims, p);
}

TEST(Pipeline, MeanPredictorWinsOnDenseClusteredData) {
  // Field with 95% of values at exactly one level: mean mode should fire.
  const Dims dims{12, 12, 12};
  std::mt19937_64 rng(8);
  std::vector<float> f(dims.count(), 100.0f);
  for (auto& v : f) {
    if (rng() % 20 == 0) v = 100.0f + (rng() % 100) * 0.01f;
  }
  Params p;
  p.abs_error_bound = 1e-3;
  expect_pipeline_bound(std::span<const float>(f), dims, p);
}

TEST(Pipeline, PredictorTogglesStillRespectBound) {
  const Dims dims{10, 10, 10};
  std::vector<float> f(dims.count());
  for (size_t i = 0; i < f.size(); ++i) {
    f[i] = static_cast<float>(i % 97) * 0.1f;
  }
  for (bool use_reg : {false, true}) {
    for (bool use_mean : {false, true}) {
      Params p;
      p.abs_error_bound = 1e-3;
      p.use_regression = use_reg;
      p.use_mean_predictor = use_mean;
      expect_pipeline_bound(std::span<const float>(f), dims, p);
    }
  }
}

TEST(Pipeline, SyntheticDatasetsWithinBoundAtAllErrorBounds) {
  for (const std::string& name : data::dataset_names()) {
    const data::Dataset d = data::make_dataset(name, data::Scale::kTiny);
    for (double eb : {1e-7, 1e-5, 1e-3}) {
      Params p;
      p.abs_error_bound = eb;
      expect_pipeline_bound(std::span<const float>(d.values), d.dims, p);
    }
  }
}

TEST(Pipeline, PredictableFractionIsSane) {
  const data::Dataset d = data::make_cloudf48(data::Scale::kTiny);
  Params p;
  p.abs_error_bound = 1e-3;
  const QuantizedField q =
      predict_quantize(std::span<const float>(d.values), d.dims, p);
  const double frac = predictable_fraction(q);
  EXPECT_GE(frac, 0.0);
  EXPECT_LE(frac, 1.0);
  EXPECT_GT(frac, 0.5);  // sparse cloud data is mostly predictable
}

TEST(Pipeline, InvalidParamsThrow) {
  const std::vector<float> f(8, 0.f);
  Params p;
  p.abs_error_bound = 0;  // invalid
  EXPECT_THROW(
      predict_quantize(std::span<const float>(f), Dims{8}, p), Error);
  p.abs_error_bound = 1e-3;
  p.quant_bins = 7;  // odd
  EXPECT_THROW(
      predict_quantize(std::span<const float>(f), Dims{8}, p), Error);
  p.quant_bins = 65536;
  EXPECT_THROW(
      predict_quantize(std::span<const float>(f), Dims{9}, p), Error);
}

TEST(Pipeline, RelativeBoundResolvesAgainstRange) {
  const Dims dims{8, 8, 8};
  std::vector<float> f(dims.count());
  for (size_t i = 0; i < f.size(); ++i) {
    f[i] = 100.0f + 50.0f * std::sin(i * 0.05f);  // range ~100
  }
  Params p;
  p.eb_mode = ErrorBoundMode::kRel;
  p.rel_error_bound = 1e-4;
  const QuantizedField q =
      predict_quantize(std::span<const float>(f), dims, p);
  // Resolved bound = rel * range, recorded as ABS in the output params.
  EXPECT_EQ(q.params.eb_mode, ErrorBoundMode::kAbs);
  EXPECT_NEAR(q.params.abs_error_bound, 1e-4 * 100.0, 2e-5);
  std::vector<float> out(dims.count());
  reconstruct(q.params, dims, q.codes, BytesView(q.unpredictable),
              BytesView(q.side_info), std::span<float>(out));
  EXPECT_TRUE(within_abs_bound(std::span<const float>(f),
                               std::span<const float>(out),
                               q.params.abs_error_bound));
}

TEST(Pipeline, RelativeBoundOnConstantField) {
  // Zero range must not produce a zero bound.
  const Dims dims{64};
  const std::vector<float> f(64, 5.0f);
  Params p;
  p.eb_mode = ErrorBoundMode::kRel;
  p.rel_error_bound = 1e-3;
  const QuantizedField q =
      predict_quantize(std::span<const float>(f), dims, p);
  EXPECT_GT(q.params.abs_error_bound, 0.0);
  std::vector<float> out(64);
  reconstruct(q.params, dims, q.codes, BytesView(q.unpredictable),
              BytesView(q.side_info), std::span<float>(out));
  for (float v : out) EXPECT_FLOAT_EQ(v, 5.0f);
}

TEST(Pipeline, InvalidRelativeBoundThrows) {
  const std::vector<float> f(8, 0.f);
  Params p;
  p.eb_mode = ErrorBoundMode::kRel;
  p.rel_error_bound = 0;
  EXPECT_THROW(
      predict_quantize(std::span<const float>(f), Dims{8}, p), Error);
}

TEST(Pipeline, BlockScanOrderIsAPermutation) {
  for (const Dims& dims :
       {Dims{7, 9, 11}, Dims{100}, Dims{13, 14}, Dims{2, 3, 4, 5}}) {
    const std::vector<uint64_t> order = block_scan_order(dims, Params{});
    ASSERT_EQ(order.size(), dims.count());
    std::vector<bool> seen(dims.count(), false);
    for (uint64_t idx : order) {
      ASSERT_LT(idx, dims.count());
      ASSERT_FALSE(seen[idx]) << "duplicate index " << idx;
      seen[idx] = true;
    }
  }
}

TEST(Pipeline, BlockScanOrderMatchesCodeLayout) {
  // codes[i] must describe element order[i]: check on a field where a
  // single element is unpredictable and everything else is constant.
  const Dims dims{10, 10, 10};
  std::vector<float> f(dims.count(), 1.0f);
  const size_t spike = 537;
  f[spike] = 1e20f;  // far outside any prediction: unpredictable
  Params p;
  p.abs_error_bound = 1e-5;
  const QuantizedField q =
      predict_quantize(std::span<const float>(f), dims, p);
  const std::vector<uint64_t> order = block_scan_order(dims, p);
  size_t unpredictable_at = dims.count();
  size_t count = 0;
  for (size_t i = 0; i < q.codes.size(); ++i) {
    if (q.codes[i] == 0) {
      unpredictable_at = order[i];
      ++count;
    }
  }
  // The spike is unpredictable; its neighbours may also suffer, but the
  // spike itself must be among the marked positions.
  ASSERT_GE(count, 1u);
  EXPECT_EQ(q.unpredictable_count, count);
  bool found = false;
  for (size_t i = 0; i < q.codes.size(); ++i) {
    if (q.codes[i] == 0 && order[i] == spike) found = true;
  }
  EXPECT_TRUE(found);
  (void)unpredictable_at;
}

// --- Interpolation predictor (SZ3-style) --------------------------------------

class InterpEbTest : public ::testing::TestWithParam<double> {};

TEST_P(InterpEbTest, SmoothFieldWithinBound) {
  const Dims dims{17, 19, 23};  // deliberately non-power-of-two
  std::vector<float> f(dims.count());
  for (size_t k = 0; k < 17; ++k) {
    for (size_t j = 0; j < 19; ++j) {
      for (size_t i = 0; i < 23; ++i) {
        f[(k * 19 + j) * 23 + i] = static_cast<float>(
            std::sin(0.2 * k) * std::cos(0.15 * j) + 0.01 * i * i);
      }
    }
  }
  Params p;
  p.abs_error_bound = GetParam();
  p.predictor = Predictor::kInterpolation;
  expect_pipeline_bound(std::span<const float>(f), dims, p);
}

INSTANTIATE_TEST_SUITE_P(ErrorBounds, InterpEbTest,
                         ::testing::Values(1e-6, 1e-4, 1e-2));

class InterpRankTest : public ::testing::TestWithParam<Dims> {};

TEST_P(InterpRankTest, AllShapesWithinBound) {
  const Dims dims = GetParam();
  std::mt19937_64 rng(dims.count());
  std::vector<float> f(dims.count());
  float walk = 0;
  for (auto& v : f) {
    walk += static_cast<float>((rng() % 100) - 50) * 1e-3f;
    v = walk;
  }
  Params p;
  p.abs_error_bound = 1e-4;
  p.predictor = Predictor::kInterpolation;
  expect_pipeline_bound(std::span<const float>(f), dims, p);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, InterpRankTest,
    ::testing::Values(Dims{1}, Dims{2}, Dims{3}, Dims{64}, Dims{65},
                      Dims{16, 16}, Dims{15, 33}, Dims{8, 8, 8},
                      Dims{9, 17, 5}, Dims{2, 7, 11, 13}));

TEST(Interpolation, BeatsBlockPredictorOnSmoothData) {
  // The point of SZ3's interpolation: smoother fields, fewer bits.  A
  // band-limited field should produce a meaningfully smaller Huffman
  // stream under interpolation.
  const data::Dataset d = data::make_wf48(data::Scale::kTiny);
  auto quant_bits = [&](Predictor pred) {
    Params p;
    p.abs_error_bound = 1e-3;
    p.predictor = pred;
    const QuantizedField q =
        predict_quantize(std::span<const float>(d.values), d.dims, p);
    const EncodedQuant e = huffman_encode_codes(q);
    return e.codewords.size() + e.tree.size() + q.unpredictable.size();
  };
  const size_t block = quant_bits(Predictor::kBlockHybrid);
  const size_t interp = quant_bits(Predictor::kInterpolation);
  // At this tiny scale the coarse interpolation levels predict across
  // long distances, so only competitiveness (within 50%) is asserted;
  // bench_ablation_predictor reports the bench-scale comparison where
  // interpolation pulls ahead on smooth fields.
  EXPECT_LT(interp, block + block / 2);
}

TEST(Interpolation, RandomNoiseStillWithinBound) {
  const Dims dims{11, 12, 13};
  std::mt19937_64 rng(5);
  std::vector<float> f(dims.count());
  std::uniform_real_distribution<float> vals(-50.f, 50.f);
  for (auto& v : f) v = vals(rng);
  Params p;
  p.abs_error_bound = 1e-5;
  p.predictor = Predictor::kInterpolation;
  expect_pipeline_bound(std::span<const float>(f), dims, p);
}

TEST(Interpolation, Float64WithinBound) {
  const Dims dims{12, 12, 12};
  std::vector<double> f(dims.count());
  for (size_t i = 0; i < f.size(); ++i) f[i] = std::cos(i * 0.02) * 1e3;
  Params p;
  p.abs_error_bound = 1e-6;
  p.predictor = Predictor::kInterpolation;
  expect_pipeline_bound(std::span<const double>(f), dims, p);
}

TEST(Interpolation, BlockScanOrderRejectsInterpMode) {
  Params p;
  p.predictor = Predictor::kInterpolation;
  EXPECT_THROW(block_scan_order(Dims{4, 4, 4}, p), Error);
}

// --- Analysis ------------------------------------------------------------------

TEST(Analysis, ConstantFieldHasZeroEntropy) {
  const Dims dims{16, 16, 16};
  const std::vector<float> f(dims.count(), 2.5f);
  Params p;
  p.abs_error_bound = 1e-4;
  const QuantizedField q =
      predict_quantize(std::span<const float>(f), dims, p);
  const CodeAnalysis a = analyze_codes(q);
  EXPECT_EQ(a.element_count, dims.count());
  EXPECT_EQ(a.distinct_codes, 1u);
  EXPECT_NEAR(a.code_entropy_bits, 0.0, 1e-9);
  EXPECT_DOUBLE_EQ(a.predictable_fraction, 1.0);
}

TEST(Analysis, EstimateTracksActualCompressedSize) {
  // The entropy estimate must land within 2x of the real container size
  // (it ignores lossless-stage gains, so it usually *under*-estimates CR).
  const data::Dataset d = data::make_q2(data::Scale::kTiny);
  for (double eb : {1e-6, 1e-4}) {
    Params p;
    p.abs_error_bound = eb;
    const ProfileRow row =
        profile(std::span<const float>(d.values), d.dims, p);
    const QuantizedField q =
        predict_quantize(std::span<const float>(d.values), d.dims, p);
    const EncodedQuant e = huffman_encode_codes(q);
    const size_t actual_stage3 =
        e.tree.size() + e.codewords.size() + q.unpredictable.size() +
        q.side_info.size();
    EXPECT_GT(row.analysis.estimated_bytes, actual_stage3 / 2);
    EXPECT_LT(row.analysis.estimated_bytes, actual_stage3 * 2);
  }
}

TEST(Analysis, EntropyWithinOneBitOfHuffman) {
  const data::Dataset d = data::make_nyx(data::Scale::kTiny);
  Params p;
  p.abs_error_bound = 1e-4;
  const QuantizedField q =
      predict_quantize(std::span<const float>(d.values), d.dims, p);
  const CodeAnalysis a = analyze_codes(q);
  const EncodedQuant e = huffman_encode_codes(q);
  const double huffman_bits_per_sym =
      8.0 * static_cast<double>(e.codewords.size()) /
      static_cast<double>(q.codes.size());
  EXPECT_GE(huffman_bits_per_sym + 1e-9, a.code_entropy_bits);
  EXPECT_LE(huffman_bits_per_sym, a.code_entropy_bits + 1.0 + 8.0 / 1000);
}

TEST(Analysis, SuggestErrorBoundHitsTarget) {
  const data::Dataset d = data::make_q2(data::Scale::kTiny);
  const double target = 8.0;
  const double eb = suggest_error_bound(std::span<const float>(d.values),
                                        d.dims, target);
  Params p;
  p.abs_error_bound = eb;
  const ProfileRow row =
      profile(std::span<const float>(d.values), d.dims, p);
  EXPECT_GE(row.estimated_cr, target * 0.9);
  // A tighter bound one decade below must miss the target.
  p.abs_error_bound = eb / 10;
  EXPECT_LT(profile(std::span<const float>(d.values), d.dims, p)
                .estimated_cr,
            target * 1.1);
}

TEST(Analysis, SuggestErrorBoundClampsAtBracket) {
  const data::Dataset d = data::make_nyx(data::Scale::kTiny);
  // Nyx cannot reach CR 1000 in the bracket: expect the hi clamp.
  EXPECT_DOUBLE_EQ(suggest_error_bound(std::span<const float>(d.values),
                                       d.dims, 1000.0, 1e-9, 1e-3),
                   1e-3);
  EXPECT_THROW(suggest_error_bound(std::span<const float>(d.values),
                                   d.dims, -1.0),
               Error);
}

TEST(Pipeline, MismatchedCodesThrowOnReconstruct) {
  const Dims dims{4, 4, 4};
  const std::vector<uint32_t> codes(10, 0);  // wrong count
  std::vector<float> out(dims.count());
  Params p;
  EXPECT_THROW(reconstruct(p, dims, codes, {}, {}, std::span<float>(out)),
               Error);
}

}  // namespace
}  // namespace szsec::sz
