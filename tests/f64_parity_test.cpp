// float64 parity: every path that handles float32 fields — the four
// schemes through the v2 codec, the v3 chunked archive (strict and
// salvage), and the v1 slab archive — must round-trip double fields
// within the same error bound.  These tests lock the f64 overloads the
// stage-graph refactor threaded through the archive layers.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "archive/chunked.h"
#include "archive/slab.h"
#include "common/stats.h"
#include "core/secure_compressor.h"

namespace szsec {
namespace {

const Bytes kKey = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};

std::vector<double> smooth_field_f64(const Dims& dims, uint64_t seed) {
  std::vector<double> f(dims.count());
  std::mt19937_64 rng(seed);
  double walk = 0;
  for (auto& v : f) {
    walk += static_cast<double>((rng() % 200) - 100) * 1e-3;
    v = walk + 0.25 * std::sin(walk);
  }
  return f;
}

sz::Params tight_params() {
  sz::Params params;
  params.abs_error_bound = 1e-3;
  return params;
}

class F64Schemes : public ::testing::TestWithParam<core::Scheme> {};

TEST_P(F64Schemes, ContainerRoundTripWithinBound) {
  const core::Scheme scheme = GetParam();
  const Dims dims{10, 12, 8};
  const std::vector<double> field = smooth_field_f64(dims, 0xD0D0);
  const sz::Params params = tight_params();
  const core::SecureCompressor c(
      params, scheme,
      scheme == core::Scheme::kNone ? BytesView{} : BytesView(kKey));
  const core::CompressResult r =
      c.compress(std::span<const double>(field), dims);
  EXPECT_EQ(core::peek_header(BytesView(r.container)).dtype,
            sz::DType::kFloat64);

  const core::DecompressResult out = c.decompress(BytesView(r.container));
  EXPECT_EQ(out.dtype, sz::DType::kFloat64);
  EXPECT_TRUE(out.f32.empty());
  ASSERT_EQ(out.f64.size(), field.size());
  EXPECT_TRUE(within_abs_bound(std::span<const double>(field),
                               std::span<const double>(out.f64),
                               params.abs_error_bound));
}

TEST_P(F64Schemes, ChunkedStrictRoundTripWithinBound) {
  const core::Scheme scheme = GetParam();
  const Dims dims{16, 10, 10};
  const std::vector<double> field = smooth_field_f64(dims, 0xD1D1);
  const sz::Params params = tight_params();
  archive::ChunkedConfig config;
  config.chunks = 4;
  config.threads = 2;
  crypto::CtrDrbg drbg(0xD1D2);
  const archive::ChunkedCompressResult r = archive::compress_chunked(
      std::span<const double>(field), dims, params, scheme,
      scheme == core::Scheme::kNone ? BytesView{} : BytesView(kKey), {},
      config, &drbg);
  EXPECT_EQ(r.chunk_count, 4u);

  const std::vector<double> out = archive::decompress_chunked_f64(
      BytesView(r.archive), BytesView(kKey));
  ASSERT_EQ(out.size(), field.size());
  EXPECT_TRUE(within_abs_bound(std::span<const double>(field),
                               std::span<const double>(out),
                               params.abs_error_bound));

  // The f32 strict decoder must reject a float64 archive, not
  // misinterpret it.
  EXPECT_THROW(archive::decompress_chunked_f32(BytesView(r.archive),
                                               BytesView(kKey)),
               CorruptError);
}

TEST_P(F64Schemes, SalvageOnIntactF64ArchiveIsComplete) {
  const core::Scheme scheme = GetParam();
  const Dims dims{16, 10, 10};
  const std::vector<double> field = smooth_field_f64(dims, 0xD2D2);
  const sz::Params params = tight_params();
  archive::ChunkedConfig config;
  config.chunks = 4;
  config.threads = 2;
  crypto::CtrDrbg drbg(0xD2D3);
  const archive::ChunkedCompressResult r = archive::compress_chunked(
      std::span<const double>(field), dims, params, scheme,
      scheme == core::Scheme::kNone ? BytesView{} : BytesView(kKey), {},
      config, &drbg);

  const archive::SalvageResult s = archive::decompress_salvage_f64(
      BytesView(r.archive), BytesView(kKey));
  EXPECT_EQ(s.dtype, sz::DType::kFloat64);
  EXPECT_TRUE(s.f32.empty());
  EXPECT_TRUE(s.report.index_intact);
  EXPECT_TRUE(s.report.complete());
  EXPECT_DOUBLE_EQ(s.report.recovered_fraction(), 1.0);
  ASSERT_EQ(s.f64.size(), field.size());
  EXPECT_TRUE(within_abs_bound(std::span<const double>(field),
                               std::span<const double>(s.f64),
                               params.abs_error_bound));
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, F64Schemes,
                         ::testing::Values(core::Scheme::kNone,
                                           core::Scheme::kCmprEncr,
                                           core::Scheme::kEncrQuant,
                                           core::Scheme::kEncrHuffman));

TEST(F64Salvage, DroppedChunkFillsWithMeanAndReportsLoss) {
  const Dims dims{16, 8, 8};
  const std::vector<double> field = smooth_field_f64(dims, 0xD3D3);
  const sz::Params params = tight_params();
  archive::ChunkedConfig config;
  config.chunks = 4;
  config.threads = 2;
  crypto::CtrDrbg drbg(0xD3D4);
  const archive::ChunkedCompressResult r = archive::compress_chunked(
      std::span<const double>(field), dims, params,
      core::Scheme::kEncrHuffman, BytesView(kKey), {}, config, &drbg);

  // Excise chunk 1's frame bytes entirely (simulated lost extent).
  const archive::ChunkIndex index =
      archive::read_chunk_index(BytesView(r.archive));
  const archive::ChunkEntry& victim = index.entries[1];
  Bytes bad(r.archive.begin(), r.archive.end());
  bad.erase(bad.begin() + static_cast<std::ptrdiff_t>(victim.offset),
            bad.begin() +
                static_cast<std::ptrdiff_t>(victim.offset +
                                            victim.frame_len));

  const archive::SalvageResult s =
      archive::decompress_salvage_f64(BytesView(bad), BytesView(kKey));
  EXPECT_EQ(s.dtype, sz::DType::kFloat64);
  EXPECT_EQ(s.report.chunks_recovered, 3u);
  EXPECT_EQ(s.report.chunks[1].status, archive::ChunkStatus::kMissing);
  ASSERT_EQ(s.f64.size(), field.size());

  // Recovered rows stay within the bound; lost rows carry the mean of
  // recovered elements (finite, not NaN/zero-only by construction).
  const size_t plane = dims.count() / dims[0];
  for (size_t row = 0; row < dims[0]; ++row) {
    const bool lost = row >= victim.row_start &&
                      row < victim.row_start + victim.row_extent;
    if (lost) continue;
    for (size_t i = row * plane; i < (row + 1) * plane; ++i) {
      EXPECT_NEAR(s.f64[i], field[i], params.abs_error_bound) << i;
    }
  }
  for (size_t i = victim.row_start * plane;
       i < (victim.row_start + victim.row_extent) * plane; ++i) {
    EXPECT_TRUE(std::isfinite(s.f64[i]));
  }
}

TEST(F64Slabs, SlabArchiveRoundTripWithinBound) {
  const Dims dims{12, 9, 9};
  const std::vector<double> field = smooth_field_f64(dims, 0xD4D4);
  const sz::Params params = tight_params();
  archive::ChunkedConfig config;
  config.chunks = 3;
  config.threads = 2;
  crypto::CtrDrbg drbg(0xD4D5);
  const archive::ChunkedCompressResult r = archive::compress_slabs(
      std::span<const double>(field), dims, params, core::Scheme::kCmprEncr,
      BytesView(kKey), {}, config, &drbg);
  EXPECT_EQ(r.chunk_count, 3u);

  const std::vector<double> out = archive::decompress_slabs_f64(
      BytesView(r.archive), BytesView(kKey));
  ASSERT_EQ(out.size(), field.size());
  EXPECT_TRUE(within_abs_bound(std::span<const double>(field),
                               std::span<const double>(out),
                               params.abs_error_bound));

  // And the dtype cross-check: the f32 decoder rejects an f64 archive.
  EXPECT_THROW(archive::decompress_slabs_f32(BytesView(r.archive),
                                             BytesView(kKey)),
               CorruptError);
}

}  // namespace
}  // namespace szsec
