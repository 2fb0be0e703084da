// Thread pool and v1 slab archive tests: correctness under concurrency,
// error-bound preservation across slab boundaries, archive format
// robustness, and exception propagation.
#include <gtest/gtest.h>

#include <atomic>
#include <random>

#include "archive/slab.h"
#include "common/stats.h"
#include "core/secure_compressor.h"
#include "data/datasets.h"
#include "parallel/thread_pool.h"

namespace szsec::parallel {
namespace {

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  auto f = pool.submit([] { throw Error("boom"); });
  EXPECT_THROW(f.get(), Error);
}

TEST(ThreadPool, DestructorJoinsCleanly) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 8; ++i) {
      (void)pool.submit([&counter] { ++counter; });
    }
    // Futures intentionally dropped; destructor must still finish work
    // already dequeued and join without deadlock.
  }
  SUCCEED();
}

}  // namespace
}  // namespace szsec::parallel

namespace szsec::archive {
namespace {

const Bytes kKey = {0, 1, 2,  3,  4,  5,  6,  7,
                    8, 9, 10, 11, 12, 13, 14, 15};

class SlabRoundTrip
    : public ::testing::TestWithParam<std::tuple<core::Scheme, size_t>> {};

TEST_P(SlabRoundTrip, WithinBoundAcrossSlabs) {
  const auto [scheme, slabs] = GetParam();
  const data::Dataset d = data::make_height(data::Scale::kTiny);
  sz::Params params;
  params.abs_error_bound = 1e-4;
  crypto::CtrDrbg drbg(404);
  ChunkedConfig config;
  config.threads = 3;
  config.chunks = slabs;
  const ChunkedCompressResult r = compress_slabs(
      std::span<const float>(d.values), d.dims, params, scheme,
      scheme == core::Scheme::kNone ? BytesView{} : BytesView(kKey),
      core::CipherSpec{}, config, &drbg);
  EXPECT_EQ(r.chunk_count, std::min<size_t>(slabs, d.dims[0]));
  MemorySink field_bytes;
  EXPECT_EQ(decompress_slabs_to(
                BytesView(r.archive), field_bytes,
                scheme == core::Scheme::kNone ? BytesView{} : BytesView(kKey))
                .dims,
            d.dims);

  const std::vector<float> out = decompress_slabs_f32(
      BytesView(r.archive),
      scheme == core::Scheme::kNone ? BytesView{} : BytesView(kKey),
      config);
  ASSERT_EQ(out.size(), d.values.size());
  EXPECT_TRUE(within_abs_bound(std::span<const float>(d.values),
                               std::span<const float>(out), 1e-4));
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndSlabCounts, SlabRoundTrip,
    ::testing::Combine(::testing::Values(core::Scheme::kNone,
                                         core::Scheme::kCmprEncr,
                                         core::Scheme::kEncrHuffman),
                       ::testing::Values(1, 2, 5, 16, 1000)));

TEST(Slab, DeterministicWithSeededDrbg) {
  const data::Dataset d = data::make_q2(data::Scale::kTiny);
  sz::Params params;
  params.abs_error_bound = 1e-5;
  ChunkedConfig config;
  config.threads = 2;
  config.chunks = 4;
  auto run = [&] {
    crypto::CtrDrbg drbg(777);
    return compress_slabs(std::span<const float>(d.values), d.dims, params,
                          core::Scheme::kEncrHuffman, BytesView(kKey),
                          core::CipherSpec{}, config, &drbg)
        .archive;
  };
  EXPECT_EQ(run(), run());
}

TEST(Slab, CompressionRatioCostIsModest) {
  // Slabbing breaks cross-slab prediction; the CR penalty must stay small.
  const data::Dataset d = data::make_q2(data::Scale::kTiny);
  sz::Params params;
  params.abs_error_bound = 1e-4;
  crypto::CtrDrbg drbg(11);
  ChunkedConfig one, four;
  one.chunks = 1;
  four.chunks = 4;
  const auto single =
      compress_slabs(std::span<const float>(d.values), d.dims, params,
                     core::Scheme::kNone, {}, {}, one, &drbg);
  const auto split =
      compress_slabs(std::span<const float>(d.values), d.dims, params,
                     core::Scheme::kNone, {}, {}, four, &drbg);
  EXPECT_GT(split.stats.compression_ratio(),
            0.6 * single.stats.compression_ratio());
}

TEST(Slab, ArchiveCorruptionDetected) {
  const data::Dataset d = data::make_cloudf48(data::Scale::kTiny);
  sz::Params params;
  crypto::CtrDrbg drbg(13);
  const auto r =
      compress_slabs(std::span<const float>(d.values), d.dims, params,
                     core::Scheme::kNone, {}, {}, ChunkedConfig{2, 3},
                     &drbg);
  // Truncation.
  EXPECT_THROW(decompress_slabs_f32(
                   BytesView(r.archive).subspan(0, r.archive.size() / 2),
                   {}),
               Error);
  // Bad magic.
  Bytes bad = r.archive;
  bad[0] ^= 0xFF;
  EXPECT_THROW(decompress_slabs_f32(BytesView(bad), {}), CorruptError);
  // Body bit flip.
  std::mt19937_64 rng(3);
  for (int t = 0; t < 8; ++t) {
    Bytes tampered = r.archive;
    tampered[100 + rng() % (tampered.size() - 100)] ^= 0x10;
    try {
      const auto out = decompress_slabs_f32(BytesView(tampered), {});
      EXPECT_FALSE(within_abs_bound(std::span<const float>(d.values),
                                    std::span<const float>(out),
                                    params.abs_error_bound));
    } catch (const Error&) {
      SUCCEED();
    }
  }
}

TEST(Slab, MatchesSerialResultBitwiseForNoneScheme) {
  // A 1-slab archive body must equal the serial compressor's container.
  const data::Dataset d = data::make_wf48(data::Scale::kTiny);
  sz::Params params;
  params.abs_error_bound = 1e-3;
  crypto::CtrDrbg drbg(15);
  const auto archive =
      compress_slabs(std::span<const float>(d.values), d.dims, params,
                     core::Scheme::kNone, {}, {}, ChunkedConfig{1, 1},
                     &drbg);
  const core::SecureCompressor serial(params, core::Scheme::kNone);
  const auto direct =
      serial.compress(std::span<const float>(d.values), d.dims);
  // Skip the archive framing: the embedded container bytes must match.
  ByteReader r{BytesView(archive.archive)};
  r.get_u32();
  r.get_u8();
  const uint8_t rank = r.get_u8();
  for (uint8_t i = 0; i < rank; ++i) r.get_varint();
  ASSERT_EQ(r.get_varint(), 1u);
  const BytesView embedded = r.get_blob();
  EXPECT_EQ(Bytes(embedded.begin(), embedded.end()), direct.container);
}

TEST(Slab, FourDimensionalField) {
  const data::Dataset d = data::make_qi(data::Scale::kTiny);
  sz::Params params;
  params.abs_error_bound = 1e-6;
  crypto::CtrDrbg drbg(17);
  const auto r = compress_slabs(std::span<const float>(d.values), d.dims,
                                params, core::Scheme::kEncrQuant,
                                BytesView(kKey), {}, ChunkedConfig{2, 3},
                                &drbg);
  const auto out =
      decompress_slabs_f32(BytesView(r.archive), BytesView(kKey));
  EXPECT_TRUE(within_abs_bound(std::span<const float>(d.values),
                               std::span<const float>(out), 1e-6));
}

}  // namespace
}  // namespace szsec::archive
