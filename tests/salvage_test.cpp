// Salvage: pins, the stream/in-memory differential, the forged-frame
// rule and the streaming memory bound.
//
// Pins.  For each archive shape (4 or 16 chunks, float32 or float64,
// seek footer on or off) and each fault class of
// testing/fault_injection.h, every damaged variant of the archive is
// salvaged in memory with each of the three fills, and one SHA-256 runs
// over all of those outcomes: the field's dims, dtype and bytes, and
// every SalvageReport field except the free-text `detail`.  The pins
// were recorded from the salvager the library shipped before in-memory
// salvage became a driver of ChunkedSalvager, so they lock its field
// bytes and reports across that refactor.  The archives are
// DRBG-seeded, hence byte-identical on every run; each shape runs at one
// and at four worker threads against the same pins.
//
// Differential.  For the fault classes that keep frames in row order,
// salvage_chunked_stream must write the in-memory field's bytes and
// report what the in-memory salvage reports, but for the seek footer,
// which a stream cannot tell from damage and counts as skipped; and on
// every class it must give the same bytes and report at one and four
// threads.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <string>

#include "archive/chunked.h"
#include "common/hex.h"
#include "common/io.h"
#include "crypto/drbg.h"
#include "crypto/sha256.h"
#include "fault_injection.h"

namespace szsec {
namespace {

const Bytes kKey = {9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 11, 12, 13, 14, 15, 16};
const Dims kDims{48, 20};

struct Shape {
  size_t chunks;
  sz::DType dtype;
  bool footer;
};

std::string shape_name(const Shape& s) {
  return std::to_string(s.chunks) + "chunks_" +
         (s.dtype == sz::DType::kFloat32 ? "f32" : "f64") +
         (s.footer ? "_footer" : "_bare");
}

// A stable printed name: the default prints the struct's padding bytes,
// which would change the CTest names from build to build.
void PrintTo(const Shape& s, std::ostream* os) { *os << shape_name(s); }

template <typename T>
std::vector<T> smooth_field(uint64_t seed) {
  std::vector<T> f(kDims.count());
  std::mt19937_64 rng(seed);
  double walk = 0;
  for (auto& v : f) {
    walk += static_cast<double>(static_cast<int>(rng() % 200) - 100) * 1e-3;
    v = static_cast<T>(walk);
  }
  return f;
}

Bytes make_archive(const Shape& s, uint64_t field_seed = 0x5A1B) {
  sz::Params params;
  params.abs_error_bound = 1e-3;
  archive::ChunkedConfig config;
  config.chunks = s.chunks;
  config.threads = 1;
  config.seek_table = s.footer;
  crypto::CtrDrbg drbg(0x5A1C);
  if (s.dtype == sz::DType::kFloat32) {
    const std::vector<float> f = smooth_field<float>(field_seed);
    return archive::compress_chunked(std::span<const float>(f), kDims,
                                     params, core::Scheme::kEncrHuffman,
                                     BytesView(kKey), {}, config, &drbg)
        .archive;
  }
  const std::vector<double> f = smooth_field<double>(field_seed);
  return archive::compress_chunked(std::span<const double>(f), kDims, params,
                                   core::Scheme::kEncrHuffman, BytesView(kKey),
                                   {}, config, &drbg)
      .archive;
}

/// Every damaged variant of `a`, keyed by fault class.
std::map<std::string, std::vector<Bytes>> fault_classes(const Bytes& a) {
  const BytesView v(a);
  const archive::ChunkIndex ix = archive::read_chunk_index(v);
  const size_t n = ix.entries.size();
  const archive::ChunkEntry& last = ix.entries.back();
  const size_t frames_end = static_cast<size_t>(last.offset + last.frame_len);
  std::map<std::string, std::vector<Bytes>> out;
  std::mt19937_64 rng(0xF11B);
  Bytes junk(37);
  for (size_t i = 0; i < junk.size(); ++i) {
    junk[i] = static_cast<uint8_t>(0xA5 ^ (i * 29));
  }
  for (size_t i = 0; i < n; ++i) {
    const auto [begin, end] = testing::chunk_span(v, i);
    out["flip"].push_back(testing::corrupt_chunk(v, i, rng));
    out["truncate_boundary"].push_back(testing::truncate_at_chunk(v, i));
    out["drop"].push_back(testing::drop_chunk(v, i));
    out["duplicate"].push_back(testing::duplicate_chunk(v, i));
    out["insert37"].push_back(testing::insert_bytes(v, begin, BytesView(junk)));
    out["insert37"].push_back(
        testing::insert_bytes(v, (begin + end) / 2, BytesView(junk)));
  }
  out["truncate_boundary"].push_back(testing::truncate_to(v, frames_end));
  for (size_t cut = 0; cut < a.size(); cut += 13) {
    out["truncate_stride13"].push_back(testing::truncate_to(v, cut));
  }
  out["swap12"].push_back(testing::swap_chunks(v, 1, 2));
  for (size_t bit = 0; bit < ix.body_start * 8; bit += 3) {
    out["prelude_flip"].push_back(testing::flip_bit(v, bit));
  }
  Bytes zeroed = a;
  std::memset(zeroed.data(), 0, ix.body_start);
  out["zeroed_prelude"].push_back(std::move(zeroed));
  return out;
}

template <typename T>
void put(crypto::Sha256& h, T v) {
  uint8_t b[sizeof(T)];
  std::memcpy(b, &v, sizeof(T));
  h.update(BytesView(b, sizeof(T)));
}

/// Folds one salvage outcome into `h`: dims, dtype, field bytes and
/// every report field but `detail`.
void hash_result(crypto::Sha256& h, const archive::SalvageResult& r) {
  put<uint64_t>(h, r.dims.rank());
  for (size_t i = 0; i < r.dims.rank(); ++i) put<uint64_t>(h, r.dims[i]);
  put<uint8_t>(h, static_cast<uint8_t>(r.dtype));
  if (r.dtype == sz::DType::kFloat32) {
    h.update(BytesView(reinterpret_cast<const uint8_t*>(r.f32.data()),
                       r.f32.size() * sizeof(float)));
  } else {
    h.update(BytesView(reinterpret_cast<const uint8_t*>(r.f64.data()),
                       r.f64.size() * sizeof(double)));
  }
  const archive::SalvageReport& rep = r.report;
  put<uint8_t>(h, rep.index_intact ? 1 : 0);
  put<uint64_t>(h, rep.chunks_expected);
  put<uint64_t>(h, rep.chunks_recovered);
  put<uint64_t>(h, rep.bytes_skipped);
  put<uint64_t>(h, rep.elements_total);
  put<uint64_t>(h, rep.elements_recovered);
  put<uint64_t>(h, rep.chunks.size());
  for (const archive::ChunkReport& c : rep.chunks) {
    put<uint64_t>(h, c.chunk_id);
    put<uint8_t>(h, static_cast<uint8_t>(c.status));
    put<uint64_t>(h, c.row_start);
    put<uint64_t>(h, c.row_extent);
    put<uint64_t>(h, c.frame_bytes);
  }
}

/// Pin per "<shape>/<fault class>", recorded before the refactor.
const std::map<std::string, std::string>& pins() {
  static const std::map<std::string, std::string> p = {
      {"16chunks_f32_bare/drop", "cd112bc53d5e1e7c61c382df8253060a0749d325072abcdad747ca50b28e532d"},
      {"16chunks_f32_bare/duplicate", "8651243e725327afb8d6ced3e11f727088c3e7d9827c3f756e0d03aa9264fa36"},
      {"16chunks_f32_bare/flip", "59b2449bdd858412de4df1b1b62a0ccaf43abaa15e1bdd421d05777b03dbffab"},
      {"16chunks_f32_bare/insert37", "667ed8d5f99d7cc20dd297e730ebc1b32f6f8342ebc875d9d3e7ce456e6682d5"},
      {"16chunks_f32_bare/prelude_flip", "c5cbf07b3aa445668e5c39e12cee599cebf3356dcbbd209741e2995769a5bbe2"},
      {"16chunks_f32_bare/swap12", "e9c24dcf4fcaf776325c621621647310f901e78482e8ddcd913049dc64c39c65"},
      {"16chunks_f32_bare/truncate_boundary", "0c2faa079139e1cfcc3a8dc375499994aa7d43a7e4f615d636bfa8bbe178a06d"},
      {"16chunks_f32_bare/truncate_stride13", "664802ddf1d743b50ea0bd432811a399b7a47d20a59c9f36df10e18762de6a06"},
      {"16chunks_f32_bare/zeroed_prelude", "eceb0de9b6d6f6a0212a5b1ef64228fc5dae9392554943d78699786bec95c1c4"},
      {"16chunks_f32_footer/drop", "cd112bc53d5e1e7c61c382df8253060a0749d325072abcdad747ca50b28e532d"},
      {"16chunks_f32_footer/duplicate", "8651243e725327afb8d6ced3e11f727088c3e7d9827c3f756e0d03aa9264fa36"},
      {"16chunks_f32_footer/flip", "59b2449bdd858412de4df1b1b62a0ccaf43abaa15e1bdd421d05777b03dbffab"},
      {"16chunks_f32_footer/insert37", "667ed8d5f99d7cc20dd297e730ebc1b32f6f8342ebc875d9d3e7ce456e6682d5"},
      {"16chunks_f32_footer/prelude_flip", "c5cbf07b3aa445668e5c39e12cee599cebf3356dcbbd209741e2995769a5bbe2"},
      {"16chunks_f32_footer/swap12", "e9c24dcf4fcaf776325c621621647310f901e78482e8ddcd913049dc64c39c65"},
      {"16chunks_f32_footer/truncate_boundary", "0c2faa079139e1cfcc3a8dc375499994aa7d43a7e4f615d636bfa8bbe178a06d"},
      {"16chunks_f32_footer/truncate_stride13", "057e06ebb9318cf3bd992030fcc933d45d81366fb7973b685f2d7f6e8009779c"},
      {"16chunks_f32_footer/zeroed_prelude", "eceb0de9b6d6f6a0212a5b1ef64228fc5dae9392554943d78699786bec95c1c4"},
      {"16chunks_f64_bare/drop", "c0531a3aafcbbcabfea8c8417ca6a5330e359c85d64d508a067b217bc74770bb"},
      {"16chunks_f64_bare/duplicate", "bea8e6ba4038c837446da8e14a170b2427fdb56a07b2de98e176315954d2564a"},
      {"16chunks_f64_bare/flip", "4d87bcb08024c16dd46cbaf2dbf297b4481f138f22bad13f1e44a13b96341933"},
      {"16chunks_f64_bare/insert37", "4d658bccadc31fe1d4acc41b696c7716a3f3f3deebd06d7f2e410b4417674d92"},
      {"16chunks_f64_bare/prelude_flip", "b71e2d7684616e67669c7ab0d6c026e024b370353a48a40b823c664452a90195"},
      {"16chunks_f64_bare/swap12", "fec75ec25fb591805a06fcad1a6fe189c733bd0bd2af97e4fb773ab99eceb977"},
      {"16chunks_f64_bare/truncate_boundary", "d1abf01498d7bf85edfe7058c0ca426335fe24266e1bdd73fd97947d43a91149"},
      {"16chunks_f64_bare/truncate_stride13", "6cf8290ff0854b2a310f8f533230a523722429f989bb00bb441c0bddeb7d9cc2"},
      {"16chunks_f64_bare/zeroed_prelude", "13c4bf3f828ae06a5f88b40dd8022c6fb2719ecb017291a3a3a1c89cf551c01f"},
      {"16chunks_f64_footer/drop", "c0531a3aafcbbcabfea8c8417ca6a5330e359c85d64d508a067b217bc74770bb"},
      {"16chunks_f64_footer/duplicate", "bea8e6ba4038c837446da8e14a170b2427fdb56a07b2de98e176315954d2564a"},
      {"16chunks_f64_footer/flip", "4d87bcb08024c16dd46cbaf2dbf297b4481f138f22bad13f1e44a13b96341933"},
      {"16chunks_f64_footer/insert37", "4d658bccadc31fe1d4acc41b696c7716a3f3f3deebd06d7f2e410b4417674d92"},
      {"16chunks_f64_footer/prelude_flip", "b71e2d7684616e67669c7ab0d6c026e024b370353a48a40b823c664452a90195"},
      {"16chunks_f64_footer/swap12", "fec75ec25fb591805a06fcad1a6fe189c733bd0bd2af97e4fb773ab99eceb977"},
      {"16chunks_f64_footer/truncate_boundary", "d1abf01498d7bf85edfe7058c0ca426335fe24266e1bdd73fd97947d43a91149"},
      {"16chunks_f64_footer/truncate_stride13", "4ee49f20d6b424378affc5990d37b1cdc192d1aa28ad6e5a8b5546bf4aa9d121"},
      {"16chunks_f64_footer/zeroed_prelude", "13c4bf3f828ae06a5f88b40dd8022c6fb2719ecb017291a3a3a1c89cf551c01f"},
      {"4chunks_f32_bare/drop", "dc36300d7dfcd2a7fdf9fa7135c18532b0d06e2b8eb6f1f234756d51c7aa715e"},
      {"4chunks_f32_bare/duplicate", "73d6ab50d8218b8903551a8f245b2c1f212b92cd9c499f432cef699fb0fc9f5d"},
      {"4chunks_f32_bare/flip", "e33ad7469e9d79e393ac56d90e6f3409dd241c03b4550d96d58271115faf5e56"},
      {"4chunks_f32_bare/insert37", "b2198e93b2c8786f3e2dc5cd8b3e0d8b49a941ece33378da5c11dd945eea7d9d"},
      {"4chunks_f32_bare/prelude_flip", "3c1186ef047c146903d0771f8c462a3e928a728cab17374de8946743cf89b0bf"},
      {"4chunks_f32_bare/swap12", "0155bdb51bcffbb2bc8eca396e3fa42c5f9fb41b40ddb78808f368b01ab56309"},
      {"4chunks_f32_bare/truncate_boundary", "e2f01fee152b021114c6d3ea3f11d2ac189ff4b2ebdb0ae8bd4a4dfa889c9436"},
      {"4chunks_f32_bare/truncate_stride13", "80cc398129eb7a75640cfdbe430dd8ecae7be1718764c8ed339832996b3ea7c1"},
      {"4chunks_f32_bare/zeroed_prelude", "a56fa7ed74bbe2f98c023dbe72bde2e0f6de93a89a0a5f3a0435d08ffe04716c"},
      {"4chunks_f32_footer/drop", "dc36300d7dfcd2a7fdf9fa7135c18532b0d06e2b8eb6f1f234756d51c7aa715e"},
      {"4chunks_f32_footer/duplicate", "73d6ab50d8218b8903551a8f245b2c1f212b92cd9c499f432cef699fb0fc9f5d"},
      {"4chunks_f32_footer/flip", "e33ad7469e9d79e393ac56d90e6f3409dd241c03b4550d96d58271115faf5e56"},
      {"4chunks_f32_footer/insert37", "b2198e93b2c8786f3e2dc5cd8b3e0d8b49a941ece33378da5c11dd945eea7d9d"},
      {"4chunks_f32_footer/prelude_flip", "3c1186ef047c146903d0771f8c462a3e928a728cab17374de8946743cf89b0bf"},
      {"4chunks_f32_footer/swap12", "0155bdb51bcffbb2bc8eca396e3fa42c5f9fb41b40ddb78808f368b01ab56309"},
      {"4chunks_f32_footer/truncate_boundary", "e2f01fee152b021114c6d3ea3f11d2ac189ff4b2ebdb0ae8bd4a4dfa889c9436"},
      {"4chunks_f32_footer/truncate_stride13", "eedfa0224db4037546db7b27891c0b7a265cdde49e0d163fbb43364d792a53b6"},
      {"4chunks_f32_footer/zeroed_prelude", "a56fa7ed74bbe2f98c023dbe72bde2e0f6de93a89a0a5f3a0435d08ffe04716c"},
      {"4chunks_f64_bare/drop", "98078951053a8b8fe6ac28a4f6ee7e51a9029f404bf0d3aaf39b3d3b6d3e86de"},
      {"4chunks_f64_bare/duplicate", "29c5020cde80a42409e59adae2b0452ac2ab304b039d50d10da0ae698bf23028"},
      {"4chunks_f64_bare/flip", "35db6d9a7bac84710e97ef146556549e63bdaac125ef8ef93029608c935d104c"},
      {"4chunks_f64_bare/insert37", "5c8e5952b0967c5e797a182adc8b5a733426bd1234a0060d8b75cdf815ffa850"},
      {"4chunks_f64_bare/prelude_flip", "195ecd800b808768225509e98605c8e6680a78e080a8f4f3b327306df1877c62"},
      {"4chunks_f64_bare/swap12", "4c380d75704fd1c03ad4c29b29908bb79e15d0ca8e2d196c1115c47f07395594"},
      {"4chunks_f64_bare/truncate_boundary", "ce650fd671244d1afb208c58a2581e792a6ccd24e2bf9e93696c17923fb00b93"},
      {"4chunks_f64_bare/truncate_stride13", "2d3d11fdce3f5d9a659744940934c33a67155e136cdfb1eb17a1a208ad6f308e"},
      {"4chunks_f64_bare/zeroed_prelude", "eac8c720e1436138d0b496edcc3d091c663498731a166deb735359fc4ec7692f"},
      {"4chunks_f64_footer/drop", "98078951053a8b8fe6ac28a4f6ee7e51a9029f404bf0d3aaf39b3d3b6d3e86de"},
      {"4chunks_f64_footer/duplicate", "29c5020cde80a42409e59adae2b0452ac2ab304b039d50d10da0ae698bf23028"},
      {"4chunks_f64_footer/flip", "35db6d9a7bac84710e97ef146556549e63bdaac125ef8ef93029608c935d104c"},
      {"4chunks_f64_footer/insert37", "5c8e5952b0967c5e797a182adc8b5a733426bd1234a0060d8b75cdf815ffa850"},
      {"4chunks_f64_footer/prelude_flip", "195ecd800b808768225509e98605c8e6680a78e080a8f4f3b327306df1877c62"},
      {"4chunks_f64_footer/swap12", "4c380d75704fd1c03ad4c29b29908bb79e15d0ca8e2d196c1115c47f07395594"},
      {"4chunks_f64_footer/truncate_boundary", "ce650fd671244d1afb208c58a2581e792a6ccd24e2bf9e93696c17923fb00b93"},
      {"4chunks_f64_footer/truncate_stride13", "150f416d496ea241e4f8b3b0c672c498136248099a219e893a48b45ce6e62ad2"},
      {"4chunks_f64_footer/zeroed_prelude", "eac8c720e1436138d0b496edcc3d091c663498731a166deb735359fc4ec7692f"},
  };
  return p;
}

class SalvagePin
    : public ::testing::TestWithParam<std::tuple<Shape, unsigned>> {};

TEST_P(SalvagePin, InMemoryOutcomesMatchPins) {
  const auto& [shape, threads] = GetParam();
  const Bytes archive = make_archive(shape);
  for (const auto& [fault, variants] : fault_classes(archive)) {
    crypto::Sha256 h;
    for (const Bytes& damaged : variants) {
      for (const archive::FallbackFill fill :
           {archive::FallbackFill::kZeros, archive::FallbackFill::kNaN,
            archive::FallbackFill::kMean}) {
        archive::SalvageOptions opts;
        opts.fill = fill;
        opts.threads = threads;
        hash_result(h, shape.dtype == sz::DType::kFloat32
                           ? archive::decompress_salvage(
                                 BytesView(damaged), BytesView(kKey), opts)
                           : archive::decompress_salvage_f64(
                                 BytesView(damaged), BytesView(kKey), opts));
      }
    }
    const std::string key = shape_name(shape) + "/" + fault;
    const std::string got = to_hex(BytesView(h.finish()));
    const auto it = pins().find(key);
    if (it == pins().end()) {
      ADD_FAILURE() << "no pin: {\"" << key << "\", \"" << got << "\"},";
      continue;
    }
    EXPECT_EQ(got, it->second) << key;
  }
}


archive::SalvageResult salvage(const Shape& shape, BytesView archive,
                               const archive::SalvageOptions& opts) {
  return shape.dtype == sz::DType::kFloat32
             ? archive::decompress_salvage(archive, BytesView(kKey), opts)
             : archive::decompress_salvage_f64(archive, BytesView(kKey), opts);
}

Bytes field_bytes(const archive::SalvageResult& r) {
  const auto* p = r.dtype == sz::DType::kFloat32
                      ? reinterpret_cast<const uint8_t*>(r.f32.data())
                      : reinterpret_cast<const uint8_t*>(r.f64.data());
  const size_t n = r.dtype == sz::DType::kFloat32
                       ? r.f32.size() * sizeof(float)
                       : r.f64.size() * sizeof(double);
  return Bytes(p, p + n);
}

/// Every field of `a` equals `b`'s, but `a.bytes_skipped`, which is
/// higher by `extra_skipped`.
void expect_same_report(const archive::SalvageReport& a,
                        const archive::SalvageReport& b,
                        uint64_t extra_skipped, const std::string& where) {
  EXPECT_EQ(a.index_intact, b.index_intact) << where;
  EXPECT_EQ(a.chunks_expected, b.chunks_expected) << where;
  EXPECT_EQ(a.chunks_recovered, b.chunks_recovered) << where;
  EXPECT_EQ(a.bytes_skipped, b.bytes_skipped + extra_skipped) << where;
  EXPECT_EQ(a.elements_total, b.elements_total) << where;
  EXPECT_EQ(a.elements_recovered, b.elements_recovered) << where;
  ASSERT_EQ(a.chunks.size(), b.chunks.size()) << where;
  for (size_t i = 0; i < a.chunks.size(); ++i) {
    const archive::ChunkReport& x = a.chunks[i];
    const archive::ChunkReport& y = b.chunks[i];
    EXPECT_TRUE(x.chunk_id == y.chunk_id && x.status == y.status &&
                x.row_start == y.row_start && x.row_extent == y.row_extent &&
                x.frame_bytes == y.frame_bytes && x.detail == y.detail)
        << where << " chunk " << i << ": " << archive::to_string(x.status)
        << " vs " << archive::to_string(y.status);
  }
}

/// Fault classes whose surviving frames stay in row order.
bool in_order(const std::string& fault) {
  return fault == "flip" || fault == "truncate_boundary" ||
         fault == "truncate_stride13" || fault == "zeroed_prelude" ||
         fault == "drop" || fault == "insert37";
}

class SalvageStream
    : public ::testing::TestWithParam<std::tuple<Shape, unsigned>> {};

TEST_P(SalvageStream, MatchesInMemoryOnInOrderFaults) {
  const auto& [shape, threads] = GetParam();
  const Bytes archive = make_archive(shape);
  for (const auto& [fault, variants] : fault_classes(archive)) {
    if (!in_order(fault)) continue;
    for (size_t v = 0; v < variants.size(); ++v) {
      const BytesView damaged(variants[v]);
      for (const archive::FallbackFill fill :
           {archive::FallbackFill::kZeros, archive::FallbackFill::kNaN}) {
        archive::SalvageOptions opts;
        opts.fill = fill;
        opts.threads = threads;
        const archive::SalvageResult mem = salvage(shape, damaged, opts);
        MemorySource in{damaged};
        MemorySink out;
        const archive::ChunkedStreamSalvageResult st =
            archive::salvage_chunked_stream(in, out, BytesView(kKey), opts);
        const std::string where = fault + " #" + std::to_string(v) +
                                  " fill " +
                                  std::to_string(static_cast<int>(fill));
        EXPECT_TRUE(st.dims == mem.dims) << where;
        expect_same_report(st.report, mem.report,
                           archive::seek_footer_suffix_bytes(damaged), where);
        if (mem.report.chunks_recovered == 0) {
          // No chunk, no element type: the stream writes nothing.
          EXPECT_TRUE(out.bytes().empty()) << where;
        } else {
          EXPECT_EQ(st.dtype, mem.dtype) << where;
          EXPECT_TRUE(out.bytes() == field_bytes(mem)) << where;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SalvagePin,
    ::testing::Combine(
        ::testing::Values(Shape{4, sz::DType::kFloat32, true},
                          Shape{4, sz::DType::kFloat32, false},
                          Shape{4, sz::DType::kFloat64, true},
                          Shape{4, sz::DType::kFloat64, false},
                          Shape{16, sz::DType::kFloat32, true},
                          Shape{16, sz::DType::kFloat32, false},
                          Shape{16, sz::DType::kFloat64, true},
                          Shape{16, sz::DType::kFloat64, false}),
        ::testing::Values(1u, 4u)),
    [](const auto& info) {
      return shape_name(std::get<0>(info.param)) + "_t" +
             std::to_string(std::get<1>(info.param));
    });


INSTANTIATE_TEST_SUITE_P(
    Shapes, SalvageStream,
    ::testing::Combine(
        ::testing::Values(Shape{4, sz::DType::kFloat32, true},
                          Shape{4, sz::DType::kFloat64, false},
                          Shape{16, sz::DType::kFloat32, false},
                          Shape{16, sz::DType::kFloat64, true}),
        ::testing::Values(1u, 4u)),
    [](const auto& info) {
      return shape_name(std::get<0>(info.param)) + "_t" +
             std::to_string(std::get<1>(info.param));
    });

// Streaming salvage is identical at one and four threads on every fault
// class, reordered frames included.
TEST(SalvageStreamThreads, SameBytesAndReportAtOneAndFourThreads) {
  for (const Shape& shape : {Shape{4, sz::DType::kFloat32, true},
                             Shape{16, sz::DType::kFloat64, false}}) {
    const Bytes archive = make_archive(shape);
    for (const auto& [fault, variants] : fault_classes(archive)) {
      for (size_t v = 0; v < variants.size(); ++v) {
        archive::SalvageOptions opts;
        opts.fill = archive::FallbackFill::kNaN;
        Bytes bytes[2];
        archive::ChunkedStreamSalvageResult r[2];
        for (const unsigned threads : {1u, 4u}) {
          opts.threads = threads;
          MemorySource in{BytesView(variants[v])};
          MemorySink out;
          r[threads / 4] =
              archive::salvage_chunked_stream(in, out, BytesView(kKey), opts);
          bytes[threads / 4] = out.take();
        }
        const std::string where =
            shape_name(shape) + " " + fault + " #" + std::to_string(v);
        EXPECT_TRUE(bytes[0] == bytes[1]) << where;
        EXPECT_TRUE(r[0].dims == r[1].dims) << where;
        expect_same_report(r[0].report, r[1].report, 0, where);
      }
    }
  }
}

// Two CRC-valid frames that claim one chunk id (here chunk 2 of an
// archive of another field, under the same key): the first in archive
// order wins, and it is kOk only at its indexed offset.
TEST(SalvageForged, FirstValidFrameInArchiveOrderWins) {
  const Shape shape{4, sz::DType::kFloat32, false};
  const Bytes genuine = make_archive(shape);
  const Bytes other = make_archive(shape, 0x0DD);
  const auto [f0, f1] = testing::chunk_span(BytesView(other), 2);
  const BytesView forged = BytesView(other).subspan(f0, f1 - f0);
  const auto [g0, g1] = testing::chunk_span(BytesView(genuine), 2);
  ASSERT_FALSE(std::equal(forged.begin(), forged.end(), genuine.begin() + g0,
                          genuine.begin() + g1));
  archive::SalvageOptions opts;
  opts.fill = archive::FallbackFill::kZeros;
  const auto chunk2 = [](const archive::SalvageResult& r) {
    const size_t plane = kDims[1];
    const auto first = r.f32.begin() + 24 * plane;
    return std::vector<float>(first, first + 12 * plane);
  };
  const std::vector<float> forged_rows =
      chunk2(archive::decompress_salvage(BytesView(other), BytesView(kKey)));
  const std::vector<float> genuine_rows =
      chunk2(archive::decompress_salvage(BytesView(genuine), BytesView(kKey)));

  const size_t frames_end = testing::chunk_span(BytesView(genuine), 3).second;
  const Bytes after = testing::insert_bytes(BytesView(genuine), frames_end,
                                            forged);
  const Bytes before = testing::insert_bytes(
      BytesView(genuine), testing::chunk_span(BytesView(genuine), 1).first,
      forged);
  Bytes before_no_index = before;
  std::memset(before_no_index.data(), 0,
              archive::read_chunk_index(BytesView(genuine)).body_start);
  for (const unsigned threads : {1u, 4u}) {
    opts.threads = threads;
    {
      // The genuine frame comes first, at its indexed offset.
      const archive::SalvageResult r =
          archive::decompress_salvage(BytesView(after), BytesView(kKey), opts);
      ASSERT_EQ(r.report.chunks.size(), 4u);
      for (const archive::ChunkReport& c : r.report.chunks) {
        EXPECT_EQ(c.status, archive::ChunkStatus::kOk) << c.chunk_id;
      }
      EXPECT_EQ(chunk2(r), genuine_rows);
      EXPECT_EQ(r.report.bytes_skipped, forged.size());
      MemorySource in{BytesView(after)};
      MemorySink out;
      archive::salvage_chunked_stream(in, out, BytesView(kKey), opts);
      EXPECT_TRUE(out.bytes() == field_bytes(r));
    }
    {
      // The forgery comes first: it wins, away from chunk 2's offset.
      const archive::SalvageResult r = archive::decompress_salvage(
          BytesView(before), BytesView(kKey), opts);
      ASSERT_EQ(r.report.chunks.size(), 4u);
      EXPECT_EQ(r.report.chunks[2].status, archive::ChunkStatus::kRelocated);
      EXPECT_EQ(r.report.chunks[2].frame_bytes, forged.size());
      EXPECT_EQ(r.report.chunks_recovered, 4u);
      EXPECT_EQ(chunk2(r), forged_rows);
    }
    {
      // The same rule without an index.
      const archive::SalvageResult r = archive::decompress_salvage(
          BytesView(before_no_index), BytesView(kKey), opts);
      EXPECT_FALSE(r.report.index_intact);
      EXPECT_EQ(r.report.chunks_recovered, 4u);
      EXPECT_EQ(chunk2(r), forged_rows);
    }
  }
}

/// dims.count() float32 values of hashed noise in [0, 1), generated as
/// they are read.
class NoiseSource final : public ByteSource {
 public:
  explicit NoiseSource(uint64_t bytes) : total_(bytes) {}

  size_t read(std::span<uint8_t> out) override {
    const size_t n =
        static_cast<size_t>(std::min<uint64_t>(out.size(), total_ - pos_));
    for (size_t i = 0; i < n; ++i) {
      const uint64_t at = pos_ + i;
      const float v = value(at / sizeof(float));
      uint8_t b[sizeof(float)];
      std::memcpy(b, &v, sizeof(v));
      out[i] = b[at % sizeof(float)];
    }
    pos_ += n;
    return n;
  }

 private:
  static float value(uint64_t e) {
    uint64_t x = (e + 1) * 0x9E3779B97F4A7C15ull;
    x ^= x >> 29;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 32;
    return static_cast<float>(x >> 40) * (1.0f / 16777216.0f);
  }

  uint64_t total_;
  uint64_t pos_ = 0;
};

/// Flips one bit at each of the given absolute offsets as bytes pass.
class FlipSource final : public ByteSource {
 public:
  FlipSource(ByteSource& in, std::vector<uint64_t> at)
      : in_(in), at_(std::move(at)) {}

  size_t read(std::span<uint8_t> out) override {
    const size_t n = in_.read(out);
    for (const uint64_t a : at_) {
      if (a >= pos_ && a < pos_ + n) out[a - pos_] ^= 0x10;
    }
    pos_ += n;
    return n;
  }

 private:
  ByteSource& in_;
  std::vector<uint64_t> at_;
  uint64_t pos_ = 0;
};

uint64_t peak_rss_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoull(line.substr(6));
  }
  return 0;
}

// Streaming salvage holds a window, not the archive: salvaging a
// 78 MiB archive with three damaged chunks, file to a discarding sink, at
// two threads grows VmHWM by about 25 MiB (1.3 MiB chunks, four in
// flight, each with its frame, decode scratch and decoded rows), and the
// fixed 40 MiB bound stays under half the archive whatever its size.
// (Sanitizer allocators keep freed memory in quarantine, so there the
// bound is not asserted; the run itself still is.)
TEST(SalvageStreamMemory, BoundedByTheWindowNotTheArchive) {
  const Dims dims{1024, 20 * 1024};
  const std::string path = ::testing::TempDir() + "salvage_stream_memory_" +
                           std::to_string(::getpid()) + ".szs3";
  // A child process writes the archive, so compressing it does not raise
  // this process's VmHWM.
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    int code = 1;
    try {
      archive::ChunkedConfig config;
      config.chunks = 64;
      config.threads = 2;
      sz::Params params;
      params.abs_error_bound = 1e-7;
      crypto::CtrDrbg drbg(0x5A1D);
      NoiseSource noise(dims.count() * sizeof(float));
      FileSink file(path);
      archive::compress_chunked_stream(noise, file, sz::DType::kFloat32, dims,
                                       params, core::Scheme::kNone, {}, {},
                                       config, &drbg);
      code = 0;
    } catch (...) {
    }
    ::_exit(code);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  const uint64_t archive_bytes = std::filesystem::file_size(path);
  ASSERT_GE(archive_bytes, uint64_t{64} << 20);
  [[maybe_unused]] const uint64_t peak_before = peak_rss_kib();
  archive::SalvageOptions opts;
  opts.fill = archive::FallbackFill::kNaN;
  opts.threads = 2;
  FileSource file(path);
  FlipSource damaged(file, {archive_bytes / 8, archive_bytes * 3 / 8,
                            archive_bytes * 5 / 8});
  CountingSink discard;
  const archive::ChunkedStreamSalvageResult r =
      archive::salvage_chunked_stream(damaged, discard, {}, opts);
  std::remove(path.c_str());
  EXPECT_EQ(r.report.chunks_recovered, 61u);
  EXPECT_EQ(discard.count(), dims.count() * sizeof(float));
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
  EXPECT_LT(peak_rss_kib() - peak_before, uint64_t{40} * 1024)
      << "VmHWM grew by more than 40 MiB";
#endif
}

}  // namespace
}  // namespace szsec
