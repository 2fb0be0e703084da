// Structure-aware mutation testing of the strict and salvage decoders
// (src/testing/mutators.h), plus named regression tests for the decoder
// hardening fixes this suite's fuzzing surfaced.
//
// Contract under test:
//  - strict v2/v3 decode of any mutant either throws szsec::Error or
//    yields output bit-identical to the unmutated baseline (semantically
//    inert bits exist in DEFLATE streams and unused header bits) — it
//    never crashes, hangs, or silently returns different data;
//  - with authentication on, *every* mutant is rejected (the HMAC tag
//    forecloses inert flips);
//  - salvage decode never throws on damaged input and its report stays
//    consistent with the injected damage.
#include <gtest/gtest.h>

#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "archive/chunked.h"
#include "archive/verify.h"
#include "common/crc32.h"
#include "core/secure_compressor.h"
#include "crypto/drbg.h"
#include "huffman/huffman.h"
#include "parallel/slab.h"
#include "testing/mutators.h"
#include "testing/replay.h"

namespace szsec::testing {
namespace {

std::vector<float> ramp(size_t n) {
  std::vector<float> f(n);
  for (size_t i = 0; i < n; ++i) f[i] = 0.125f * static_cast<float>(i) - 4.0f;
  return f;
}

sz::Params small_params() {
  sz::Params p;
  p.abs_error_bound = 1e-3;
  return p;
}

class SchemeMutation : public ::testing::TestWithParam<core::Scheme> {};

TEST_P(SchemeMutation, StrictDecodeThrowsOrIsInert) {
  const core::Scheme scheme = GetParam();
  const Dims dims{8, 10};
  const std::vector<float> f = ramp(dims.count());
  const Bytes key = replay_key(16);
  crypto::CtrDrbg drbg(0xB0B0 + static_cast<uint64_t>(scheme));
  const core::SecureCompressor c(
      small_params(), scheme,
      scheme == core::Scheme::kNone ? BytesView{} : BytesView(key),
      crypto::Mode::kCbc, &drbg);
  const auto r = c.compress(std::span<const float>(f), dims);
  const std::vector<float> baseline = c.decompress_f32(BytesView(r.container));

  PropRng rng(0x717A + static_cast<uint64_t>(scheme));
  size_t inert = 0;
  for (const Mutant& m : mutate_container(BytesView(r.container), rng)) {
    try {
      const std::vector<float> out = c.decompress_f32(BytesView(m.bytes));
      EXPECT_EQ(out, baseline)
          << "mutant '" << m.label << "' decoded to different data";
      ++inert;
    } catch (const Error&) {
      // Rejected: good.
    }
  }
  // Sanity: the mutator set must actually bite — if nearly everything
  // were inert the mutants would not be reaching the decoders.
  EXPECT_LT(inert, 10u);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SchemeMutation,
                         ::testing::Values(core::Scheme::kNone,
                                           core::Scheme::kCmprEncr,
                                           core::Scheme::kEncrQuant,
                                           core::Scheme::kEncrHuffman));

// With encrypt-then-MAC enabled there is no such thing as an inert flip:
// every mutant must be rejected before decryption.
TEST(AuthenticatedMutation, EveryMutantRejected) {
  const Dims dims{8, 10};
  const std::vector<float> f = ramp(dims.count());
  const Bytes key = replay_key(16);
  core::CipherSpec spec;
  spec.authenticate = true;
  crypto::CtrDrbg drbg(0xA0A0);
  const core::SecureCompressor c(small_params(), core::Scheme::kCmprEncr,
                                 BytesView(key), spec, &drbg);
  const auto r = c.compress(std::span<const float>(f), dims);

  PropRng rng(0xA17A);
  for (const Mutant& m : mutate_container(BytesView(r.container), rng)) {
    EXPECT_THROW((void)c.decompress(BytesView(m.bytes)), Error)
        << "authenticated mutant '" << m.label << "' was not rejected";
  }
}

TEST(ArchiveMutation, StrictThrowsOrInertSalvageNeverThrows) {
  const Dims dims{9, 11};
  const std::vector<float> f = ramp(dims.count());
  const Bytes key = replay_key(16);
  archive::ChunkedConfig cfg;
  cfg.threads = 1;
  cfg.chunks = 3;
  crypto::CtrDrbg drbg(0xC4C4);
  const auto r = archive::compress_chunked(std::span<const float>(f), dims,
                                           small_params(),
                                           core::Scheme::kCmprEncr,
                                           BytesView(key), {}, cfg, &drbg);
  const std::vector<float> baseline =
      archive::decompress_chunked_f32(BytesView(r.archive), BytesView(key),
                                      cfg);
  archive::SalvageOptions sopts;
  sopts.threads = 1;

  PropRng rng(0xC17A);
  for (const Mutant& m : mutate_archive(BytesView(r.archive), rng)) {
    // Strict: throw or bit-identical.
    try {
      const std::vector<float> out = archive::decompress_chunked_f32(
          BytesView(m.bytes), BytesView(key), cfg);
      EXPECT_EQ(out, baseline)
          << "strict decode of mutant '" << m.label
          << "' returned different data";
    } catch (const Error&) {
    }

    // Salvage: never throws, and the report stays internally consistent
    // and consistent with the injected damage.
    archive::SalvageResult sr;
    try {
      sr = archive::decompress_salvage(BytesView(m.bytes), BytesView(key),
                                       sopts);
    } catch (const Error& e) {
      ADD_FAILURE() << "salvage threw on mutant '" << m.label
                    << "': " << e.what();
      continue;
    }
    EXPECT_LE(sr.report.chunks_recovered, sr.report.chunks_expected)
        << m.label;
    EXPECT_LE(sr.report.elements_recovered, sr.report.elements_total)
        << m.label;
    if (sr.report.complete() && sr.report.index_intact &&
        sr.report.elements_recovered == baseline.size()) {
      EXPECT_EQ(sr.f32, baseline)
          << "complete salvage of mutant '" << m.label
          << "' differs from baseline";
    }
    // A dropped chunk frame can never yield a complete recovery.
    if (m.label.rfind("splice:drop-chunk-", 0) == 0) {
      EXPECT_FALSE(sr.report.complete()) << m.label;
    }
  }
}

// ---------------------------------------------------------------------
// Named regressions for decoder hardening: forged inputs that previously
// drove allocations (or wrapped arithmetic) before validation.  Matching
// seed-corpus entries live under tests/corpus/.
// ---------------------------------------------------------------------

// huffman::decode used to reserve `count` words before checking the
// bitstream could possibly satisfy it; a forged count demanded
// multi-gigabyte allocations from a few input bytes.
TEST(DecoderHardening, HuffmanSymbolCountBombRejected) {
  std::vector<uint64_t> freq = {5, 3, 2, 1};
  const huffman::CodeTable table = huffman::build_code_table(freq);
  const std::vector<uint32_t> symbols = {0, 1, 2, 3, 0, 0};
  const Bytes bits = huffman::encode(table, symbols);
  EXPECT_THROW((void)huffman::decode(table, BytesView(bits), size_t{1} << 40),
               Error);
  // The honest count still decodes.
  EXPECT_EQ(huffman::decode(table, BytesView(bits), symbols.size()), symbols);
}

// Peak resident set size of this process (VmHWM) in KiB; 0 where
// /proc/self/status is unavailable.
uint64_t peak_rss_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoull(line.substr(6));
  }
  return 0;
}

// huffman::deserialize_table used to size its arrays from the table's
// declared alphabet: an 11-byte table of 2^28 symbols in one run drove
// GiB-scale allocations (about 1.3 GB for a run of length 0, 2.4 GB for a
// complete code of length 28).  Zero runs now cost nothing, and a table
// with more used symbols than the stream holds is rejected before they
// are stored.
TEST(DecoderHardening, HuffmanTableAlphabetBombRejected) {
  const std::vector<uint64_t> freq = {3, 1, 1, 1};
  const std::vector<uint32_t> symbols = {0, 1, 2, 3, 0, 0};
  const Bytes bits =
      huffman::encode(huffman::build_code_table(freq), symbols);
  const uint64_t peak_before = peak_rss_kib();
  for (const uint8_t length : {0, 28}) {
    ByteWriter w;
    w.put_varint(huffman::kMaxAlphabet);
    w.put_u8(length);
    w.put_varint(huffman::kMaxAlphabet);
    const Bytes table = w.take();
    ASSERT_EQ(table.size(), 11u);
    EXPECT_THROW(
        (void)huffman::decode(
            huffman::deserialize_table(BytesView(table), symbols.size()),
            BytesView(bits), symbols.size()),
        CorruptError)
        << "run of length " << int{length};
  }
  EXPECT_LT(peak_rss_kib() - peak_before, uint64_t{8} * 1024)
      << "VmHWM grew by more than 8 MiB";
}

// huffman::decode's second-level tables grow with the codewords past the
// root window, and the used-symbol bound caps those at the stream's
// symbol count.  A forged table with the most 18-bit codewords a stream at
// kProbeDecodeMinSymbols admits (one run, an incomplete code whose
// second-level tables are each 2^kMaxSubTableBits wide) must decode
// exactly as the walk does, or fail as it does, over zero bits (every
// symbol the first codeword), one bits (the hole past the last codeword)
// and random bits, without VmHWM growing by 8 MiB.
TEST(DecoderHardening, HuffmanSecondLevelTablesBounded) {
  const size_t count = huffman::kProbeDecodeMinSymbols;
  const unsigned length =
      huffman::kDecodeTableBits + huffman::kMaxSubTableBits;
  ByteWriter w;
  w.put_varint(count);
  w.put_u8(static_cast<uint8_t>(length));
  w.put_varint(count);
  const Bytes table = w.take();
  const Bytes zeros(count * length / 8, 0x00);
  const Bytes ones(zeros.size(), 0xFF);
  crypto::CtrDrbg drbg(0x18B175);
  const Bytes noise = drbg.generate(zeros.size());
  const uint64_t peak_before = peak_rss_kib();
  for (const Bytes* bits : {&zeros, &ones, &noise}) {
    const huffman::CodeTable t =
        huffman::deserialize_table(BytesView(table), count);
    ASSERT_EQ(t.used_symbols(), count);
    std::string fast, walk;
    std::vector<uint32_t> fast_out, walk_out;
    try {
      fast_out = huffman::decode(t, BytesView(*bits), count);
    } catch (const CorruptError& e) {
      fast = e.what();
    }
    try {
      walk_out = huffman::decode_tree_walk(t, BytesView(*bits), count);
    } catch (const CorruptError& e) {
      walk = e.what();
    }
    EXPECT_EQ(fast, walk);
    EXPECT_EQ(fast_out, walk_out);
    if (bits == &zeros) {
      EXPECT_EQ(fast_out, std::vector<uint32_t>(count, 0));
    }
  }
  EXPECT_LT(peak_rss_kib() - peak_before, uint64_t{8} * 1024)
      << "VmHWM grew by more than 8 MiB";
}

// Rank-4 extents that each pass the per-axis cap can multiply past
// 2^64; Dims::count() would silently wrap and every downstream size
// computation with it.  All three untrusted-header parsers must reject
// the product overflow-safely.
TEST(DecoderHardening, RankFourExtentProductOverflowRejected) {
  const size_t big = size_t{1} << 20;  // 2^80 total: wraps, and > 2^40 cap

  {  // v2 container header
    core::Header h;
    h.scheme = core::Scheme::kNone;
    h.dims = Dims{big, big, big, big};
    h.params = small_params();
    Bytes c = core::write_header(h);
    c.insert(c.end(), 16, uint8_t{0});
    EXPECT_THROW((void)core::peek_header(BytesView(c)), Error);
  }
  {  // v3 chunked-archive index
    ByteWriter w;
    w.put_u32(archive::kChunkedMagic);
    w.put_u8(archive::kChunkedVersion);
    w.put_u8(4);
    for (int i = 0; i < 4; ++i) w.put_varint(big);
    w.put_varint(1);                          // chunk count
    w.put_varint(0), w.put_varint(8);         // offset, frame_len
    w.put_varint(0), w.put_varint(big);       // row_start, row_extent
    Bytes a = w.take();
    const uint32_t crc = crc32(BytesView(a));
    ByteWriter tail;
    tail.put_u32(crc);
    const Bytes t = tail.take();
    a.insert(a.end(), t.begin(), t.end());
    a.insert(a.end(), 8, uint8_t{0});
    EXPECT_THROW((void)archive::read_chunk_index(BytesView(a)), Error);
  }
  {  // v1 slab archive
    ByteWriter w;
    w.put_u32(parallel::kArchiveMagic);
    w.put_u8(parallel::kArchiveVersion);
    w.put_u8(4);
    for (int i = 0; i < 4; ++i) w.put_varint(big);
    w.put_varint(1);
    w.put_blob(Bytes(8, 0));
    const Bytes a = w.take();
    EXPECT_THROW((void)parallel::decompress_slabs_f32(BytesView(a),
                                                      BytesView(replay_key(16))),
                 Error);
  }
}

// A forged header with huge (but individually legal) dims and a short
// symbol stream used to commit a dims-sized resize before the
// reconstructor noticed the mismatch.  The payload CRC is seeded from
// the header's semantic bytes but is attacker-recomputable, so this
// test re-seals the CRC exactly like an attacker would.
TEST(DecoderHardening, ShortCodeStreamWithHugeDimsRejected) {
  const Dims dims{6, 8};
  const std::vector<float> f = ramp(dims.count());
  const core::SecureCompressor c(small_params(), core::Scheme::kNone);
  const auto r = c.compress(std::span<const float>(f), dims);

  core::Header h = core::peek_header(BytesView(r.container));
  const size_t header_size = core::write_header(h).size();
  const Bytes payload(r.container.begin() +
                          static_cast<std::ptrdiff_t>(header_size),
                      r.container.end());

  h.dims = Dims{1024, 1024, 1024};  // 2^30 elements, 4 GiB of f32
  h.payload_crc =
      crc32(BytesView(payload), crc32(BytesView(core::header_semantic_bytes(h))));
  Bytes forged = core::write_header(h);
  forged.insert(forged.end(), payload.begin(), payload.end());

  EXPECT_THROW((void)c.decompress(BytesView(forged)), Error);
}

// Index rows are validated subtractively so row_start + row_extent can
// never wrap uint64_t; a huge row_extent must die at the entry check.
TEST(DecoderHardening, IndexRowExtentWrapRejected) {
  ByteWriter w;
  w.put_u32(archive::kChunkedMagic);
  w.put_u8(archive::kChunkedVersion);
  w.put_u8(1);
  w.put_varint(16);  // dims: 16 rows
  w.put_varint(2);   // two chunks
  w.put_varint(0), w.put_varint(5);  // entry 0: offset, frame_len
  w.put_varint(0), w.put_varint(3);  // rows [0, 3)
  w.put_varint(5), w.put_varint(5);  // entry 1: offset, frame_len
  w.put_varint(3);
  w.put_varint(~uint64_t{0});  // row_extent: 3 + (2^64-1) wraps to 2
  Bytes a = w.take();
  const uint32_t crc = crc32(BytesView(a));
  ByteWriter tail;
  tail.put_u32(crc);
  const Bytes t = tail.take();
  a.insert(a.end(), t.begin(), t.end());
  a.insert(a.end(), 10, uint8_t{0});
  EXPECT_THROW((void)archive::read_chunk_index(BytesView(a)), Error);
}

// REVIEW regression: frame_len is an unbounded varint and absolute
// offsets are running sums of frame_lens, so a forged index can place
// an entry's offset above 2^64 - frame_len: the naive
// `offset + frame_len > archive.size()` bound wraps back under the
// archive size and hands parse_frame an out-of-bounds position (UB on
// untrusted input).  Both decode paths must reject the entry with the
// subtractive bound — strict with a typed throw, verify (documented
// never-throws) by reporting the chunk bad and scanning on safely.
TEST(DecoderHardening, IndexFrameLenWrapCannotEscapeBoundsCheck) {
  const auto build = [](uint64_t frame_len0) {
    ByteWriter w;
    w.put_u32(archive::kChunkedMagic);
    w.put_u8(archive::kChunkedVersion);
    w.put_u8(1);
    w.put_varint(16);  // dims: 16 rows
    w.put_varint(2);   // two chunks
    w.put_varint(0), w.put_varint(frame_len0);    // entry 0
    w.put_varint(0), w.put_varint(8);             // rows [0, 8)
    w.put_varint(frame_len0), w.put_varint(200);  // entry 1 (dense)
    w.put_varint(8), w.put_varint(8);             // rows [8, 16)
    Bytes a = w.take();
    const uint32_t crc = crc32(BytesView(a));
    ByteWriter tail;
    tail.put_u32(crc);
    const Bytes t = tail.take();
    a.insert(a.end(), t.begin(), t.end());
    a.insert(a.end(), 300, uint8_t{0});  // body bytes past the wrap point
    return a;
  };
  // Pass 1 measures body_start (every frame_len0 >= 2^63 encodes as the
  // same 10-byte varint); pass 2 picks frame_len0 so entry 1 lands at
  // absolute offset 2^64 - 100: past the archive, but offset + 200
  // wraps to 100, inside it.
  const uint64_t body_start = build(~uint64_t{0}).size() - 300;
  const Bytes a = build(uint64_t{0} - body_start - 100);

  EXPECT_THROW((void)archive::decompress_chunked_f32(BytesView(a), {}),
               Error);

  // The streaming strict decoder has no archive size to bound against
  // and used to resize() the forged frame_len upfront — an untyped
  // std::length_error escaping the Error contract.  It must read in
  // bounded blocks and fail typed when the stream ends first.
  MemorySource src{BytesView(a)};
  MemorySink devnull;
  EXPECT_THROW((void)archive::decompress_chunked_stream(src, devnull, {}),
               Error);

  const archive::VerifyReport rep = archive::verify_archive(BytesView(a));
  EXPECT_TRUE(rep.prelude_ok);  // the index itself parses, CRC intact
  ASSERT_EQ(rep.chunks.size(), 2u);
  EXPECT_EQ(rep.chunks_ok, 0u);
  for (const archive::VerifyChunk& c : rep.chunks) {
    EXPECT_EQ(c.detail, "frame extends past archive end");
  }
  EXPECT_EQ(rep.trailing_bytes, 0u);  // wrapped body_end must not count
}

// ---------------------------------------------------------------------
// Forged seek-table footers.  The footer is redundant metadata, so the
// contract is asymmetric: read_seek_table must fail closed (typed
// CorruptError, never trusting a table that disagrees with itself)
// while the strict v3 decode — which never looks past the last indexed
// frame — must keep returning the exact baseline.

/// A small valid footer-less archive to graft forged footers onto.
Bytes footerless_archive(std::vector<float>& baseline) {
  const Dims dims{16, 4};
  const std::vector<float> f = ramp(dims.count());
  archive::ChunkedConfig cfg;
  cfg.chunks = 4;
  cfg.seek_table = false;
  crypto::CtrDrbg drbg(0xF007);
  const auto r = archive::compress_chunked(
      std::span<const float>(f), dims, small_params(), core::Scheme::kNone,
      BytesView{}, core::CipherSpec{}, cfg, &drbg);
  baseline = archive::decompress_chunked_f32(BytesView(r.archive), {});
  return r.archive;
}

/// Seals `footer` (appends its CRC unless `broken_crc`) and grafts it
/// plus a well-formed trailer onto `base`.
Bytes graft_footer(const Bytes& base, ByteWriter& footer,
                   bool broken_crc = false) {
  footer.put_u32(broken_crc ? 0xDEADBEEF
                            : crc32(BytesView(footer.bytes())));
  const Bytes fb = footer.take();
  Bytes out = base;
  out.insert(out.end(), fb.begin(), fb.end());
  ByteWriter trailer;
  trailer.put_u32(static_cast<uint32_t>(fb.size()));
  trailer.put_u32(archive::kSeekTrailerMagic);
  const Bytes tb = trailer.take();
  out.insert(out.end(), tb.begin(), tb.end());
  return out;
}

/// Footer prelude for a {16,4} field: magic, version, dtype f32, rank 2.
void footer_prelude(ByteWriter& w) {
  w.put_u32(archive::kSeekFooterMagic);
  w.put_u8(archive::kSeekFooterVersion);
  w.put_u8(0);   // dtype f32
  w.put_u8(2);   // rank
  w.put_varint(16), w.put_varint(4);
}

void expect_failed_closed_but_decodable(const Bytes& forged,
                                        const std::vector<float>& baseline,
                                        const char* label) {
  EXPECT_THROW((void)archive::read_seek_table(BytesView(forged)),
               CorruptError)
      << label;
  EXPECT_EQ(archive::decompress_chunked_f32(BytesView(forged), {}),
            baseline)
      << label;
}

// A footer whose chunk count promises more entries than its bytes hold
// dies inside the table parse (truncated varint), not by reading past
// the buffer.
TEST(DecoderHardening, SeekFooterTruncatedTableRejected) {
  std::vector<float> baseline;
  const Bytes base = footerless_archive(baseline);
  ByteWriter w;
  footer_prelude(w);
  w.put_varint(4);  // promises 4 entries...
  w.put_varint(0), w.put_varint(50);  // ...delivers 1 (offset, frame_len)
  w.put_varint(0), w.put_varint(4);   // rows [0, 4)
  w.put_varint(0), w.put_varint(16);  // elems [0, 16)
  const Bytes forged = graft_footer(base, w);
  expect_failed_closed_but_decodable(forged, baseline, "truncated table");
}

// Element ranges are redundant with rows x plane; a forged overlap or
// gap between consecutive chunks must be caught by the exact-agreement
// check even though rows alone would look dense.
TEST(DecoderHardening, SeekFooterElementOverlapAndGapRejected) {
  std::vector<float> baseline;
  const Bytes base = footerless_archive(baseline);
  // Entry layout: 4 chunks x 4 rows x plane 4 = 16 elems each.
  const auto table = [&](uint64_t e1_start, uint64_t e1_count) {
    ByteWriter w;
    footer_prelude(w);
    w.put_varint(4);
    uint64_t off = 10;
    for (int i = 0; i < 4; ++i) {
      w.put_varint(off), w.put_varint(20);  // dense offsets

      off += 20;
      w.put_varint(static_cast<uint64_t>(i) * 4), w.put_varint(4);
      if (i == 1) {
        w.put_varint(e1_start), w.put_varint(e1_count);
      } else {
        w.put_varint(static_cast<uint64_t>(i) * 16), w.put_varint(16);
      }
    }
    return graft_footer(base, w);
  };
  // Overlap: chunk 1 claims elements already owned by chunk 0.
  expect_failed_closed_but_decodable(table(8, 16), baseline,
                                     "element overlap");
  // Gap: chunk 1 starts past its row range, leaving [16, 24) unowned.
  expect_failed_closed_but_decodable(table(24, 16), baseline,
                                     "element gap");
  // Count forged short: rows say 16 elements, footer says 12.
  expect_failed_closed_but_decodable(table(16, 12), baseline,
                                     "element count short");
}

// Footer dims whose element product overflows size_t must die in
// checked_field_elements before any allocation is sized from them.
TEST(DecoderHardening, SeekFooterExtentProductOverflowRejected) {
  std::vector<float> baseline;
  const Bytes base = footerless_archive(baseline);
  ByteWriter w;
  w.put_u32(archive::kSeekFooterMagic);
  w.put_u8(archive::kSeekFooterVersion);
  w.put_u8(0);  // dtype f32
  w.put_u8(4);  // rank 4
  // Each extent is individually plausible; the product wraps 2^64.
  for (int i = 0; i < 4; ++i) w.put_varint(uint64_t{1} << 42);
  w.put_varint(1);                     // one chunk
  w.put_varint(0), w.put_varint(50);   // offset, frame_len
  w.put_varint(0), w.put_varint(1);    // rows
  w.put_varint(0), w.put_varint(1);    // elems
  const Bytes forged = graft_footer(base, w);
  expect_failed_closed_but_decodable(forged, baseline, "extent overflow");
}

// The CRC is the last line of defense: a structurally plausible footer
// with a wrong checksum is still forged.
TEST(DecoderHardening, SeekFooterCrcMismatchRejected) {
  std::vector<float> baseline;
  const Bytes base = footerless_archive(baseline);
  ByteWriter w;
  footer_prelude(w);
  w.put_varint(4);
  uint64_t off = 10;
  for (int i = 0; i < 4; ++i) {
    w.put_varint(off), w.put_varint(20);
    off += 20;
    w.put_varint(static_cast<uint64_t>(i) * 4), w.put_varint(4);
    w.put_varint(static_cast<uint64_t>(i) * 16), w.put_varint(16);
  }
  const Bytes forged = graft_footer(base, w, /*broken_crc=*/true);
  expect_failed_closed_but_decodable(forged, baseline, "crc mismatch");
}

}  // namespace
}  // namespace szsec::testing
