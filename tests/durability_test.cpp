// Torn-write recovery campaign: the durability acceptance gate for the
// v3 chunked archive.
//
// For every scheme (and both element types), archives are damaged the
// way real storage fails — truncated at sampled offsets (power cut
// mid-write), tails zeroed (preallocated-but-unwritten extents), single
// bytes flipped (media rot) — and three properties are asserted on
// every artifact:
//
//   1. strict decode fails *cleanly*: a typed szsec::Error, no hang, no
//      sanitizer finding (this test carries the `sanitize` label);
//   2. salvage recovers every chunk whose frame was fully committed
//      before the fault, exactly;
//   3. `verify_archive` agrees with strict decode: clean() iff a strict
//      decode of the same bytes would succeed.
//
// Plus the transport side: an injected ENOSPC mid-compress surfaces as
// a typed IoError through the streaming compressor, and transient read
// bursts are absorbed by RetrySource without disturbing the decode.
//
// All offsets are PropRng-sampled — a failure reproduces from the seed.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "archive/chunked.h"
#include "archive/seekable.h"
#include "archive/verify.h"
#include "testing/fault_io.h"
#include "testing/rng.h"

namespace szsec {
namespace {

using archive::ChunkEntry;
using archive::ChunkIndex;
using archive::ChunkStatus;

constexpr uint64_t kCampaignSeed = 0xD0'0001;

Bytes test_key() {
  Bytes key(16);
  for (size_t i = 0; i < key.size(); ++i) key[i] = static_cast<uint8_t>(i);
  return key;
}

/// One archive under test: deterministic bytes (fixed field, fixed IV
/// DRBG, pinned chunk count) plus its parsed index.
struct Campaign {
  std::string name;
  Bytes archive;
  ChunkIndex index;
  Bytes key;
  bool f64 = false;
};

constexpr size_t kRows = 24;
constexpr size_t kCols = 16;
constexpr size_t kChunks = 6;

archive::ChunkedConfig campaign_config(unsigned threads = 1) {
  archive::ChunkedConfig config;
  config.chunks = kChunks;
  config.threads = threads;
  // The damage campaigns reason about frame/index offsets; the
  // seek-table footer would shift every cut past the last frame.  Its
  // own torn-write behavior is covered by FooterTornWrite below and the
  // SeekableFooter tests in seekable_test.
  config.seek_table = false;
  return config;
}

Campaign build_campaign(core::Scheme scheme, bool f64, bool authenticate) {
  Campaign c;
  c.name = std::string(core::scheme_name(scheme)) + (f64 ? "/f64" : "/f32");
  c.key = scheme == core::Scheme::kNone ? Bytes{} : test_key();
  c.f64 = f64;
  sz::Params params;
  params.abs_error_bound = 1e-3;
  core::CipherSpec spec;
  spec.authenticate = authenticate && scheme != core::Scheme::kNone;
  crypto::CtrDrbg drbg(kCampaignSeed);
  const Dims dims{kRows, kCols};
  if (f64) {
    std::vector<double> field(dims.count());
    for (size_t i = 0; i < field.size(); ++i) {
      field[i] = static_cast<double>(i % 97) * 0.25 - 12.0;
    }
    c.archive = archive::compress_chunked(std::span<const double>(field),
                                          dims, params, scheme,
                                          BytesView(c.key), spec,
                                          campaign_config(), &drbg)
                    .archive;
  } else {
    std::vector<float> field(dims.count());
    for (size_t i = 0; i < field.size(); ++i) {
      field[i] = static_cast<float>(i % 89) * 0.5f - 20.0f;
    }
    c.archive = archive::compress_chunked(std::span<const float>(field),
                                          dims, params, scheme,
                                          BytesView(c.key), spec,
                                          campaign_config(), &drbg)
                    .archive;
  }
  c.index = archive::read_chunk_index(BytesView(c.archive));
  return c;
}

/// Strict decode must throw a *typed* error on this artifact — for both
/// element types (the wrong-dtype call is also a clean typed failure)
/// and for serial and parallel decoders alike.
void expect_strict_decode_throws(const Campaign& c, const Bytes& bytes,
                                 const std::string& what) {
  for (const unsigned threads : {1u, 4u}) {
    try {
      if (c.f64) {
        archive::decompress_chunked_f64(BytesView(bytes), BytesView(c.key),
                                        campaign_config(threads));
      } else {
        archive::decompress_chunked_f32(BytesView(bytes), BytesView(c.key),
                                        campaign_config(threads));
      }
      FAIL() << c.name << ": strict decode of " << what << " (threads "
             << threads << ") did not throw";
    } catch (const szsec::Error&) {
      // Typed and clean: exactly the contract.
    }
  }
}

/// Salvage must recover exactly the chunks whose frames were fully
/// committed below `intact_end` (archive bytes at and past that offset
/// are untrustworthy).  Requires the prelude/index region to be intact.
void expect_salvage_recovers_committed(const Campaign& c, const Bytes& bytes,
                                       uint64_t intact_end,
                                       const std::string& what) {
  for (const unsigned threads : {1u, 4u}) {
    archive::SalvageOptions opts;
    opts.threads = threads;
    const archive::SalvageResult r =
        c.f64 ? archive::decompress_salvage_f64(BytesView(bytes),
                                                BytesView(c.key), opts)
              : archive::decompress_salvage(BytesView(bytes),
                                            BytesView(c.key), opts);
    ASSERT_TRUE(r.report.index_intact) << c.name << ": " << what;
    ASSERT_EQ(r.report.chunks.size(), c.index.entries.size());
    uint64_t committed = 0;
    for (size_t i = 0; i < c.index.entries.size(); ++i) {
      const ChunkEntry& e = c.index.entries[i];
      if (e.offset + e.frame_len <= intact_end) {
        ++committed;
        EXPECT_EQ(r.report.chunks[i].status, ChunkStatus::kOk)
            << c.name << ": " << what << ": committed chunk " << i
            << " not recovered (" << r.report.chunks[i].detail << ")";
      }
    }
    EXPECT_EQ(r.report.chunks_recovered, committed)
        << c.name << ": " << what
        << ": salvage recovered a chunk the fault had destroyed";
  }
}

/// verify_archive must agree with strict decode on every artifact:
/// clean() iff strict decode succeeds.
void expect_verify_agrees(const Campaign& c, const Bytes& bytes,
                          bool strict_succeeds, const std::string& what) {
  const archive::VerifyReport rep =
      archive::verify_archive(BytesView(bytes), BytesView(c.key));
  EXPECT_EQ(rep.clean(), strict_succeeds)
      << c.name << ": " << what << ": verify "
      << (rep.clean() ? "clean" : ("damaged (" +
                                   (rep.prelude_ok
                                        ? std::string("chunk damage")
                                        : rep.prelude_detail) +
                                   ")"))
      << " but strict decode " << (strict_succeeds ? "succeeds" : "fails");
}

/// Runs the full fault battery against one campaign archive.
void run_campaign(const Campaign& c) {
  const Bytes& a = c.archive;
  ASSERT_GE(c.index.entries.size(), 2u);
  const uint64_t body_start = c.index.body_start;

  // The pristine archive: strict decode succeeds, verify is clean and
  // (when a key is present) every MAC check passes.
  {
    const archive::VerifyReport rep =
        archive::verify_archive(BytesView(a), BytesView(c.key));
    EXPECT_TRUE(rep.clean()) << c.name << ": pristine archive not clean";
    expect_verify_agrees(c, a, true, "pristine");
  }

  testing::PropRng rng(kCampaignSeed ^ std::hash<std::string>{}(c.name));

  // --- truncations: every frame boundary, every frame middle, the
  // prelude, and sampled offsets.  Bytes below the cut are intact.
  std::vector<uint64_t> cuts;
  cuts.push_back(2);                // inside the magic
  cuts.push_back(body_start / 2);   // inside the index
  cuts.push_back(body_start);       // index survives, no frame does
  for (const ChunkEntry& e : c.index.entries) {
    cuts.push_back(e.offset + e.frame_len / 2);  // mid-frame torn write
    cuts.push_back(e.offset + e.frame_len);      // clean frame boundary
  }
  for (int i = 0; i < 8; ++i) cuts.push_back(rng.range(1, a.size() - 1));
  for (const uint64_t cut : cuts) {
    if (cut >= a.size()) continue;
    const std::string what =
        "truncation@" + std::to_string(cut) + "/" + std::to_string(a.size());
    const Bytes torn(a.begin(), a.begin() + static_cast<size_t>(cut));
    expect_strict_decode_throws(c, torn, what);
    expect_verify_agrees(c, torn, false, what);
    if (cut >= body_start) {
      expect_salvage_recovers_committed(c, torn, cut, what);
    } else {
      // Prelude gone: recovery guarantees shrink (resync scan only),
      // but salvage must still fail *cleanly*, never throw or hang.
      EXPECT_NO_THROW(c.f64 ? archive::decompress_salvage_f64(
                                  BytesView(torn), BytesView(c.key))
                            : archive::decompress_salvage(
                                  BytesView(torn), BytesView(c.key)))
          << c.name << ": " << what;
    }
  }

  // --- zeroed tails: the file kept its length but the tail never hit
  // the platter (preallocated extents after a crash).
  for (int i = 0; i < 4; ++i) {
    const uint64_t cut = rng.range(body_start, a.size() - 1);
    const std::string what = "zero-tail@" + std::to_string(cut);
    Bytes zeroed = a;
    std::fill(zeroed.begin() + static_cast<size_t>(cut), zeroed.end(), 0);
    expect_strict_decode_throws(c, zeroed, what);
    expect_verify_agrees(c, zeroed, false, what);
    expect_salvage_recovers_committed(c, zeroed, cut, what);
  }

  // --- single-byte flips in the frame region: exactly one chunk dies,
  // every other chunk survives salvage.
  for (int i = 0; i < 8; ++i) {
    const uint64_t at = rng.range(body_start, a.size() - 1);
    const std::string what = "bit-flip@" + std::to_string(at);
    Bytes flipped = a;
    flipped[static_cast<size_t>(at)] ^= 0x40;
    expect_strict_decode_throws(c, flipped, what);
    expect_verify_agrees(c, flipped, false, what);
    const archive::SalvageResult r =
        c.f64 ? archive::decompress_salvage_f64(BytesView(flipped),
                                                BytesView(c.key))
              : archive::decompress_salvage(BytesView(flipped),
                                            BytesView(c.key));
    EXPECT_GE(r.report.chunks_recovered, c.index.entries.size() - 1)
        << c.name << ": " << what << ": one flipped byte killed "
        << (c.index.entries.size() - r.report.chunks_recovered)
        << " chunks";
  }
}

TEST(DurabilityCampaign, SchemeNone) {
  run_campaign(build_campaign(core::Scheme::kNone, false, false));
}

TEST(DurabilityCampaign, SchemeCmprEncrAuthenticated) {
  run_campaign(build_campaign(core::Scheme::kCmprEncr, false, true));
}

TEST(DurabilityCampaign, SchemeEncrQuant) {
  run_campaign(build_campaign(core::Scheme::kEncrQuant, false, false));
}

TEST(DurabilityCampaign, SchemeEncrHuffman) {
  run_campaign(build_campaign(core::Scheme::kEncrHuffman, false, false));
}

TEST(DurabilityCampaign, SchemeEncrHuffmanF64) {
  run_campaign(build_campaign(core::Scheme::kEncrHuffman, true, false));
}

// An injected ENOSPC mid-stream must abort the streaming compressor
// with a typed, permanent IoError — no hang, no silent short archive.
TEST(DurabilityTransport, EnospcMidCompressIsTypedIoError) {
  const Dims dims{kRows, kCols};
  std::vector<float> field(dims.count(), 1.5f);
  Bytes raw(field.size() * sizeof(float));
  std::memcpy(raw.data(), field.data(), raw.size());

  MemorySource in{BytesView(raw)};
  MemorySink out;
  testing::FaultPlan plan;
  plan.fail_at = 64;  // the disk fills almost immediately
  testing::FaultySink faulty(&out, plan, kCampaignSeed);
  sz::Params params;
  params.abs_error_bound = 1e-3;
  crypto::CtrDrbg drbg(kCampaignSeed);
  try {
    archive::compress_chunked_stream(in, faulty, sz::DType::kFloat32, dims,
                                     params, core::Scheme::kNone, {}, {},
                                     campaign_config(), &drbg);
    FAIL() << "compress into a full disk did not throw";
  } catch (const IoError& e) {
    EXPECT_EQ(e.error_code(), ENOSPC);
    EXPECT_FALSE(e.transient());
  }
}

// Transient read bursts under the streaming strict decoder: RetrySource
// absorbs them and the decode output is byte-identical to a fault-free
// run.  The choke caps every read at a few hundred bytes, so the fault
// plan draws many times whatever read sizes the decoder asks for.
TEST(DurabilityTransport, RetrySourceAbsorbsBurstsDuringDecode) {
  const Campaign c =
      build_campaign(core::Scheme::kEncrHuffman, false, false);

  MemorySource clean_src{BytesView(c.archive)};
  MemorySink clean_out;
  archive::decompress_chunked_stream(clean_src, clean_out, BytesView(c.key),
                                     campaign_config());

  MemorySource memory{BytesView(c.archive)};
  ChokedSource inner(memory, 300);
  testing::FaultPlan plan;
  plan.transient_rate = 0.2;
  plan.burst_len = 2;
  testing::FaultySource faulty(inner, plan, kCampaignSeed);
  RetryPolicy policy;
  policy.max_attempts = 32;
  policy.base_delay_us = 1;
  policy.sleeper = [](uint32_t) {};
  RetrySource retry(faulty, policy);
  MemorySink out;
  const archive::ChunkedStreamDecodeResult r =
      archive::decompress_chunked_stream(retry, out, BytesView(c.key),
                                         campaign_config());
  EXPECT_EQ(out.bytes(), clean_out.bytes());
  EXPECT_EQ(r.elements, kRows * kCols);
  EXPECT_GT(faulty.faults(), 0u) << "plan injected no faults at all";
}

// Streaming salvage must also hold the recovery guarantee for a torn
// tail arriving over a faulty transport (early EOF at the cut).
TEST(DurabilityTransport, StreamingSalvageOfTruncatedStream) {
  const Campaign c =
      build_campaign(core::Scheme::kCmprEncr, false, false);
  const ChunkEntry& e1 = c.index.entries[1];
  const uint64_t cut = e1.offset + e1.frame_len;  // two committed chunks

  MemorySource inner{BytesView(c.archive)};
  testing::FaultPlan plan;
  plan.truncate_at = cut;
  testing::FaultySource faulty(inner, plan, kCampaignSeed);
  MemorySink out;
  archive::SalvageOptions opts;
  opts.fill = archive::FallbackFill::kZeros;
  const archive::ChunkedStreamSalvageResult r =
      archive::salvage_chunked_stream(faulty, out, BytesView(c.key), opts);
  EXPECT_EQ(r.report.chunks_recovered, 2u);
  EXPECT_EQ(out.bytes().size(), kRows * kCols * sizeof(float));
}

// A crash while appending the seek-table footer (every frame committed,
// footer partially written) must never cost data: strict decode returns
// the exact field at every cut point, verify stays clean, and the
// seekable open either works (footer or prelude fallback) or fails with
// a typed CorruptError — never garbage, never an untyped escape.
TEST(DurabilityCampaign, FooterTornWriteNeverCostsData) {
  archive::ChunkedConfig with_footer = campaign_config();
  with_footer.seek_table = true;
  sz::Params params;
  params.abs_error_bound = 1e-3;
  const Bytes key = test_key();
  const Dims dims{kRows, kCols};
  std::vector<float> field(dims.count());
  for (size_t i = 0; i < field.size(); ++i) {
    field[i] = static_cast<float>(i % 89) * 0.5f - 20.0f;
  }
  crypto::CtrDrbg d1(kCampaignSeed), d2(kCampaignSeed);
  const Bytes footered =
      archive::compress_chunked(std::span<const float>(field), dims, params,
                                core::Scheme::kCmprEncr, BytesView(key), {},
                                with_footer, &d1)
          .archive;
  const Bytes bare =
      archive::compress_chunked(std::span<const float>(field), dims, params,
                                core::Scheme::kCmprEncr, BytesView(key), {},
                                campaign_config(), &d2)
          .archive;
  ASSERT_GT(footered.size(), bare.size());
  const std::vector<float> baseline =
      archive::decompress_chunked_f32(BytesView(bare), BytesView(key));

  for (size_t cut = bare.size(); cut <= footered.size(); ++cut) {
    const Bytes torn(footered.begin(),
                     footered.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_EQ(
        archive::decompress_chunked_f32(BytesView(torn), BytesView(key)),
        baseline)
        << "cut at " << cut;
    EXPECT_TRUE(
        archive::verify_archive(BytesView(torn), BytesView(key)).clean())
        << "cut at " << cut;
    try {
      const auto reader =
          archive::SeekableReader::open(BytesView(torn), BytesView(key));
      std::vector<float> got(baseline.size());
      reader->read_range(0, baseline.size(), std::span<float>(got));
      EXPECT_EQ(got, baseline) << "cut at " << cut;
    } catch (const CorruptError&) {
      // Fail-closed on a half-written footer: acceptable; the strict
      // decode above already proved the data itself survives.
    }
  }
}

}  // namespace
}  // namespace szsec
