// Extension: bit-flip corruption study — the quantitative version of the
// paper's motivation ("even a single bit-corruption can result in the
// complete failure of decompression", citing ARC/Fulp et al.).
//
// Part 1: for each scheme (plus the authenticated-container extension)
// this flips random single bits in finished containers and classifies
// the outcome:
//   rejected   decompression threw (CRC, format, padding, or MAC)
//   corrupted  decoded "successfully" but violated the error bound
//   silent     decoded within bound  <- must stay at 0
//
// Part 2: the same fault classes (plus chunk drop and boundary
// truncation) against the fault-tolerant chunked archive, reporting the
// salvage recovery rate — the fraction of elements still within the
// error bound after best-effort decoding.  A monolithic container loses
// everything to one flip; the chunked archive loses one chunk.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "archive/chunked.h"
#include "bench_util.h"
#include "common/stats.h"

using namespace szsec;
using namespace szsec::bench;

int main() {
  constexpr int kTrials = 400;
  const data::Dataset& d = dataset("Q2");
  const double eb = 1e-4;
  std::printf("Bit-flip study: %d random single-bit flips per config "
              "(dataset Q2, eb=%.0e)\n\n",
              kTrials, eb);
  std::printf("%-22s %10s %10s %10s %10s\n", "config", "rejected",
              "corrupted", "inert", "silent");

  struct Config {
    const char* name;
    core::Scheme scheme;
    bool authenticate;
  };
  const Config configs[] = {
      {"SZ", core::Scheme::kNone, false},
      {"Cmpr-Encr", core::Scheme::kCmprEncr, false},
      {"Encr-Quant", core::Scheme::kEncrQuant, false},
      {"Encr-Huffman", core::Scheme::kEncrHuffman, false},
      {"Encr-Huffman+HMAC", core::Scheme::kEncrHuffman, true},
  };

  for (const Config& cfg : configs) {
    sz::Params params;
    params.abs_error_bound = eb;
    core::CipherSpec spec;
    spec.authenticate = cfg.authenticate;
    const core::SecureCompressor c(
        params, cfg.scheme,
        cfg.scheme == core::Scheme::kNone && !cfg.authenticate
            ? BytesView{}
            : bench_key(),
        spec);
    const auto r = c.compress(std::span<const float>(d.values), d.dims);
    const auto baseline = c.decompress_f32(BytesView(r.container));

    std::mt19937_64 rng(0xB17F11);
    int rejected = 0, corrupted = 0, inert = 0, silent = 0;
    for (int t = 0; t < kTrials; ++t) {
      Bytes tampered = r.container;
      tampered[rng() % tampered.size()] ^=
          static_cast<uint8_t>(1u << (rng() % 8));
      try {
        const auto out = c.decompress(BytesView(tampered));
        if (out.f32 == baseline) {
          ++inert;  // dead bit (e.g. DEFLATE padding): output unchanged
        } else if (out.f32.size() == d.values.size() &&
                   within_abs_bound(std::span<const float>(d.values),
                                    std::span<const float>(out.f32), eb)) {
          ++silent;  // must never happen
        } else {
          ++corrupted;
        }
      } catch (const Error&) {
        ++rejected;
      }
    }
    std::printf("%-22s %9.1f%% %9.1f%% %9.1f%% %9.1f%%\n", cfg.name,
                100.0 * rejected / kTrials, 100.0 * corrupted / kTrials,
                100.0 * inert / kTrials, 100.0 * silent / kTrials);
  }
  std::printf(
      "\nExpected: zero *silent* outcomes everywhere (header-seeded\n"
      "payload CRC).  'inert' counts flips of semantically dead bits\n"
      "(DEFLATE padding, unused code-table entries) whose decode is\n"
      "bit-identical to the original.  The HMAC config rejects every\n"
      "flip outright, dead bits included.\n");

  // ---- Part 2: salvage recovery on the chunked archive ----
  // Archives first: the planner makes fewer chunks than requested when the
  // field has fewer rows (SZSEC_SCALE=tiny), so faults draw from the chunks
  // each archive's index actually lists.
  constexpr size_t kChunks = 8;
  constexpr int kSalvageTrials = 40;
  struct ChunkedArchive {
    Bytes bytes;
    archive::ChunkIndex index;
    BytesView key;
  };
  std::vector<ChunkedArchive> archives;
  size_t min_chunks = SIZE_MAX, max_chunks = 0;
  for (const Config& cfg : configs) {
    sz::Params params;
    params.abs_error_bound = eb;
    core::CipherSpec spec;
    spec.authenticate = cfg.authenticate;
    archive::ChunkedConfig chunk_cfg;
    chunk_cfg.chunks = kChunks;
    const BytesView key = cfg.scheme == core::Scheme::kNone &&
                                  !cfg.authenticate
                              ? BytesView{}
                              : bench_key();
    Bytes bytes = archive::compress_chunked(std::span<const float>(d.values),
                                            d.dims, params, cfg.scheme, key,
                                            spec, chunk_cfg)
                      .archive;
    archive::ChunkIndex index = archive::read_chunk_index(BytesView(bytes));
    min_chunks = std::min(min_chunks, index.entries.size());
    max_chunks = std::max(max_chunks, index.entries.size());
    archives.push_back({std::move(bytes), std::move(index), key});
  }
  const std::string made = min_chunks == max_chunks
                               ? std::to_string(min_chunks)
                               : std::to_string(min_chunks) + "-" +
                                     std::to_string(max_chunks);
  std::printf(
      "\nSalvage recovery: chunked archive (%s chunks, %zu requested), same\n"
      "dataset.  Rate = fraction of elements within the error bound after\n"
      "decompress_salvage (mean fill), averaged over %d trials.\n\n",
      made.c_str(), kChunks, kSalvageTrials);
  std::printf("%-22s %10s %10s %10s\n", "config", "bitflip", "drop",
              "truncate");

  struct Fault {
    const char* name;
    Bytes (*apply)(BytesView, const archive::ChunkEntry&, std::mt19937_64&);
  };
  const Fault faults[] = {
      {"bitflip",
       [](BytesView a, const archive::ChunkEntry& e, std::mt19937_64& rng) {
         Bytes out(a.begin(), a.end());
         const size_t byte = static_cast<size_t>(
             e.offset + rng() % e.frame_len);
         out[byte] ^= static_cast<uint8_t>(1u << (rng() % 8));
         return out;
       }},
      {"drop",
       [](BytesView a, const archive::ChunkEntry& e, std::mt19937_64&) {
         Bytes out(a.begin(),
                   a.begin() + static_cast<std::ptrdiff_t>(e.offset));
         out.insert(out.end(),
                    a.begin() + static_cast<std::ptrdiff_t>(e.offset +
                                                            e.frame_len),
                    a.end());
         return out;
       }},
      {"truncate",
       [](BytesView a, const archive::ChunkEntry& e, std::mt19937_64&) {
         return Bytes(a.begin(),
                      a.begin() + static_cast<std::ptrdiff_t>(e.offset));
       }},
  };

  for (size_t c = 0; c < std::size(configs); ++c) {
    const ChunkedArchive& ar = archives[c];
    std::printf("%-22s", configs[c].name);
    for (const Fault& fault : faults) {
      std::mt19937_64 rng(0x5A17A6E);
      double rate_sum = 0;
      for (int t = 0; t < kSalvageTrials; ++t) {
        const archive::ChunkEntry& entry =
            ar.index.entries[rng() % ar.index.entries.size()];
        const Bytes bad = fault.apply(BytesView(ar.bytes), entry, rng);
        const archive::SalvageResult s =
            archive::decompress_salvage(BytesView(bad), ar.key);
        size_t within = 0;
        for (size_t i = 0; i < d.values.size(); ++i) {
          if (i < s.f32.size() &&
              std::abs(static_cast<double>(s.f32[i]) - d.values[i]) <=
                  eb * (1 + 1e-6)) {
            ++within;
          }
        }
        rate_sum += static_cast<double>(within) / d.values.size();
      }
      std::printf(" %9.1f%%", 100.0 * rate_sum / kSalvageTrials);
    }
    std::printf("\n");
  }
  std::printf(
      "\nExpected: every fault class recovers ~(1 - 1/chunks) of the\n"
      "field (lost chunk filled with the recovered mean; a boundary\n"
      "truncation loses every chunk after the cut).  The monolithic\n"
      "containers above lose 100%% to the same faults.\n");
  return 0;
}
