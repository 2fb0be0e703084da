// Kernel-level throughput at every available dispatch level.
//
// Measures MB/s for the three hand-written kernel families — AES block
// modes (scalar / AES-NI / VAES), Huffman decode (tree walk vs. the
// two-level tables, on narrow codes, on the hard chunk's codes, and at
// kProbeDecodeMinSymbols where the table build is most of a call), and
// the SZ predict/quantize row kernels
// (scalar / SSE2 / AVX2) — forcing each level in-process through
// cpu::override_features_for_testing().  SZ stages 1+2 of a plume and a
// Nyx-like chunk are timed against the reference's scan-order loop.  The entropy encoders (Huffman
// encode, zlite deflate) are timed against the per-bit and per-byte
// reference encoders they must match byte for byte
// (src/testing/reference_coders.h), on a hard-like payload (wide
// quantization codes, near-random packed bytes) and an easy-like one
// (mostly the zero bin, long byte runs).
//
// The decoders are timed the same way: zlite inflate against the
// reference's canonical bit walk, on the stage-4 payload of a real chunk
// (predict+quantize and Huffman over a Nyx-like and a sparse plume
// field), and CRC-32 against the bytewise table.  So is the Huffman
// table set-up, against the reference's heap builder and dense table
// writer and parser.
//
// This is also the perf-floor gate for CI: the process exits nonzero
// when
//   * AES-NI CTR throughput is below 4x the scalar backend,
//   * table-driven Huffman decode is below 2x the tree walk on narrow
//     codes, or below 3.5x on the hard chunk's codes (9.2% of them past
//     the root window, so a fall back to the bit walk for long codewords
//     breaches it),
//   * Huffman encode is below 1.5x the reference, or zlite deflate below
//     1.2x, over a MB of each payload (the speedup on the summed time),
//   * Huffman set-up (build plus table write, table parse plus decode
//     tables) is below 3x the reference over a narrow and a wide chunk,
//   * zlite inflate is below 1.5x the reference over both chunk payloads,
//     or CRC-32 below 2x the reference,
//   * predict+quantize of the plume chunk is below 1.3x the reference's
//     scan-order loop, or
//   * dispatch silently fell back to scalar although cpuid reports the
//     hardware feature (catches build-system regressions that drop the
//     -m flags or the SZSEC_HAVE_* defines).
// Floors involving a hardware level are skipped on machines that do not
// report the feature.
//
// Results go to BENCH_kernels.json (or argv[1]):
//   {"detected": "...", "kernels": [{"kernel": ..., "level": ...,
//    "mbps": ...}], "floors": [{"name": ..., "ratio": ..., "floor": ...,
//    "pass": ...}], "dispatch": {"aes_backend": ..., "sz_backend": ...,
//    "pass": ...}}

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/cpu.h"
#include "common/crc32.h"
#include "common/error.h"
#include "common/timer.h"
#include "core/codec.h"
#include "crypto/aes.h"
#include "data/fieldgen.h"
#include "huffman/huffman.h"
#include "sz/kernels.h"
#include "sz/pipeline.h"
#include "testing/reference_coders.h"
#include "zlite/zlite.h"

namespace {

using szsec::Bytes;
using szsec::BytesView;
using szsec::CpuTimer;
namespace cpu = szsec::cpu;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

int runs() {
  const char* env = std::getenv("SZSEC_RUNS");
  const int r = env != nullptr ? std::atoi(env) : 3;
  return std::max(3, r);
}

struct KernelResult {
  std::string kernel;
  std::string level;
  double mbps = 0;
};

struct FloorResult {
  std::string name;
  double ratio = 0;
  double floor = 0;
  bool pass = true;
  bool skipped = false;
};

// Median MB/s of `body` over `bytes` useful bytes per call.
template <typename Fn>
double time_mbps(size_t bytes, Fn&& body) {
  body();  // warmup
  std::vector<double> rates;
  for (int r = 0; r < runs(); ++r) {
    CpuTimer t;
    body();
    rates.push_back(static_cast<double>(bytes) / 1e6 / t.elapsed_s());
  }
  return median(std::move(rates));
}

// ------------------------------------------------------------------ AES

void bench_aes(uint32_t level_mask, const std::string& level,
               std::vector<KernelResult>& out) {
  cpu::override_features_for_testing(level_mask);
  const uint8_t key[16] = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                           0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
  const szsec::crypto::Aes aes(BytesView(key, 16));
  constexpr size_t kBytes = 8 * 1024 * 1024;
  std::vector<uint8_t> buf(kBytes, 0xA5);
  const size_t nblocks = kBytes / 16;

  out.push_back({"aes128-ctr", level, time_mbps(kBytes, [&] {
                   uint8_t counter[16] = {};
                   aes.ctr_xor_bytes(counter, buf.data(), kBytes);
                 })});
  out.push_back({"aes128-ecb-enc", level, time_mbps(kBytes, [&] {
                   aes.encrypt_blocks(buf.data(), buf.data(), nblocks);
                 })});
  out.push_back({"aes128-cbc-enc", level, time_mbps(kBytes, [&] {
                   uint8_t chain[16] = {};
                   aes.cbc_encrypt_blocks(chain, buf.data(), nblocks);
                 })});
  out.push_back({"aes128-cbc-dec", level, time_mbps(kBytes, [&] {
                   uint8_t chain[16] = {};
                   aes.cbc_decrypt_blocks(chain, buf.data(), nblocks);
                 })});
}

// -------------------------------------------------------------- Huffman

void bench_huffman(std::vector<KernelResult>& out, double& ratio) {
  // Quantization-code-shaped symbols: tightly clustered around the
  // central bin, the regime the probe table is built for.
  constexpr size_t kCount = size_t{1} << 22;
  constexpr uint32_t kRadius = 32768;
  std::mt19937_64 rng(0xBE7C4);
  std::normal_distribution<double> gauss(0.0, 2.5);
  std::vector<uint32_t> symbols(kCount);
  for (auto& s : symbols) {
    const auto d = static_cast<int64_t>(std::lround(gauss(rng)));
    s = static_cast<uint32_t>(kRadius + std::clamp<int64_t>(d, -64, 64));
  }
  std::vector<uint64_t> freq(kRadius + 65, 0);
  for (uint32_t s : symbols) ++freq[s];
  const szsec::huffman::CodeTable table =
      szsec::huffman::build_code_table(freq);
  const Bytes bits = szsec::huffman::encode(table, symbols);

  const size_t payload = kCount * sizeof(uint32_t);
  const double tree = time_mbps(payload, [&] {
    const auto got =
        szsec::huffman::decode_tree_walk(table, BytesView(bits), kCount);
    SZSEC_REQUIRE(got.size() == kCount, "tree-walk decode truncated");
  });
  const double probe = time_mbps(payload, [&] {
    const auto got = szsec::huffman::decode(table, BytesView(bits), kCount);
    SZSEC_REQUIRE(got.size() == kCount, "probe decode truncated");
  });
  out.push_back({"huffman-decode-tree", "scalar", tree});
  out.push_back({"huffman-decode-table", "scalar", probe});
  ratio = probe / tree;
}

// ----------------------------------------------------- Entropy encoders

// Quantization codes for the encoder rows.  Hard-like: a wide spread, as
// on a turbulent field at a tight bound, which packs to near-random bytes.
// Easy-like: a sparse field, mostly runs of the zero bin.
std::vector<uint32_t> entropy_symbols(bool hard, size_t count) {
  constexpr uint32_t kRadius = 32768;
  std::mt19937_64 rng(hard ? 0x4A3D : 0xEA5E);
  std::normal_distribution<double> gauss(0.0, hard ? 40.0 : 2.0);
  std::vector<uint32_t> symbols(count, kRadius);
  for (size_t i = 0; i < count;) {
    const size_t run = hard ? 1 : 1 + rng() % 4000;
    if (hard || rng() % 4 == 0) {
      for (size_t k = 0; k < run && i + k < count; ++k) {
        const auto d = static_cast<int64_t>(std::lround(gauss(rng)));
        symbols[i + k] =
            static_cast<uint32_t>(kRadius + std::clamp<int64_t>(d, -512, 512));
      }
    }
    i += run;
  }
  return symbols;
}

// Reference and library MB/s for one coder, summed as seconds per MB
// over the payloads, for its speedup on both payloads together.
struct ReferenceTimes {
  double reference_s = 0;
  double library_s = 0;

  void add(std::vector<KernelResult>& out, const std::string& kernel,
           double reference_mbps, double library_mbps) {
    out.push_back({kernel, "reference", reference_mbps});
    out.push_back({kernel, "scalar", library_mbps});
    reference_s += 1 / reference_mbps;
    library_s += 1 / library_mbps;
  }
  double speedup() const { return reference_s / library_s; }
};

// Huffman encode and zlite deflate (of the Huffman-packed codes, what the
// codec's stage 4 sees) against their references; returns the speedups.
std::pair<double, double> bench_entropy_encoders(
    std::vector<KernelResult>& out) {
  namespace ref = szsec::testing::reference;
  constexpr size_t kCount = size_t{1} << 22;
  ReferenceTimes encode, deflate;
  for (const bool hard : {true, false}) {
    const std::string payload = hard ? "hard" : "easy";
    const std::vector<uint32_t> symbols = entropy_symbols(hard, kCount);
    std::vector<uint64_t> freq(65536, 0);
    for (uint32_t s : symbols) ++freq[s];
    const szsec::huffman::CodeTable table =
        szsec::huffman::build_code_table(freq);
    const ref::HuffmanTable ref_table = ref::huffman_build_table(freq);
    const Bytes packed = szsec::huffman::encode(table, symbols);
    const BytesView in(packed);
    SZSEC_REQUIRE(packed == ref::huffman_encode(ref_table, symbols),
                  "huffman encode differs from the reference");
    SZSEC_REQUIRE(szsec::zlite::deflate(in) == ref::deflate(in),
                  "zlite deflate differs from the reference");

    const size_t symbol_bytes = kCount * sizeof(uint32_t);
    encode.add(out, "huffman-encode-" + payload, time_mbps(symbol_bytes, [&] {
                 SZSEC_REQUIRE(
                     !ref::huffman_encode(ref_table, symbols).empty(),
                     "empty");
               }),
               time_mbps(symbol_bytes, [&] {
                 SZSEC_REQUIRE(!szsec::huffman::encode(table, symbols).empty(),
                               "empty");
               }));
    deflate.add(out, "zlite-deflate-" + payload, time_mbps(packed.size(), [&] {
                  SZSEC_REQUIRE(!ref::deflate(in).empty(), "empty");
                }),
                time_mbps(packed.size(), [&] {
                  SZSEC_REQUIRE(!szsec::zlite::deflate(in).empty(), "empty");
                }));
  }
  return {encode.speedup(), deflate.speedup()};
}

// ------------------------------------------------------------- Decoders

// One ~1 MiB chunk (4 x 256 x 256 floats) and its parameters.  Hard: a
// Nyx-like density (log-normal smooth noise with 25% white noise) at eb
// 1e-2, thousands of used bins.  Easy: a sparse plume (smooth noise
// clipped at a threshold) at eb 1e-6, mostly the zero bin.
struct Chunk {
  szsec::Dims dims;
  std::vector<float> field;
  szsec::sz::Params params;
};

Chunk make_chunk(bool hard) {
  namespace data = szsec::data;
  Chunk c{szsec::Dims{4, 256, 256}, {}, {}};
  const std::vector<float> coarse =
      data::smooth_noise(c.dims, hard ? 0x4E1 : 0xC10, hard ? 8 : 6);
  const std::vector<float> fine = data::smooth_noise(c.dims, 0xF1E, 2);
  const std::vector<float> white = data::white_noise(c.dims, 0x3417E);
  c.field.resize(c.dims.count());
  for (size_t i = 0; i < c.field.size(); ++i) {
    if (hard) {
      c.field[i] = static_cast<float>(
          std::exp(1.8 * coarse[i] + 0.7 * fine[i]) * (1.0 + 0.25 * white[i]));
    } else {
      const float x = coarse[i] - 0.9f;
      c.field[i] =
          x <= 0 ? 0.0f : 1.5e-3f * x * x * (1.0f + 0.08f * fine[i]);
    }
  }
  c.params.abs_error_bound = hard ? 1e-2 : 1e-6;
  return c;
}

// Predict+quantize of one chunk.
szsec::sz::QuantizedField chunk_quant(bool hard) {
  const Chunk c = make_chunk(hard);
  return szsec::sz::predict_quantize(c.field, c.dims, c.params);
}

// What stage 4 of the codec sees for one chunk: the assembled payload
// after predict+quantize and Huffman.  Hard packs to near-random codes
// that deflate to mostly literals, easy to long zero-bin runs that
// deflate to matches.
Bytes chunk_payload(bool hard) {
  const szsec::sz::QuantizedField q = chunk_quant(hard);
  const szsec::sz::EncodedQuant enc = szsec::sz::huffman_encode_codes(q);
  szsec::core::codec::PayloadView p;
  p.tree_or_cipher = BytesView(enc.tree);
  p.codewords = BytesView(enc.codewords);
  p.symbol_count = enc.symbol_count;
  p.unpredictable = BytesView(q.unpredictable);
  p.unpredictable_count = q.unpredictable_count;
  p.side_info = BytesView(q.side_info);
  return szsec::core::codec::assemble_payload(szsec::core::Scheme::kNone, p);
}

// Huffman decode of the hard chunk's 262,144 quantization codes, tree walk
// against the two-level tables: thousands of used bins, and codewords
// past the root window that take the second level.  Returns the speedup.
double bench_huffman_wide(std::vector<KernelResult>& out) {
  namespace huffman = szsec::huffman;
  const std::vector<uint32_t> symbols = chunk_quant(true).codes;
  const huffman::CodeTable table =
      huffman::build_code_table(huffman::count_symbols(symbols));
  const Bytes bits = huffman::encode(table, symbols);
  const size_t count = symbols.size();
  std::vector<size_t> with_length(huffman::kMaxCodeLength + 1, 0);
  {
    std::vector<uint8_t> length(table.symbols.back() + size_t{1}, 0);
    for (size_t i = 0; i < table.used_symbols(); ++i) {
      length[table.symbols[i]] = table.lengths[i];
    }
    for (const uint32_t s : symbols) ++with_length[length[s]];
  }
  size_t total_bits = 0, past_root = 0;
  unsigned longest = 0;
  for (unsigned l = 1; l <= huffman::kMaxCodeLength; ++l) {
    total_bits += l * with_length[l];
    if (l > huffman::kDecodeTableBits) past_root += with_length[l];
    if (with_length[l] != 0) longest = l;
  }
  std::printf(
      "huffman-decode-wide: %zu symbols, %zu used, mean %.1f bits, "
      "longest %u, %.1f%% past %u bits\n",
      count, table.used_symbols(),
      static_cast<double>(total_bits) / static_cast<double>(count), longest,
      100.0 * static_cast<double>(past_root) / static_cast<double>(count),
      huffman::kDecodeTableBits);
  SZSEC_REQUIRE(huffman::decode(table, BytesView(bits), count) == symbols,
                "wide table decode differs");

  const size_t payload = count * sizeof(uint32_t);
  const double tree = time_mbps(payload, [&] {
    SZSEC_REQUIRE(
        huffman::decode_tree_walk(table, BytesView(bits), count).size() ==
            count,
        "tree-walk decode truncated");
  });
  const double probe = time_mbps(payload, [&] {
    SZSEC_REQUIRE(
        huffman::decode(table, BytesView(bits), count).size() == count,
        "table decode truncated");
  });
  out.push_back({"huffman-decode-wide-tree", "scalar", tree});
  out.push_back({"huffman-decode-wide-table", "scalar", probe});
  return probe / tree;
}

// Huffman decode at kProbeDecodeMinSymbols, the shortest stream that takes
// the tables, where their build is most of a call: 32 narrow streams
// (sigma 2.5 around the central bin, 15-20 used bins) and 32 wide ones
// (sigma 40, about 160), each with its own table as each field or chunk
// has.  Tree walk against the tables; MB/s over both sets' symbols.
void bench_huffman_decode_setup(std::vector<KernelResult>& out) {
  namespace huffman = szsec::huffman;
  constexpr size_t kStreams = 32;
  constexpr size_t kCount = huffman::kProbeDecodeMinSymbols;
  // Enough streams per timed call for the CPU clock to resolve.
  constexpr size_t kReps = 16;
  struct Stream {
    huffman::CodeTable table;
    Bytes bits;
  };
  double tree_s = 0, table_s = 0;  // seconds per MB, summed over the sets
  for (const double sigma : {2.5, 40.0}) {
    std::mt19937_64 rng(0x5E7D);
    std::normal_distribution<double> gauss(0.0, sigma);
    std::vector<Stream> streams;
    for (size_t k = 0; k < kStreams; ++k) {
      std::vector<uint32_t> symbols(kCount);
      for (auto& s : symbols) {
        const auto d = static_cast<int64_t>(std::lround(gauss(rng)));
        s = static_cast<uint32_t>(32768 + std::clamp<int64_t>(d, -512, 512));
      }
      huffman::CodeTable table =
          huffman::build_code_table(huffman::count_symbols(symbols));
      Bytes bits = huffman::encode(table, symbols);
      streams.push_back({std::move(table), std::move(bits)});
    }
    const size_t bytes = kReps * kStreams * kCount * sizeof(uint32_t);
    const auto rate = [&](auto&& decode) {
      return time_mbps(bytes, [&] {
        for (size_t r = 0; r < kReps; ++r) {
          for (const Stream& s : streams) {
            SZSEC_REQUIRE(
                decode(s.table, BytesView(s.bits), kCount).size() == kCount,
                "decode truncated");
          }
        }
      });
    };
    const double tree = rate(huffman::decode_tree_walk);
    const double table = rate(huffman::decode);
    const auto us_per_call = [](double mbps) {
      return kCount * sizeof(uint32_t) / mbps;
    };
    std::printf("huffman-decode-setup: sigma %.1f, %zu symbols a call, "
                "tree %.1f us, table %.1f us\n",
                sigma, kCount, us_per_call(tree), us_per_call(table));
    tree_s += 1 / tree;
    table_s += 1 / table;
  }
  out.push_back({"huffman-decode-setup", "tree", 2 / tree_s});
  out.push_back({"huffman-decode-setup", "table", 2 / table_s});
}

// zlite inflate of both chunk payloads and CRC-32 of the hard one against
// their references; returns the speedups.  MB/s count decoded bytes.
std::pair<double, double> bench_decoders(std::vector<KernelResult>& out) {
  namespace ref = szsec::testing::reference;
  ReferenceTimes inflate, crc;
  for (const bool hard : {true, false}) {
    const std::string payload = hard ? "hard" : "easy";
    const Bytes plain = chunk_payload(hard);
    const Bytes packed = szsec::zlite::deflate(BytesView(plain));
    const BytesView in(packed);
    SZSEC_REQUIRE(szsec::zlite::inflate(in) == plain &&
                      ref::inflate(in) == plain,
                  "zlite inflate differs from the reference");
    std::printf("zlite-inflate-%s: %zu -> %zu bytes\n", payload.c_str(),
                packed.size(), plain.size());
    inflate.add(out, "zlite-inflate-" + payload, time_mbps(plain.size(), [&] {
                  SZSEC_REQUIRE(ref::inflate(in).size() == plain.size(),
                                "short");
                }),
                time_mbps(plain.size(), [&] {
                  SZSEC_REQUIRE(
                      szsec::zlite::inflate(in).size() == plain.size(),
                      "short");
                }));
    if (!hard) continue;
    const BytesView bytes(plain);
    SZSEC_REQUIRE(szsec::crc32(bytes) == ref::crc32(bytes),
                  "crc32 differs from the reference");
    // Each CRC seeds the next, and the volatile keeps every call.
    volatile uint32_t sink = 0;
    crc.add(out, "crc32",
            time_mbps(plain.size(), [&] { sink = ref::crc32(bytes, sink); }),
            time_mbps(plain.size(),
                      [&] { sink = szsec::crc32(bytes, sink); }));
  }
  return {inflate.speedup(), crc.speedup()};
}

// -------------------------------------------------------- Huffman set-up

// Stage-3 set-up for one chunk's codes, reference against library, in two
// halves: build plus table write (histogram, lengths, codewords, blob),
// and table parse plus the decoder's canonical tables (a decode of zero
// symbols builds them and returns).  Narrow: 4,096 quantization codes
// spread over about 400 of 65,536 bins.  Wide: the hard chunk's 262,144
// codes.  MB/s count the chunk's code bytes per set-up; returns the
// speedup on the summed time.
double bench_huffman_setup(std::vector<KernelResult>& out) {
  namespace ref = szsec::testing::reference;
  namespace huffman = szsec::huffman;
  std::vector<uint32_t> narrow(4096);
  std::mt19937_64 rng(0x5E7);
  std::normal_distribution<double> gauss(0.0, 100.0);
  for (auto& s : narrow) {
    s = static_cast<uint32_t>(32768 + std::lround(gauss(rng)));
  }
  ReferenceTimes setup;
  for (const bool wide : {false, true}) {
    const std::vector<uint32_t> symbols =
        wide ? chunk_quant(true).codes : narrow;
    const std::string name =
        std::string("huffman-setup-") + (wide ? "wide" : "narrow");
    // Enough set-ups per timed call for the CPU clock to resolve.
    const size_t reps = wide ? 4 : 100;
    const auto ref_write = [&] {
      const uint32_t max_code = *std::max_element(symbols.begin(),
                                                  symbols.end());
      std::vector<uint64_t> freq(size_t{max_code} + 1, 0);
      for (const uint32_t s : symbols) ++freq[s];
      return ref::huffman_serialize_table(ref::huffman_build_table(freq));
    };
    const auto lib_write = [&] {
      return huffman::serialize_table(
          huffman::build_code_table(huffman::count_symbols(symbols)));
    };
    const Bytes blob = lib_write();
    SZSEC_REQUIRE(blob == ref_write(),
                  "huffman table differs from the reference");
    const BytesView tree(blob);
    const huffman::CodeTable table =
        huffman::deserialize_table(tree, symbols.size());
    std::printf("%s: %zu symbols, %zu of %llu bins used, %zu-byte table\n",
                name.c_str(), symbols.size(), table.used_symbols(),
                static_cast<unsigned long long>(table.alphabet_size()),
                blob.size());

    const size_t bytes = reps * symbols.size() * sizeof(uint32_t);
    setup.add(out, name + "-write", time_mbps(bytes, [&] {
                for (size_t r = 0; r < reps; ++r) {
                  SZSEC_REQUIRE(!ref_write().empty(), "empty");
                }
              }),
              time_mbps(bytes, [&] {
                for (size_t r = 0; r < reps; ++r) {
                  SZSEC_REQUIRE(!lib_write().empty(), "empty");
                }
              }));
    setup.add(out, name + "-parse", time_mbps(bytes, [&] {
                for (size_t r = 0; r < reps; ++r) {
                  SZSEC_REQUIRE(
                      ref::huffman_decode(ref::huffman_deserialize_table(tree),
                                          {}, 0)
                          .empty(),
                      "decoded");
                }
              }),
              time_mbps(bytes, [&] {
                for (size_t r = 0; r < reps; ++r) {
                  SZSEC_REQUIRE(
                      huffman::decode(
                          huffman::deserialize_table(tree, symbols.size()),
                          {}, 0)
                          .empty(),
                      "decoded");
                }
              }));
  }
  return setup.speedup();
}

// ------------------------------------------------------ SZ stages 1+2

// Predict+quantize of both chunks, the reference's scan-order loop against
// the library's plane-order Lorenzo loop with inline rounding, which must
// give the same codes, unpredictable bytes and side info.  The plume picks
// Lorenzo for most of its blocks, the Nyx-like chunk for a minority (it
// prefers regression).  Returns the plume speedup.
double bench_lorenzo(std::vector<KernelResult>& out) {
  namespace ref = szsec::testing::reference;
  // Enough chunks per timed call for the CPU clock to resolve.
  constexpr size_t kReps = 8;
  double plume = 0;
  for (const bool hard : {false, true}) {
    const Chunk c = make_chunk(hard);
    const std::span<const float> field(c.field);
    const szsec::sz::QuantizedField got =
        szsec::sz::predict_quantize(field, c.dims, c.params);
    const szsec::sz::QuantizedField want =
        ref::predict_quantize(field, c.dims, c.params);
    SZSEC_REQUIRE(got.codes == want.codes &&
                      got.unpredictable == want.unpredictable &&
                      got.side_info == want.side_info,
                  "predict+quantize differs from the reference");
    const std::string name =
        std::string("sz-lorenzo-quantize-") + (hard ? "nyx" : "plume");
    // The two sides alternate, each run starting with the other, so drift
    // in the allocator's state and in the clock hits both alike.
    const auto timed = [&](auto&& predict_quantize) {
      CpuTimer t;
      for (size_t r = 0; r < kReps; ++r) {
        SZSEC_REQUIRE(predict_quantize(field, c.dims, c.params).codes.size() ==
                          c.field.size(),
                      "short");
      }
      return static_cast<double>(kReps * c.field.size() * sizeof(float)) /
             1e6 / t.elapsed_s();
    };
    const auto ref_side = [](auto&&... a) {
      return ref::predict_quantize(a...);
    };
    const auto lib_side = [](auto&&... a) {
      return szsec::sz::predict_quantize(a...);
    };
    timed(ref_side);  // warmup
    timed(lib_side);
    std::vector<double> ref_rates, lib_rates;
    for (int r = 0; r < 2 * runs(); ++r) {
      if (r % 2 == 0) {
        ref_rates.push_back(timed(ref_side));
        lib_rates.push_back(timed(lib_side));
      } else {
        lib_rates.push_back(timed(lib_side));
        ref_rates.push_back(timed(ref_side));
      }
    }
    const double reference = median(std::move(ref_rates));
    const double library = median(std::move(lib_rates));
    out.push_back({name, "reference", reference});
    out.push_back({name, "scalar", library});
    if (!hard) plume = library / reference;
  }
  return plume;
}

// ------------------------------------------------------------ SZ kernels

void bench_sz(uint32_t level_mask, const std::string& level,
              std::vector<KernelResult>& out) {
  cpu::override_features_for_testing(level_mask);
  constexpr size_t kN = size_t{1} << 20;
  constexpr double kEb = 1e-3;
  constexpr int64_t kRadius = 32768;
  std::vector<float> pred(kN), values(kN), recon(kN);
  std::vector<uint32_t> codes(kN);
  std::mt19937_64 rng(0x5EED5);
  std::uniform_real_distribution<double> noise(-20 * kEb, 20 * kEb);
  szsec::sz::kernels::predict_affine_row(0.25, 1e-4, 0.5, kN, pred.data());
  for (size_t i = 0; i < kN; ++i) {
    values[i] = static_cast<float>(pred[i] + noise(rng));
  }

  const size_t bytes = kN * sizeof(float);
  out.push_back({"sz-predict-row-f32", level, time_mbps(bytes, [&] {
                   szsec::sz::kernels::predict_affine_row(
                       0.25, 1e-4, 0.5, kN, pred.data());
                 })});
  out.push_back({"sz-quantize-row-f32", level, time_mbps(bytes, [&] {
                   szsec::sz::kernels::quantize_row(
                       values.data(), pred.data(), kN, kEb, kRadius,
                       codes.data(), recon.data());
                 })});
  out.push_back({"sz-dequantize-row-f32", level, time_mbps(bytes, [&] {
                   std::memcpy(recon.data(), pred.data(), bytes);
                   szsec::sz::kernels::dequantize_row(
                       codes.data(), recon.data(), kN, kEb, kRadius);
                 })});
}

double find_mbps(const std::vector<KernelResult>& rs, const std::string& k,
                 const std::string& level) {
  for (const KernelResult& r : rs) {
    if (r.kernel == k && r.level == level) return r.mbps;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_kernels.json";
  const uint32_t detected = cpu::detected_features();
  std::printf("bench_kernels: detected CPU features: %s\n\n",
              cpu::feature_string(detected).c_str());

  std::vector<KernelResult> results;

  // AES at every available level.
  bench_aes(0, "scalar", results);
  if (detected & cpu::kAesni) {
    bench_aes(cpu::kSse2 | cpu::kAesni, "aesni", results);
  }
  if (detected & cpu::kVaes) {
    bench_aes(detected, "vaes", results);
  }

  // Huffman (feature-independent: the probe table is plain C++).
  double huffman_ratio = 0;
  cpu::override_features_for_testing(detected);
  bench_huffman(results, huffman_ratio);
  const auto [encode_ratio, deflate_ratio] = bench_entropy_encoders(results);
  const double wide_ratio = bench_huffman_wide(results);
  bench_huffman_decode_setup(results);
  const auto [inflate_ratio, crc_ratio] = bench_decoders(results);
  const double setup_ratio = bench_huffman_setup(results);
  const double lorenzo_ratio = bench_lorenzo(results);

  // SZ row kernels at every available level.
  bench_sz(0, "scalar", results);
  if (detected & cpu::kSse2) bench_sz(cpu::kSse2, "sse2", results);
  if (detected & cpu::kAvx2) bench_sz(cpu::kSse2 | cpu::kAvx2, "avx2", results);

  // Restore full dispatch, then check for silent fallback.
  cpu::override_features_for_testing(detected);
  const uint8_t key[16] = {};
  const szsec::crypto::Aes probe_aes(BytesView(key, 16));
  const std::string aes_backend = probe_aes.backend_name();
  const std::string sz_backend = szsec::sz::kernels::active_backend();
  bool dispatch_ok = true;
  if ((detected & cpu::kVaes) != 0) {
    dispatch_ok = dispatch_ok && aes_backend == "vaes";
  } else if ((detected & cpu::kAesni) != 0) {
    dispatch_ok = dispatch_ok && aes_backend == "aes-ni";
  }
  if ((detected & cpu::kAvx2) != 0) {
    dispatch_ok = dispatch_ok && sz_backend == "avx2";
  }

  // Perf floors.
  std::vector<FloorResult> floors;
  {
    FloorResult f;
    f.name = "aesni-ctr-vs-scalar";
    f.floor = 4.0;
    if (detected & cpu::kAesni) {
      f.ratio = find_mbps(results, "aes128-ctr", "aesni") /
                find_mbps(results, "aes128-ctr", "scalar");
      f.pass = f.ratio >= f.floor;
    } else {
      f.skipped = true;
    }
    floors.push_back(f);
  }
  {
    FloorResult f;
    f.name = "huffman-table-vs-tree";
    f.floor = 2.0;
    f.ratio = huffman_ratio;
    f.pass = f.ratio >= f.floor;
    floors.push_back(f);
  }
  {
    FloorResult f;
    f.name = "huffman-wide-table-vs-tree";
    f.floor = 3.5;
    f.ratio = wide_ratio;
    f.pass = f.ratio >= f.floor;
    floors.push_back(f);
  }
  {
    FloorResult f;
    f.name = "huffman-encode-vs-reference";
    f.floor = 1.5;
    f.ratio = encode_ratio;
    f.pass = f.ratio >= f.floor;
    floors.push_back(f);
  }
  {
    FloorResult f;
    f.name = "huffman-setup-vs-reference";
    f.floor = 3.0;
    f.ratio = setup_ratio;
    f.pass = f.ratio >= f.floor;
    floors.push_back(f);
  }
  {
    FloorResult f;
    f.name = "zlite-deflate-vs-reference";
    f.floor = 1.2;
    f.ratio = deflate_ratio;
    f.pass = f.ratio >= f.floor;
    floors.push_back(f);
  }
  {
    FloorResult f;
    f.name = "zlite-inflate-vs-reference";
    f.floor = 1.5;
    f.ratio = inflate_ratio;
    f.pass = f.ratio >= f.floor;
    floors.push_back(f);
  }
  {
    FloorResult f;
    f.name = "sz-lorenzo-plume-vs-reference";
    f.floor = 1.3;
    f.ratio = lorenzo_ratio;
    f.pass = f.ratio >= f.floor;
    floors.push_back(f);
  }
  {
    FloorResult f;
    f.name = "crc32-vs-reference";
    f.floor = 2.0;
    f.ratio = crc_ratio;
    f.pass = f.ratio >= f.floor;
    floors.push_back(f);
  }

  // Human-readable table.
  std::printf("%-28s %-10s %12s\n", "kernel", "level", "MB/s");
  for (const KernelResult& r : results) {
    std::printf("%-28s %-10s %12.1f\n", r.kernel.c_str(), r.level.c_str(),
                r.mbps);
  }
  std::printf("\ndispatch: aes=%s sz=%s (%s)\n", aes_backend.c_str(),
              sz_backend.c_str(), dispatch_ok ? "ok" : "SILENT FALLBACK");
  bool all_pass = dispatch_ok;
  for (const FloorResult& f : floors) {
    if (f.skipped) {
      std::printf("floor %-28s skipped (feature not detected)\n",
                  f.name.c_str());
      continue;
    }
    std::printf("floor %-28s ratio %6.2fx (floor %.1fx) %s\n", f.name.c_str(),
                f.ratio, f.floor, f.pass ? "pass" : "FAIL");
    all_pass = all_pass && f.pass;
  }

  // JSON.
  std::FILE* json = std::fopen(out_path.c_str(), "w");
  SZSEC_REQUIRE(json != nullptr, "cannot open output json");
  std::fprintf(json, "{\n  \"detected\": \"%s\",\n  \"kernels\": [\n",
               cpu::feature_string(detected).c_str());
  for (size_t i = 0; i < results.size(); ++i) {
    std::fprintf(json,
                 "    {\"kernel\": \"%s\", \"level\": \"%s\", "
                 "\"mbps\": %.1f}%s\n",
                 results[i].kernel.c_str(), results[i].level.c_str(),
                 results[i].mbps, i + 1 < results.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n  \"floors\": [\n");
  for (size_t i = 0; i < floors.size(); ++i) {
    const FloorResult& f = floors[i];
    std::fprintf(json,
                 "    {\"name\": \"%s\", \"ratio\": %.3f, \"floor\": %.1f, "
                 "\"pass\": %s, \"skipped\": %s}%s\n",
                 f.name.c_str(), f.ratio, f.floor,
                 f.pass ? "true" : "false", f.skipped ? "true" : "false",
                 i + 1 < floors.size() ? "," : "");
  }
  std::fprintf(json,
               "  ],\n  \"dispatch\": {\"aes_backend\": \"%s\", "
               "\"sz_backend\": \"%s\", \"pass\": %s}\n}\n",
               aes_backend.c_str(), sz_backend.c_str(),
               dispatch_ok ? "true" : "false");
  std::fclose(json);
  std::printf("\nwrote %s\n", out_path.c_str());

  if (!all_pass) {
    std::fprintf(stderr, "bench_kernels: PERF FLOOR BREACH\n");
    return 1;
  }
  return 0;
}
