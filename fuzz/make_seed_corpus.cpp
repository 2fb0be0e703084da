// Regenerates the checked-in fuzz seed corpus under tests/corpus/.
//
//   make_seed_corpus <corpus-root>
//
// Entries are deterministic (fixed DRBG seeds, the shared replay key
// from src/testing/replay.h, no wall clock) so regeneration is a no-op
// diff unless a wire format actually changed.  Each family directory
// matches one harness: decode/ huffman/ zlite/ chunked/ sansio/.  Seeds are
// deliberately tiny — the point is coverage of every scheme, cipher
// mode, dtype and container version at minimal replay cost, plus a few
// malformed variants so the strict-decode error paths are represented.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "archive/chunked.h"
#include "core/secure_compressor.h"
#include "crypto/drbg.h"
#include "huffman/huffman.h"
#include "testing/replay.h"
#include "zlite/zlite.h"

namespace fs = std::filesystem;
using namespace szsec;

namespace {

void write_entry(const fs::path& dir, const std::string& name,
                 BytesView bytes) {
  fs::create_directories(dir);
  std::ofstream out(dir / name, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

std::vector<float> ramp_field(size_t n) {
  std::vector<float> f(n);
  for (size_t i = 0; i < n; ++i) {
    f[i] = 0.25f * static_cast<float>(i) - 3.0f;
  }
  return f;
}

void emit_decode(const fs::path& root) {
  const fs::path dir = root / "decode";
  const Dims dims{6, 8};
  const std::vector<float> f = ramp_field(dims.count());
  sz::Params params;
  params.abs_error_bound = 1e-3;
  const Bytes key16 = testing::replay_key(16);
  const Bytes key32 = testing::replay_key(32);

  const core::Scheme schemes[] = {
      core::Scheme::kNone, core::Scheme::kCmprEncr, core::Scheme::kEncrQuant,
      core::Scheme::kEncrHuffman};
  for (const core::Scheme s : schemes) {
    crypto::CtrDrbg drbg(0xC0'0001 + static_cast<uint64_t>(s));
    const core::SecureCompressor c(
        params, s, s == core::Scheme::kNone ? BytesView{} : BytesView(key16),
        crypto::Mode::kCbc, &drbg);
    const auto r = c.compress(std::span<const float>(f), dims);
    write_entry(dir,
                "scheme" + std::to_string(static_cast<int>(s)) +
                    "_aes128_cbc_f32.bin",
                BytesView(r.container));
  }

  {  // AES-256-CTR, authenticated
    crypto::CtrDrbg drbg(0xC0'0010);
    core::CipherSpec spec;
    spec.kind = crypto::CipherKind::kAes256;
    spec.mode = crypto::Mode::kCtr;
    spec.authenticate = true;
    const core::SecureCompressor c(params, core::Scheme::kCmprEncr,
                                   BytesView(key32), spec, &drbg);
    const auto r = c.compress(std::span<const float>(f), dims);
    write_entry(dir, "cmprencr_aes256_ctr_auth_f32.bin",
                BytesView(r.container));
  }
  {  // float64
    crypto::CtrDrbg drbg(0xC0'0011);
    std::vector<double> d(f.begin(), f.end());
    const core::SecureCompressor c(params, core::Scheme::kEncrHuffman,
                                   BytesView(key16), crypto::Mode::kCbc,
                                   &drbg);
    const auto r = c.compress(std::span<const double>(d), dims);
    write_entry(dir, "encrhuffman_aes128_cbc_f64.bin", BytesView(r.container));

    // Malformed variants of the same container: truncated mid-payload
    // and a single header bit flip (strict decode must throw cleanly).
    Bytes trunc(r.container.begin(),
                r.container.begin() +
                    static_cast<std::ptrdiff_t>(r.container.size() / 2));
    write_entry(dir, "truncated_mid_payload.bin", BytesView(trunc));
    Bytes flipped = r.container;
    flipped[9] ^= 0x40;
    write_entry(dir, "header_bit_flip.bin", BytesView(flipped));
  }
}

void emit_huffman(const fs::path& root) {
  const fs::path dir = root / "huffman";
  std::vector<uint32_t> symbols;
  for (uint32_t i = 0; i < 96; ++i) symbols.push_back((i * i + i / 3) % 7);
  uint32_t max_code = 0;
  for (uint32_t s : symbols) max_code = std::max(max_code, s);
  std::vector<uint64_t> freq(max_code + 1, 0);
  for (uint32_t s : symbols) ++freq[s];
  const huffman::CodeTable table = huffman::build_code_table(freq);
  const Bytes tree = huffman::serialize_table(table);
  const Bytes bits = huffman::encode(table, symbols);

  const auto frame = [&](size_t count, BytesView t, BytesView b) {
    Bytes out;
    out.push_back(static_cast<uint8_t>(count & 0xFF));
    out.push_back(static_cast<uint8_t>(count >> 8));
    out.push_back(static_cast<uint8_t>(t.size() & 0xFF));
    out.push_back(static_cast<uint8_t>(t.size() >> 8));
    out.insert(out.end(), t.begin(), t.end());
    out.insert(out.end(), b.begin(), b.end());
    return out;
  };
  write_entry(dir, "valid_7symbol_stream.bin",
              BytesView(frame(symbols.size(), tree, bits)));
  // Symbol-count bomb: a count no bitstream of this size can satisfy —
  // regression seed for the count-vs-capacity check in huffman::decode.
  write_entry(dir, "regress_count_exceeds_bits.bin",
              BytesView(frame(0xFFFF, tree, BytesView(bits).subspan(0, 2))));
  write_entry(dir, "empty_tree.bin", BytesView(frame(4, {}, bits)));
  // Alphabet bomb: an 11-byte table declaring 2^28 symbols of length 28
  // (a complete code) for a 96-symbol stream — regression seed for the
  // used-symbol bound in huffman::deserialize_table.
  ByteWriter w;
  w.put_varint(huffman::kMaxAlphabet);
  w.put_u8(28);
  w.put_varint(huffman::kMaxAlphabet);
  const Bytes bomb = w.take();
  write_entry(dir, "regress_table_alphabet_bomb.bin",
              BytesView(frame(symbols.size(), BytesView(bomb), bits)));

  // Long codewords: a two-sided geometric spread over 49 of 65,536 bins
  // (codewords up to 26 bits), 1,000 symbols drawn evenly over them, so
  // the stream takes the decoder's root table, its second-level tables
  // and, past 18 bits, the walk.
  std::vector<uint64_t> wide(65536, 0);
  for (int d = -24; d <= 24; ++d) {
    wide[static_cast<size_t>(32768 + d)] = uint64_t{1} << (24 - std::abs(d));
  }
  const huffman::CodeTable wide_table = huffman::build_code_table(wide);
  crypto::CtrDrbg drbg(0x10C0DE);
  const Bytes picks = drbg.generate(1000);
  std::vector<uint32_t> wide_symbols;
  for (const uint8_t p : picks) {
    wide_symbols.push_back(wide_table.symbols[p % wide_table.used_symbols()]);
  }
  write_entry(dir, "wide_long_codewords.bin",
              BytesView(frame(wide_symbols.size(),
                              BytesView(huffman::serialize_table(wide_table)),
                              BytesView(huffman::encode(wide_table,
                                                        wide_symbols)))));

  // Hole in a second-level table: symbols 0-10 take codewords of 1-11
  // bits, leaving the all-ones root prefix, and symbols 11-14 take 14-bit
  // codewords that cover half of it.  600 symbols (and the zero padding
  // of their last byte, symbol 0 each), then one bits that run into the
  // uncovered half: a dead branch before the 700th symbol.
  ByteWriter hw;
  hw.put_varint(15);
  for (unsigned length = 1; length <= 11; ++length) {
    hw.put_u8(static_cast<uint8_t>(length));
    hw.put_varint(1);
  }
  hw.put_u8(14);
  hw.put_varint(4);
  const Bytes holed = hw.take();
  std::vector<uint32_t> holed_symbols;
  for (uint32_t i = 0; i < 600; ++i) holed_symbols.push_back(i * 7 % 15);
  Bytes holed_bits = huffman::encode(
      huffman::deserialize_table(BytesView(holed), 700), holed_symbols);
  holed_bits.insert(holed_bits.end(), 16, 0xFF);
  write_entry(dir, "forged_subtable_hole.bin",
              BytesView(frame(700, BytesView(holed), BytesView(holed_bits))));
}

void emit_zlite(const fs::path& root) {
  const fs::path dir = root / "zlite";
  const std::string text =
      "szsec seed corpus: lightweight crypto for lossy compression. ";
  Bytes plain(text.begin(), text.end());
  for (int i = 0; i < 3; ++i) plain.insert(plain.end(), plain.begin(), plain.end());
  const Bytes packed = zlite::deflate(BytesView(plain));
  write_entry(dir, "text_default_level.bin", BytesView(packed));
  const Bytes zeros(512, 0);
  write_entry(dir, "zeros_default_level.bin",
              BytesView(zlite::deflate(BytesView(zeros))));
  Bytes trunc(packed.begin(),
              packed.begin() + static_cast<std::ptrdiff_t>(packed.size() / 2));
  write_entry(dir, "truncated_stream.bin", BytesView(trunc));
}

void emit_chunked(const fs::path& root) {
  const fs::path dir = root / "chunked";
  const Dims dims{9, 7};
  const std::vector<float> f = ramp_field(dims.count());
  sz::Params params;
  params.abs_error_bound = 1e-3;
  const Bytes key16 = testing::replay_key(16);
  archive::ChunkedConfig cfg;
  cfg.threads = 1;
  cfg.chunks = 3;
  // The pre-footer entries are pinned to the footer-less layout so the
  // checked-in bytes stay stable across the seek-table introduction;
  // footered shapes get their own entries below.
  cfg.seek_table = false;

  crypto::CtrDrbg drbg(0xC3'0001);
  const auto r = archive::compress_chunked(std::span<const float>(f), dims,
                                           params, core::Scheme::kCmprEncr,
                                           BytesView(key16), {}, cfg, &drbg);
  write_entry(dir, "three_chunks_aes128_cbc_f32.bin", BytesView(r.archive));

  Bytes trunc(r.archive.begin(),
              r.archive.begin() +
                  static_cast<std::ptrdiff_t>(r.archive.size() * 2 / 3));
  write_entry(dir, "truncated_third_chunk.bin", BytesView(trunc));
  Bytes flipped = r.archive;
  flipped[flipped.size() / 2] ^= 0x10;
  write_entry(dir, "body_bit_flip.bin", BytesView(flipped));

  {  // float64, authenticated, single chunk
    crypto::CtrDrbg d64(0xC3'0002);
    std::vector<double> d(f.begin(), f.end());
    core::CipherSpec spec;
    spec.authenticate = true;
    archive::ChunkedConfig one = cfg;
    one.chunks = 1;
    const auto r64 = archive::compress_chunked(std::span<const double>(d),
                                               dims, params,
                                               core::Scheme::kEncrHuffman,
                                               BytesView(key16), spec, one,
                                               &d64);
    write_entry(dir, "one_chunk_auth_f64.bin", BytesView(r64.archive));
  }

  // Durability-campaign shapes: a torn write landing inside a frame
  // (crash mid-chunk — index intact, tail lost) and a cut inside the
  // index region itself (nothing but resync scanning can help).
  const archive::ChunkIndex index =
      archive::read_chunk_index(BytesView(r.archive));
  const archive::ChunkEntry& mid = index.entries[1];
  Bytes mid_torn(r.archive.begin(),
                 r.archive.begin() +
                     static_cast<std::ptrdiff_t>(mid.offset +
                                                 mid.frame_len / 2));
  write_entry(dir, "mid_frame_torn_write.bin", BytesView(mid_torn));
  Bytes index_cut(r.archive.begin(),
                  r.archive.begin() +
                      static_cast<std::ptrdiff_t>(index.body_start / 2));
  write_entry(dir, "index_region_truncation.bin", BytesView(index_cut));

  {  // Seek-table footer shapes: a valid footered archive, and the same
     // archive with one byte flipped inside the footer while the trailer
     // stays intact (the fail-closed forged-footer path; strict decode
     // still succeeds because frames are untouched).
    crypto::CtrDrbg d3(0xC3'0003);
    archive::ChunkedConfig footered = cfg;
    footered.seek_table = true;
    const auto rf = archive::compress_chunked(
        std::span<const float>(f), dims, params, core::Scheme::kEncrQuant,
        BytesView(key16), {}, footered, &d3);
    write_entry(dir, "seek_footer_three_chunks_f32.bin",
                BytesView(rf.archive));

    crypto::CtrDrbg d4(0xC3'0003);
    archive::ChunkedConfig bare = footered;
    bare.seek_table = false;
    const auto rn = archive::compress_chunked(
        std::span<const float>(f), dims, params, core::Scheme::kEncrQuant,
        BytesView(key16), {}, bare, &d4);
    Bytes forged = rf.archive;
    forged[rn.archive.size() + 6] ^= 0x20;  // inside the footer region
    write_entry(dir, "seek_footer_forged_byte.bin", BytesView(forged));
  }
}

/// Sans-io schedules (see replay_sansio for the byte layout): every
/// direction and container, 1-byte dribbles, zero-size feeds and pulls,
/// bulk steps, two threads, and mutated inputs in both directions.
void emit_sansio(const fs::path& root) {
  const fs::path dir = root / "sansio";
  struct Seed {
    const char* name;
    Bytes bytes;
  };
  const Seed seeds[] = {
      {"encode_v2_dribble.bin", {0x00, 1, 1}},
      {"encode_v3_zero_and_one.bin", {0x02, 0, 0, 1, 0, 0, 1, 7, 3}},
      {"encode_v3_two_threads_bulk.bin", {0x22, 0x8C, 0x8F, 1, 0x8A}},
      {"encode_v1_odd_steps.bin", {0x04, 13, 5, 0x89, 1}},
      {"encode_v3_truncated_field.bin", {0x12, 0x00, 0x10, 0x00, 64, 64}},
      {"decode_v2_dribble.bin", {0x01, 1, 1}},
      {"decode_v3_strict_mixed.bin", {0x03, 1, 1, 0, 0, 100, 2}},
      {"decode_v3_strict_two_threads.bin", {0x23, 0x8B, 0x8B, 3, 0}},
      {"decode_v3_salvage_dribble.bin", {0x0B, 1, 1}},
      {"decode_v3_salvage_bit_flip.bin",
       {0x1B, 0x40, 0x00, 0x04, 1, 1, 0x8C, 0x8C}},
      {"decode_v3_strict_truncated.bin", {0x13, 0x00, 0x00, 0x05, 9, 9}},
      {"decode_v3_strict_bit_flip.bin", {0x13, 0x01, 0x80, 0x02, 0x8F, 0}},
      {"decode_v1_dribble.bin", {0x05, 1, 1}},
  };
  for (const Seed& s : seeds) write_entry(dir, s.name, BytesView(s.bytes));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: make_seed_corpus <corpus-root>\n");
    return 2;
  }
  const fs::path root(argv[1]);
  emit_decode(root);
  emit_huffman(root);
  emit_zlite(root);
  emit_chunked(root);
  emit_sansio(root);
  std::printf("seed corpus written to %s\n", root.string().c_str());
  return 0;
}
