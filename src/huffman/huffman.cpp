#include "huffman/huffman.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <numeric>

#include "common/error.h"

namespace szsec::huffman {

namespace {

// Stable LSD radix sort of `items` by key(item), 8 bits per pass, with no
// pass above the largest key's top byte.
template <typename Key>
void radix_sort(std::vector<uint32_t>& items, Key key) {
  uint64_t max_key = 0;
  for (const uint32_t i : items) max_key = std::max<uint64_t>(max_key, key(i));
  std::vector<uint32_t> sorted(items.size());
  for (unsigned shift = 0; shift < 64 && (max_key >> shift) != 0;
       shift += 8) {
    std::array<size_t, 257> next{};
    for (const uint32_t i : items) ++next[((key(i) >> shift) & 0xFF) + 1];
    for (size_t d = 1; d < next.size(); ++d) next[d] += next[d - 1];
    for (const uint32_t i : items) sorted[next[(key(i) >> shift) & 0xFF]++] = i;
    items.swap(sorted);
  }
}

// Code lengths of an unrestricted Huffman tree over n >= 2 leaves with
// nonzero weights `w` (leaf i is used symbol i), left in depth[0 .. n);
// returns the longest.
//
// The tree is the one a min-heap ordered by (weight, id) merges, where
// leaf i has id i and the j-th merged node id n + j: leaves sorted by
// (weight, id) and merged nodes in creation order are each already in
// that order (merged weights never decrease, and merged ids exceed every
// leaf id), so the smaller of the two queue fronts is the heap's next pop.
unsigned huffman_depths(std::span<const uint64_t> w,
                        std::vector<uint32_t>& depth) {
  const size_t n = w.size();
  // Sorting by weight from id order keeps ties in id order.
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  radix_sort(order, [&w](uint32_t i) { return w[i]; });
  // depth[k] first holds the parent of node k: leaves are 0 .. n - 1 and
  // merged nodes n .. 2n - 2, and a parent always follows its children.
  depth.assign(2 * n - 1, 0);
  std::vector<uint64_t> merged(n - 1);
  size_t next_leaf = 0, next_merged = 0, made = 0;
  const auto pop = [&](uint64_t& weight) -> uint32_t {
    if (next_leaf < n &&
        (next_merged == made || w[order[next_leaf]] <= merged[next_merged])) {
      const uint32_t leaf = order[next_leaf++];
      weight = w[leaf];
      return leaf;
    }
    weight = merged[next_merged];
    return static_cast<uint32_t>(n + next_merged++);
  };
  for (; made + 1 < n; ++made) {
    uint64_t wa = 0, wb = 0;
    const uint32_t a = pop(wa);
    const uint32_t b = pop(wb);
    merged[made] = wa + wb;
    depth[a] = depth[b] = static_cast<uint32_t>(n + made);
  }
  // Parent links become depths from the root (the last node) down.
  depth[2 * n - 2] = 0;
  for (size_t k = 2 * n - 2; k-- > 0;) depth[k] = depth[depth[k]] + 1;
  return *std::max_element(depth.begin(), depth.begin() + n);
}

// Checks the lengths (each at most kMaxCodeLength, Kraft sum at most 1)
// and assigns the canonical codewords in (length, symbol) order.
void assign_codes(CodeTable& t) {
  std::array<uint32_t, kMaxCodeLength + 1> count{};
  for (const uint8_t l : t.lengths) {
    SZSEC_CHECK_FORMAT(l <= kMaxCodeLength, "code length exceeds limit");
    ++count[l];
  }
  uint64_t kraft = 0;
  for (unsigned l = 1; l <= kMaxCodeLength; ++l) {
    kraft += static_cast<uint64_t>(count[l]) << (kMaxCodeLength - l);
  }
  const uint64_t kraft_limit = uint64_t{1} << kMaxCodeLength;
  SZSEC_CHECK_FORMAT(kraft <= kraft_limit, "Kraft inequality violated");

  std::array<uint32_t, kMaxCodeLength + 1> next_code{};
  uint32_t code = 0;
  for (unsigned l = 1; l <= kMaxCodeLength; ++l) {
    code = (code + count[l - 1]) << 1;
    next_code[l] = code;
  }
  t.codes.resize(t.lengths.size());
  for (size_t i = 0; i < t.lengths.size(); ++i) {
    t.codes[i] = next_code[t.lengths[i]]++;
  }
}

}  // namespace

Histogram count_symbols(std::span<const uint32_t> stream) {
  Histogram h;
  if (stream.empty()) return h;
  uint32_t max_symbol = 0;
  for (const uint32_t s : stream) max_symbol = std::max(max_symbol, s);
  h.alphabet = uint64_t{max_symbol} + 1;
  // Symbols are listed as first seen and sorted afterwards, so the dense
  // counters are never scanned.
  std::vector<uint64_t> count(static_cast<size_t>(h.alphabet), 0);
  for (const uint32_t s : stream) {
    if (count[s]++ == 0) h.symbols.push_back(s);
  }
  radix_sort(h.symbols, [](uint32_t s) { return s; });
  h.counts.resize(h.symbols.size());
  for (size_t i = 0; i < h.symbols.size(); ++i) {
    h.counts[i] = count[h.symbols[i]];
  }
  return h;
}

CodeTable build_code_table(const Histogram& histogram) {
  CodeTable t;
  t.alphabet = histogram.alphabet;
  t.symbols = histogram.symbols;
  // A lone symbol still gets a 1-bit code so the decoder can count
  // symbols.
  t.lengths.assign(t.symbols.size(), 1);
  if (t.symbols.size() >= 2) {
    std::vector<uint64_t> w = histogram.counts;
    std::vector<uint32_t> depth;
    // Rescale until the tree respects kMaxCodeLength.  Halving (with a
    // floor of 1 to keep symbols alive) provably terminates: eventually
    // all frequencies are 1 and the tree is balanced.
    while (huffman_depths(w, depth) > kMaxCodeLength) {
      for (auto& f : w) f = (f + 1) / 2;
    }
    for (size_t i = 0; i < t.lengths.size(); ++i) {
      t.lengths[i] = static_cast<uint8_t>(depth[i]);
    }
  }
  assign_codes(t);
  return t;
}

CodeTable build_code_table(std::span<const uint64_t> frequencies) {
  Histogram h;
  h.alphabet = frequencies.size();
  for (size_t s = 0; s < frequencies.size(); ++s) {
    if (frequencies[s] == 0) continue;
    h.symbols.push_back(static_cast<uint32_t>(s));
    h.counts.push_back(frequencies[s]);
  }
  return build_code_table(h);
}

CodeTable CodeTable::from_lengths(const std::vector<uint8_t>& lengths) {
  CodeTable t;
  t.alphabet = lengths.size();
  for (size_t s = 0; s < lengths.size(); ++s) {
    if (lengths[s] == 0) continue;
    t.symbols.push_back(static_cast<uint32_t>(s));
    t.lengths.push_back(lengths[s]);
  }
  assign_codes(t);
  return t;
}

Bytes serialize_table(const CodeTable& table) {
  // Run-length encode the lengths over the whole alphabet: scientific
  // quantization arrays leave most bins unused, so each gap between used
  // symbols is one zero run and the blob stays small.
  ByteWriter w;
  w.put_varint(table.alphabet);
  const std::vector<uint32_t>& sym = table.symbols;
  uint64_t pos = 0;
  for (size_t i = 0; i < sym.size();) {
    if (sym[i] > pos) {
      w.put_u8(0);
      w.put_varint(sym[i] - pos);
    }
    // One run: consecutive symbols with one length.
    size_t j = i + 1;
    while (j < sym.size() && sym[j] - sym[j - 1] == 1 &&
           table.lengths[j] == table.lengths[i]) {
      ++j;
    }
    w.put_u8(table.lengths[i]);
    w.put_varint(j - i);
    pos = uint64_t{sym[j - 1]} + 1;
    i = j;
  }
  if (pos < table.alphabet) {
    w.put_u8(0);
    w.put_varint(table.alphabet - pos);
  }
  return w.take();
}

CodeTable deserialize_table(BytesView blob, uint64_t symbol_count) {
  ByteReader r(blob);
  CodeTable t;
  t.alphabet = r.get_varint();
  SZSEC_CHECK_FORMAT(t.alphabet <= kMaxAlphabet, "implausible alphabet size");
  for (uint64_t pos = 0; pos < t.alphabet;) {
    const uint8_t l = r.get_u8();
    const uint64_t run = r.get_varint();
    SZSEC_CHECK_FORMAT(run > 0 && run <= t.alphabet - pos,
                       "bad run length in code table");
    if (l != 0) {
      // Checked before the run is stored, so a forged table costs no more
      // memory than the stream it claims to code.
      SZSEC_CHECK_FORMAT(run <= symbol_count - t.symbols.size(),
                         "code table uses more symbols than the stream holds");
      for (uint64_t k = 0; k < run; ++k) {
        t.symbols.push_back(static_cast<uint32_t>(pos + k));
      }
      t.lengths.insert(t.lengths.end(), static_cast<size_t>(run), l);
    }
    pos += run;
  }
  SZSEC_CHECK_FORMAT(r.done(), "trailing bytes after code table");
  assign_codes(t);
  return t;
}

namespace {

// Codeword and length of every symbol up to the largest used one, packed
// as code << 8 | length; 0 for a symbol without a code.
std::vector<uint64_t> codeword_lut(const CodeTable& table) {
  std::vector<uint64_t> lut(
      table.symbols.empty() ? 0 : size_t{table.symbols.back()} + 1, 0);
  for (size_t i = 0; i < table.symbols.size(); ++i) {
    lut[table.symbols[i]] =
        (uint64_t{table.codes[i]} << 8) | table.lengths[i];
  }
  return lut;
}

}  // namespace

Bytes encode(const CodeTable& table, std::span<const uint32_t> symbols) {
  const std::vector<uint64_t> lut = codeword_lut(table);
  BitWriter w;
  for (uint32_t s : symbols) {
    SZSEC_REQUIRE(s < lut.size() && lut[s] != 0, "symbol has no code");
    w.put_bits(lut[s] >> 8, static_cast<unsigned>(lut[s] & 0xFF));
  }
  return w.finish();
}

size_t encoded_bits(const CodeTable& table,
                    std::span<const uint32_t> symbols) {
  const std::vector<uint64_t> lut = codeword_lut(table);
  size_t bits = 0;
  for (uint32_t s : symbols) {
    SZSEC_REQUIRE(s < lut.size() && lut[s] != 0, "symbol has no code");
    bits += lut[s] & 0xFF;
  }
  return bits;
}

namespace {

// Canonical-decode context: the first-code boundary per length plus the
// symbols in (length, symbol) order, shared by both decode paths.
struct Canonical {
  std::array<uint32_t, kMaxCodeLength + 1> first_code{};
  std::array<uint32_t, kMaxCodeLength + 1> first_index{};
  std::array<uint32_t, kMaxCodeLength + 1> lcount{};
  std::vector<uint32_t> sorted;
};

Canonical build_canonical(const CodeTable& table) {
  Canonical c;
  for (const uint8_t l : table.lengths) ++c.lcount[l];
  uint32_t code = 0, index = 0;
  for (unsigned l = 1; l <= kMaxCodeLength; ++l) {
    code = (code + c.lcount[l - 1]) << 1;
    c.first_code[l] = code;
    c.first_index[l] = index;
    index += c.lcount[l];
  }
  // One counting-sort pass over the used symbols: they are ascending, so
  // they land in (length, symbol) order.
  c.sorted.resize(index);
  std::array<uint32_t, kMaxCodeLength + 1> next = c.first_index;
  for (size_t i = 0; i < table.symbols.size(); ++i) {
    c.sorted[next[table.lengths[i]]++] = table.symbols[i];
  }
  return c;
}

// Every symbol consumes at least one bit, so a count beyond the
// bitstream's capacity is unsatisfiable; reject it before the reserve so
// a forged count can't drive a huge allocation.
void check_count(BytesView bits, size_t count) {
  SZSEC_CHECK_FORMAT(count <= static_cast<uint64_t>(bits.size()) * 8,
                     "symbol count exceeds bitstream capacity");
}

// One entry of the flat probe table: the symbols spelled out by the top
// kDecodeTableBits of the bitstream, as many as fit (up to
// kMaxSymbolsPerProbe).  nsym == 0 marks a first codeword longer than
// the window — the caller falls back to the exact bit walk.
struct ProbeEntry {
  uint8_t nsym;
  uint8_t nbits;  // total bits consumed by the nsym symbols
  uint32_t sym[kMaxSymbolsPerProbe];
};

std::vector<ProbeEntry> build_probe_table(const Canonical& c) {
  std::vector<ProbeEntry> dt(size_t{1} << kDecodeTableBits);
  for (uint32_t idx = 0; idx < dt.size(); ++idx) {
    ProbeEntry e{};
    unsigned used = 0;
    while (e.nsym < kMaxSymbolsPerProbe) {
      // Walk the canonical code over window bits [used, kDecodeTableBits).
      uint32_t code = 0;
      unsigned len = 0;
      bool matched = false;
      while (used + len < kDecodeTableBits) {
        const unsigned bit = (idx >> (kDecodeTableBits - 1 - (used + len))) & 1u;
        code = (code << 1) | bit;
        ++len;
        if (c.lcount[len] != 0 && code - c.first_code[len] < c.lcount[len]) {
          e.sym[e.nsym++] = c.sorted[c.first_index[len] + (code - c.first_code[len])];
          used += len;
          matched = true;
          break;
        }
      }
      if (!matched) break;  // next codeword spills past the window
    }
    e.nbits = static_cast<uint8_t>(used);
    dt[idx] = e;
  }
  return dt;
}

}  // namespace

std::vector<uint32_t> decode_tree_walk(const CodeTable& table, BytesView bits,
                                       size_t count) {
  // Canonical decoding: track the running code value and compare against
  // the first-code boundary for each length.
  const Canonical c = build_canonical(table);
  check_count(bits, count);
  BitReader r(bits);
  std::vector<uint32_t> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    uint32_t code = 0;
    unsigned len = 0;
    while (true) {
      SZSEC_CHECK_FORMAT(len < kMaxCodeLength, "dead branch in Huffman code");
      code = (code << 1) | r.get_bit();
      ++len;
      if (c.lcount[len] != 0 && code - c.first_code[len] < c.lcount[len]) {
        out.push_back(c.sorted[c.first_index[len] + (code - c.first_code[len])]);
        break;
      }
      // No codeword of this length matches; keep extending.  Invalid
      // streams fall off the length limit and throw above.
    }
  }
  return out;
}

std::vector<uint32_t> decode(const CodeTable& table, BytesView bits,
                             size_t count) {
  // Short streams don't amortize the 2^kDecodeTableBits probe-table
  // build; take the exact walk directly.
  if (count < kProbeDecodeMinSymbols) {
    return decode_tree_walk(table, bits, count);
  }

  const Canonical c = build_canonical(table);
  check_count(bits, count);
  const std::vector<ProbeEntry> dt = build_probe_table(c);

  // 64-bit MSB-aligned accumulator over the byte buffer: `acc` holds at
  // least the next `have` stream bits in its top bits.  The wide refill
  // may OR in more real stream bits than `have` accounts for; that is
  // harmless — the next refill ORs the same values over themselves.
  const uint8_t* data = bits.data();
  const size_t nbytes = bits.size();
  uint64_t acc = 0;
  unsigned have = 0;
  size_t next_byte = 0;
  const auto refill = [&] {
    if (next_byte + 8 <= nbytes) {
      uint64_t chunk;
      std::memcpy(&chunk, data + next_byte, 8);
      if constexpr (std::endian::native == std::endian::little) {
        chunk = __builtin_bswap64(chunk);
      }
      acc |= chunk >> have;
      const unsigned consumed = (63u - have) >> 3;
      next_byte += consumed;
      have += consumed * 8;
    } else {
      while (have <= 56 && next_byte < nbytes) {
        acc |= static_cast<uint64_t>(data[next_byte++]) << (56 - have);
        have += 8;
      }
    }
  };
  // Exact bit walk over the accumulator — same comparisons and same
  // error behavior as decode_tree_walk, used for over-long codewords
  // and the stream tail.
  const auto decode_one = [&]() -> uint32_t {
    uint32_t code = 0;
    unsigned len = 0;
    while (true) {
      SZSEC_CHECK_FORMAT(len < kMaxCodeLength, "dead branch in Huffman code");
      if (have == 0) {
        refill();
        SZSEC_CHECK_FORMAT(have > 0, "bitstream exhausted");
      }
      code = (code << 1) | static_cast<uint32_t>(acc >> 63);
      acc <<= 1;
      --have;
      ++len;
      if (c.lcount[len] != 0 && code - c.first_code[len] < c.lcount[len]) {
        return c.sorted[c.first_index[len] + (code - c.first_code[len])];
      }
    }
  };

  // Preallocated output with raw-pointer stores: the probe loop writes all
  // kMaxSymbolsPerProbe slots unconditionally (the `i + kMaxSymbolsPerProbe
  // <= count` guard reserves room) and advances by the real count, which
  // keeps the hot loop free of per-symbol bounds checks.
  std::vector<uint32_t> out(count);
  uint32_t* op = out.data();
  size_t i = 0;
  while (i + kMaxSymbolsPerProbe <= count) {
    refill();
    if (have < kDecodeTableBits) break;  // tail: finish with the exact walk
    const ProbeEntry& e = dt[acc >> (64 - kDecodeTableBits)];
    if (e.nsym == 0) {
      // First codeword longer than the window: exact walk for one symbol.
      *op++ = decode_one();
      ++i;
      continue;
    }
    static_assert(kMaxSymbolsPerProbe == 3, "unrolled stores below");
    op[0] = e.sym[0];
    op[1] = e.sym[1];
    op[2] = e.sym[2];
    op += e.nsym;
    acc <<= e.nbits;
    have -= e.nbits;
    i += e.nsym;
  }
  for (; i < count; ++i) *op++ = decode_one();
  return out;
}

}  // namespace szsec::huffman
