#include "huffman/huffman.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <memory>
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
  unsigned min_length = kMaxCodeLength + 1;  // shortest used length
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
    if (c.lcount[l] != 0) c.min_length = std::min(c.min_length, l);
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

// Whether the code lengths keep the Kraft sum at most 1.  Every table the
// library builds or parses does; a hand-assembled CodeTable might not,
// and its codewords would index past the decode tables.
bool kraft_ok(const Canonical& c) {
  uint64_t kraft = 0;
  for (unsigned l = 1; l <= kMaxCodeLength; ++l) {
    kraft += uint64_t{c.lcount[l]} << (kMaxCodeLength - l);
  }
  return kraft <= uint64_t{1} << kMaxCodeLength;
}

// One entry of the root probe table: the symbols spelled out by the top
// kDecodeTableBits of the bitstream, as many whole codewords as fit (up
// to kMaxSymbolsPerProbe), in nbits bits.  nsym == 0 marks a first
// codeword longer than the window: nbits is then the width of the
// second-level table under this prefix and sym[0] its offset, or 0 where
// no codeword starts with these bits and the decoder walks.
struct ProbeEntry {
  uint8_t nsym;
  uint8_t nbits;
  uint32_t sym[kMaxSymbolsPerProbe];
};

// One entry of a second-level table: the symbol whose codeword, nbits
// long from its first bit, starts with the root prefix and then the
// entry's index.  nbits == 0 where the codeword runs past
// kDecodeTableBits + kMaxSubTableBits or no codeword covers the bits.
struct SubEntry {
  uint32_t sym;
  uint32_t nbits;
};

struct DecodeTables {
  static constexpr size_t kRootSize = size_t{1} << kDecodeTableBits;
  // Every root entry is filled, so it is allocated without zeroing.
  std::unique_ptr<ProbeEntry[]> root =
      std::make_unique_for_overwrite<ProbeEntry[]>(kRootSize);
  std::vector<SubEntry> sub;
};

// Fills the 2^r probe entries at `dt` whose indexes start with the bits
// of e's D symbols: each codeword of at most r bits, taken in canonical
// (that is, ascending) order, extends e over its own index range, and the
// entries past the last of them keep e.  So each sequence of codewords
// that fits the window is stored once, straight into its range.
template <unsigned D>
void fill_probe(const Canonical& c, const ProbeEntry& e, unsigned r,
                ProbeEntry* dt) {
  ProbeEntry* at = dt;
  if constexpr (D < kMaxSymbolsPerProbe) {
    for (unsigned l = c.min_length; l <= r; ++l) {
      const uint32_t* sym = c.sorted.data() + c.first_index[l];
      const size_t span = size_t{1} << (r - l);
      for (uint32_t j = 0; j < c.lcount[l]; ++j, at += span) {
        ProbeEntry next = e;
        next.nsym = D + 1;
        next.sym[D] = sym[j];
        next.nbits = static_cast<uint8_t>(e.nbits + l);
        if constexpr (D + 1 < kMaxSymbolsPerProbe) {
          if (r - l >= c.min_length) {
            fill_probe<D + 1>(c, next, r - l, at);
            continue;
          }
        }
        std::fill(at, at + span, next);
      }
    }
  }
  std::fill(at, dt + (size_t{1} << r), e);
}

// The root probe table, and a second-level table under each root prefix
// that codewords run past: 2^min(L - kDecodeTableBits, kMaxSubTableBits)
// entries, where L is the longest codeword under the prefix.  Canonical
// codewords run in ascending order from all zeros, so the long ones fill
// the prefixes from the first that is not a whole short codeword, each
// from its start, and the last codeword under a prefix is its longest.
// Needs a Kraft sum of at most 1.
DecodeTables build_decode_tables(const Canonical& c) {
  constexpr unsigned kRoot = kDecodeTableBits;
  DecodeTables t;
  fill_probe<0>(c, ProbeEntry{}, kRoot, t.root.get());

  // Size every second-level table in one pass over the long lengths.
  size_t first = DecodeTables::kRootSize, last = 0;
  for (unsigned l = kRoot + 1; l <= kMaxCodeLength; ++l) {
    if (c.lcount[l] == 0) continue;
    const unsigned shift = l - kRoot;
    const size_t lo = c.first_code[l] >> shift;
    const size_t hi = (c.first_code[l] + c.lcount[l] - 1) >> shift;
    const auto bits = static_cast<uint8_t>(std::min(shift, kMaxSubTableBits));
    for (size_t p = lo; p <= hi; ++p) t.root[p].nbits = bits;
    first = std::min(first, lo);
    last = hi;
  }
  size_t total = 0;
  for (size_t p = first; p <= last; ++p) {
    t.root[p].sym[0] = static_cast<uint32_t>(total);
    total += size_t{1} << t.root[p].nbits;
  }
  t.sub.resize(total);

  for (unsigned l = kRoot + 1; l <= kRoot + kMaxSubTableBits; ++l) {
    const unsigned shift = l - kRoot;
    const uint32_t* sym = c.sorted.data() + c.first_index[l];
    for (uint32_t j = 0; j < c.lcount[l]; ++j) {
      const uint32_t code = c.first_code[l] + j;
      const ProbeEntry& e = t.root[code >> shift];
      const unsigned spare = e.nbits - shift;
      SubEntry* at = t.sub.data() + e.sym[0] +
                     ((code & ((uint32_t{1} << shift) - 1)) << spare);
      std::fill(at, at + (size_t{1} << spare), SubEntry{sym[j], l});
    }
  }
  return t;
}

// MSB-first read position over the code stream: `acc` holds at least the
// next `have` stream bits in its top bits.  The wide refill may OR in
// more real stream bits than `have` accounts for; that is harmless, as
// the next refill ORs the same values over themselves.
struct MsbCursor {
  const uint8_t* next;  // first byte not yet loaded into acc
  const uint8_t* end;
  uint64_t acc = 0;
  unsigned have = 0;

  explicit MsbCursor(BytesView bits)
      : next(bits.data()), end(bits.data() + bits.size()) {}

  // At least 56 bits buffered afterwards while 8 input bytes remain;
  // bytewise over the last 7.
  void refill() {
    if (end - next >= 8) {
      uint64_t chunk;
      std::memcpy(&chunk, next, 8);
      if constexpr (std::endian::native == std::endian::little) {
        chunk = __builtin_bswap64(chunk);
      }
      acc |= chunk >> have;
      const unsigned consumed = (63u - have) >> 3;
      next += consumed;
      have += consumed * 8;
    } else {
      while (have <= 56 && next < end) {
        acc |= static_cast<uint64_t>(*next++) << (56 - have);
        have += 8;
      }
    }
  }

  void consume(unsigned nbits) {
    acc <<= nbits;
    have -= nbits;
  }
};

// One symbol by the exact bit walk over the cursor: the comparisons and
// errors of decode_tree_walk, for codewords the tables do not resolve
// and the stream tail.
uint32_t walk_one(const Canonical& c, MsbCursor& in) {
  uint32_t code = 0;
  unsigned len = 0;
  while (true) {
    SZSEC_CHECK_FORMAT(len < kMaxCodeLength, "dead branch in Huffman code");
    if (in.have == 0) {
      in.refill();
      SZSEC_CHECK_FORMAT(in.have > 0, "bitstream exhausted");
    }
    code = (code << 1) | static_cast<uint32_t>(in.acc >> 63);
    in.consume(1);
    ++len;
    if (c.lcount[len] != 0 && code - c.first_code[len] < c.lcount[len]) {
      return c.sorted[c.first_index[len] + (code - c.first_code[len])];
    }
  }
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
  // Short streams don't amortize the table build; take the exact walk
  // directly.
  if (count < kProbeDecodeMinSymbols) {
    return decode_tree_walk(table, bits, count);
  }

  const Canonical c = build_canonical(table);
  if (!kraft_ok(c)) return decode_tree_walk(table, bits, count);
  check_count(bits, count);
  const DecodeTables dt = build_decode_tables(c);

  MsbCursor in(bits);
  // One refill leaves at least kRefillBits buffered while 8 input bytes
  // remain, enough for kSteps table steps of at most kStepBits each.
  constexpr unsigned kSteps = 3;
  constexpr unsigned kStepBits = kDecodeTableBits + kMaxSubTableBits;
  constexpr unsigned kRefillBits = 56;
  static_assert(kSteps * kStepBits <= kRefillBits);

  // Preallocated output with raw-pointer stores: a root step writes all
  // kMaxSymbolsPerProbe slots unconditionally (the loop guard reserves
  // room for kSteps of them) and advances by the real count, which keeps
  // the hot loop free of per-symbol bounds checks.
  std::vector<uint32_t> out(count);
  uint32_t* op = out.data();
  uint32_t* const end = op + count;
  const ProbeEntry* const root = dt.root.get();
  const SubEntry* const sub = dt.sub.data();
  while (static_cast<size_t>(end - op) >= kSteps * kMaxSymbolsPerProbe) {
    in.refill();
    if (in.have < kRefillBits) break;  // tail: finish with the exact walk
    for (unsigned step = 0; step < kSteps; ++step) {
      const ProbeEntry& e = root[in.acc >> (64 - kDecodeTableBits)];
      if (e.nsym != 0) {
        static_assert(kMaxSymbolsPerProbe == 3, "unrolled stores below");
        op[0] = e.sym[0];
        op[1] = e.sym[1];
        op[2] = e.sym[2];
        op += e.nsym;
        in.consume(e.nbits);
        continue;
      }
      if (e.nbits != 0) {
        const SubEntry& s =
            sub[e.sym[0] + ((in.acc << kDecodeTableBits) >> (64 - e.nbits))];
        if (s.nbits != 0) {
          *op++ = s.sym;
          in.consume(s.nbits);
          continue;
        }
      }
      // A codeword past kStepBits, or bits no codeword covers: the exact
      // walk from the codeword's first bit, then a fresh refill.
      *op++ = walk_one(c, in);
      break;
    }
  }
  while (op != end) *op++ = walk_one(c, in);
  return out;
}

}  // namespace szsec::huffman
