#include "huffman/huffman.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <queue>

#include "common/error.h"

namespace szsec::huffman {

size_t CodeTable::used_symbols() const {
  size_t n = 0;
  for (uint8_t l : lengths) n += (l != 0);
  return n;
}

namespace {

// Computes unrestricted Huffman code lengths for the nonzero frequencies
// via the classic two-queue/heap merge.  Returns max length encountered.
unsigned huffman_lengths(std::span<const uint64_t> freq,
                         std::vector<uint8_t>& lengths) {
  struct Node {
    uint64_t weight;
    uint32_t id;  // tie-break for determinism
    int32_t left = -1, right = -1;
    uint32_t symbol = 0;  // valid for leaves
    bool leaf = false;
  };
  std::vector<Node> nodes;
  nodes.reserve(freq.size() * 2);
  for (size_t s = 0; s < freq.size(); ++s) {
    if (freq[s] > 0) {
      nodes.push_back({freq[s], static_cast<uint32_t>(nodes.size()), -1, -1,
                       static_cast<uint32_t>(s), true});
    }
  }
  lengths.assign(freq.size(), 0);
  if (nodes.empty()) return 0;
  if (nodes.size() == 1) {
    // A degenerate alphabet still needs one bit per symbol so the decoder
    // can count symbols.
    lengths[nodes[0].symbol] = 1;
    return 1;
  }

  auto cmp = [&nodes](int32_t a, int32_t b) {
    if (nodes[a].weight != nodes[b].weight) {
      return nodes[a].weight > nodes[b].weight;
    }
    return nodes[a].id > nodes[b].id;
  };
  std::priority_queue<int32_t, std::vector<int32_t>, decltype(cmp)> heap(cmp);
  for (size_t i = 0; i < nodes.size(); ++i) {
    heap.push(static_cast<int32_t>(i));
  }
  while (heap.size() > 1) {
    const int32_t a = heap.top();
    heap.pop();
    const int32_t b = heap.top();
    heap.pop();
    Node parent;
    parent.weight = nodes[a].weight + nodes[b].weight;
    parent.id = static_cast<uint32_t>(nodes.size());
    parent.left = a;
    parent.right = b;
    nodes.push_back(parent);
    heap.push(static_cast<int32_t>(nodes.size() - 1));
  }
  const int32_t root = heap.top();

  // Iterative depth assignment.
  unsigned max_len = 0;
  std::vector<std::pair<int32_t, unsigned>> stack{{root, 0}};
  while (!stack.empty()) {
    auto [idx, depth] = stack.back();
    stack.pop_back();
    const Node& n = nodes[idx];
    if (n.leaf) {
      SZSEC_REQUIRE(depth <= 255, "code length overflow");
      lengths[n.symbol] = static_cast<uint8_t>(depth);
      max_len = std::max(max_len, depth);
    } else {
      stack.push_back({n.left, depth + 1});
      stack.push_back({n.right, depth + 1});
    }
  }
  return max_len;
}

}  // namespace

CodeTable build_code_table(std::span<const uint64_t> frequencies) {
  std::vector<uint8_t> lengths;
  std::vector<uint64_t> scaled(frequencies.begin(), frequencies.end());
  // Rescale until the tree respects kMaxCodeLength.  Halving (with a floor
  // of 1 to keep symbols alive) provably terminates: eventually all
  // nonzero frequencies are 1 and the tree is balanced.
  while (huffman_lengths(scaled, lengths) > kMaxCodeLength) {
    for (auto& f : scaled) {
      if (f > 0) f = (f + 1) / 2;
    }
  }
  return CodeTable::from_lengths(std::move(lengths));
}

CodeTable CodeTable::from_lengths(std::vector<uint8_t> lengths) {
  CodeTable t;
  t.lengths = std::move(lengths);
  t.codes.assign(t.lengths.size(), 0);

  // Kraft check + canonical assignment in (length, symbol) order.
  std::vector<uint32_t> count(kMaxCodeLength + 1, 0);
  for (uint8_t l : t.lengths) {
    SZSEC_CHECK_FORMAT(l <= kMaxCodeLength, "code length exceeds limit");
    if (l > 0) ++count[l];
  }
  uint64_t kraft = 0;
  for (unsigned l = 1; l <= kMaxCodeLength; ++l) {
    kraft += static_cast<uint64_t>(count[l]) << (kMaxCodeLength - l);
  }
  const uint64_t kraft_limit = uint64_t{1} << kMaxCodeLength;
  SZSEC_CHECK_FORMAT(kraft <= kraft_limit, "Kraft inequality violated");

  std::vector<uint32_t> next_code(kMaxCodeLength + 2, 0);
  uint32_t code = 0;
  for (unsigned l = 1; l <= kMaxCodeLength; ++l) {
    code = (code + count[l - 1]) << 1;
    next_code[l] = code;
  }
  for (size_t s = 0; s < t.lengths.size(); ++s) {
    const uint8_t l = t.lengths[s];
    if (l > 0) t.codes[s] = next_code[l]++;
  }
  return t;
}

Bytes serialize_table(const CodeTable& table) {
  // Run-length encode the length array: scientific quantization arrays have
  // long zero runs (most bins unused), so RLE keeps the tree blob small.
  ByteWriter w;
  w.put_varint(table.lengths.size());
  size_t i = 0;
  while (i < table.lengths.size()) {
    const uint8_t l = table.lengths[i];
    size_t run = 1;
    while (i + run < table.lengths.size() && table.lengths[i + run] == l) {
      ++run;
    }
    w.put_u8(l);
    w.put_varint(run);
    i += run;
  }
  return w.take();
}

CodeTable deserialize_table(BytesView blob) {
  ByteReader r(blob);
  const uint64_t alphabet = r.get_varint();
  SZSEC_CHECK_FORMAT(alphabet <= (uint64_t{1} << 28),
                     "implausible alphabet size");
  std::vector<uint8_t> lengths;
  lengths.reserve(static_cast<size_t>(alphabet));
  while (lengths.size() < alphabet) {
    const uint8_t l = r.get_u8();
    const uint64_t run = r.get_varint();
    SZSEC_CHECK_FORMAT(run > 0 && lengths.size() + run <= alphabet,
                       "bad run length in code table");
    lengths.insert(lengths.end(), static_cast<size_t>(run), l);
  }
  SZSEC_CHECK_FORMAT(r.done(), "trailing bytes after code table");
  return CodeTable::from_lengths(std::move(lengths));
}

Bytes encode(const CodeTable& table, std::span<const uint32_t> symbols) {
  BitWriter w;
  for (uint32_t s : symbols) {
    SZSEC_REQUIRE(s < table.lengths.size() && table.lengths[s] > 0,
                  "symbol has no code");
    w.put_bits(table.codes[s], table.lengths[s]);
  }
  return w.finish();
}

size_t encoded_bits(const CodeTable& table,
                    std::span<const uint32_t> symbols) {
  size_t bits = 0;
  for (uint32_t s : symbols) {
    SZSEC_REQUIRE(s < table.lengths.size() && table.lengths[s] > 0,
                  "symbol has no code");
    bits += table.lengths[s];
  }
  return bits;
}

namespace {

// Canonical-decode context: the first-code boundary per length plus the
// symbols in (length, symbol) order, shared by both decode paths.
struct Canonical {
  std::vector<uint32_t> first_code;
  std::vector<uint32_t> first_index;
  std::vector<uint32_t> lcount;
  std::vector<uint32_t> sorted;
};

Canonical build_canonical(const CodeTable& table) {
  Canonical c;
  c.first_code.assign(kMaxCodeLength + 2, 0);
  c.first_index.assign(kMaxCodeLength + 2, 0);
  c.lcount.assign(kMaxCodeLength + 1, 0);
  for (uint8_t l : table.lengths) {
    if (l > 0) ++c.lcount[l];
  }
  uint32_t code = 0, index = 0;
  for (unsigned l = 1; l <= kMaxCodeLength; ++l) {
    code = (code + c.lcount[l - 1]) << 1;
    c.first_code[l] = code;
    c.first_index[l] = index;
    index += c.lcount[l];
  }
  // One counting-sort pass: symbols land in (length, symbol) order.
  c.sorted.resize(index);
  std::vector<uint32_t> next = c.first_index;
  for (size_t s = 0; s < table.lengths.size(); ++s) {
    const uint8_t l = table.lengths[s];
    if (l > 0) c.sorted[next[l]++] = static_cast<uint32_t>(s);
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
