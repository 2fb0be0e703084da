#include "testing/reference_coders.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <queue>
#include <vector>

#include "sz/interpolation.h"
#include "sz/kernels.h"
#include "sz/predictor.h"
#include "sz/quantizer.h"
#include "sz/regression.h"
#include "sz/unpredictable.h"

namespace szsec::testing::reference {

namespace {

using huffman::kMaxCodeLength;

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

HuffmanTable huffman_build_table(std::span<const uint64_t> frequencies) {
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
  return HuffmanTable::from_lengths(std::move(lengths));
}

HuffmanTable HuffmanTable::from_lengths(std::vector<uint8_t> lengths) {
  HuffmanTable t;
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

Bytes huffman_serialize_table(const HuffmanTable& table) {
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

HuffmanTable huffman_deserialize_table(BytesView blob) {
  ByteReader r(blob);
  const uint64_t alphabet = r.get_varint();
  SZSEC_CHECK_FORMAT(alphabet <= (uint64_t{1} << 28),
                     "implausible alphabet size");
  std::vector<uint8_t> lengths;
  lengths.reserve(static_cast<size_t>(alphabet));
  while (lengths.size() < alphabet) {
    const uint8_t l = r.get_u8();
    const uint64_t run = r.get_varint();
    // Subtractive, so a run near 2^64 cannot wrap the sum back under the
    // alphabet.
    SZSEC_CHECK_FORMAT(run > 0 && run <= alphabet - lengths.size(),
                       "bad run length in code table");
    lengths.insert(lengths.end(), static_cast<size_t>(run), l);
  }
  SZSEC_CHECK_FORMAT(r.done(), "trailing bytes after code table");
  return HuffmanTable::from_lengths(std::move(lengths));
}

Bytes huffman_encode(const HuffmanTable& table,
                     std::span<const uint32_t> symbols) {
  BitWriter w;
  for (uint32_t s : symbols) {
    SZSEC_REQUIRE(s < table.lengths.size() && table.lengths[s] > 0,
                  "symbol has no code");
    w.put_bits(table.codes[s], table.lengths[s]);
  }
  return w.finish();
}

std::vector<uint32_t> huffman_decode(const HuffmanTable& table,
                                     BytesView bits, size_t count) {
  // First-code boundary per length, plus the symbols in (length, symbol)
  // order.
  std::vector<uint32_t> first_code(kMaxCodeLength + 2, 0);
  std::vector<uint32_t> first_index(kMaxCodeLength + 2, 0);
  std::vector<uint32_t> lcount(kMaxCodeLength + 1, 0);
  for (uint8_t l : table.lengths) {
    if (l > 0) ++lcount[l];
  }
  uint32_t code = 0, index = 0;
  for (unsigned l = 1; l <= kMaxCodeLength; ++l) {
    code = (code + lcount[l - 1]) << 1;
    first_code[l] = code;
    first_index[l] = index;
    index += lcount[l];
  }
  std::vector<uint32_t> sorted(index);
  std::vector<uint32_t> next = first_index;
  for (size_t s = 0; s < table.lengths.size(); ++s) {
    const uint8_t l = table.lengths[s];
    if (l > 0) sorted[next[l]++] = static_cast<uint32_t>(s);
  }
  // Every symbol takes at least one bit.
  SZSEC_CHECK_FORMAT(count <= static_cast<uint64_t>(bits.size()) * 8,
                     "symbol count exceeds bitstream capacity");
  BitReader r(bits);
  std::vector<uint32_t> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    code = 0;
    unsigned len = 0;
    while (true) {
      SZSEC_CHECK_FORMAT(len < kMaxCodeLength, "dead branch in Huffman code");
      code = (code << 1) | r.get_bit();
      ++len;
      if (lcount[len] != 0 && code - first_code[len] < lcount[len]) {
        out.push_back(sorted[first_index[len] + (code - first_code[len])]);
        break;
      }
    }
  }
  return out;
}

namespace {

using zlite::Level;

// ---------------------------------------------------------------------------
// RFC 1951 constants.
// ---------------------------------------------------------------------------

constexpr size_t kWindowSize = 32 * 1024;
constexpr size_t kMinMatch = 3;
constexpr size_t kMaxMatch = 258;
constexpr int kNumLitCodes = 286;   // 0..255 literals, 256 EOB, 257..285 len
constexpr int kNumDistCodes = 30;
constexpr int kNumClCodes = 19;
constexpr unsigned kMaxLitBits = 15;
constexpr unsigned kMaxClBits = 7;
constexpr int kEob = 256;

constexpr uint16_t kLenBase[29] = {3,   4,   5,   6,   7,   8,   9,   10,
                                   11,  13,  15,  17,  19,  23,  27,  31,
                                   35,  43,  51,  59,  67,  83,  99,  115,
                                   131, 163, 195, 227, 258};
constexpr uint8_t kLenExtra[29] = {0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2,
                                   2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5,
                                   0};
constexpr uint16_t kDistBase[30] = {
    1,    2,    3,    4,    5,    7,     9,     13,    17,   25,
    33,   49,   65,   97,   129,  193,   257,   385,   513,  769,
    1025, 1537, 2049, 3073, 4097, 6145,  8193,  12289, 16385, 24577};
constexpr uint8_t kDistExtra[30] = {0, 0, 0,  0,  1,  1,  2,  2,  3,  3,
                                    4, 4, 5,  5,  6,  6,  7,  7,  8,  8,
                                    9, 9, 10, 10, 11, 11, 12, 12, 13, 13};
constexpr uint8_t kClOrder[19] = {16, 17, 18, 0, 8,  7, 9,  6, 10, 5,
                                  11, 4,  12, 3, 13, 2, 14, 1, 15};

int length_code(size_t len) {
  // len in [3, 258]
  for (int c = 28; c >= 0; --c) {
    if (len >= kLenBase[c]) return c;
  }
  return 0;
}

int dist_code(size_t dist) {
  for (int c = 29; c >= 0; --c) {
    if (dist >= kDistBase[c]) return c;
  }
  return 0;
}

uint32_t bit_reverse(uint32_t code, unsigned len) {
  uint32_t r = 0;
  for (unsigned i = 0; i < len; ++i) {
    r = (r << 1) | (code & 1);
    code >>= 1;
  }
  return r;
}

// ---------------------------------------------------------------------------
// Length-limited canonical Huffman for the encoder.
// ---------------------------------------------------------------------------

// Computes Huffman code lengths for `freq`, capped to `limit` by frequency
// halving.  Symbols with zero frequency get length 0.
std::vector<uint8_t> limited_lengths(std::span<const uint64_t> freq,
                                     unsigned limit) {
  std::vector<uint64_t> f(freq.begin(), freq.end());
  std::vector<uint8_t> lengths(f.size(), 0);
  while (true) {
    struct Node {
      uint64_t w;
      uint32_t id;
      int32_t l = -1, r = -1;
      int32_t sym = -1;
    };
    std::vector<Node> nodes;
    for (size_t s = 0; s < f.size(); ++s) {
      if (f[s] > 0) {
        nodes.push_back({f[s], static_cast<uint32_t>(nodes.size()), -1, -1,
                         static_cast<int32_t>(s)});
      }
    }
    std::fill(lengths.begin(), lengths.end(), 0);
    if (nodes.empty()) return lengths;
    if (nodes.size() == 1) {
      lengths[nodes[0].sym] = 1;
      return lengths;
    }
    auto cmp = [&nodes](int32_t a, int32_t b) {
      if (nodes[a].w != nodes[b].w) return nodes[a].w > nodes[b].w;
      return nodes[a].id > nodes[b].id;
    };
    std::priority_queue<int32_t, std::vector<int32_t>, decltype(cmp)> heap(
        cmp);
    for (size_t i = 0; i < nodes.size(); ++i) {
      heap.push(static_cast<int32_t>(i));
    }
    while (heap.size() > 1) {
      int32_t a = heap.top();
      heap.pop();
      int32_t b = heap.top();
      heap.pop();
      nodes.push_back({nodes[a].w + nodes[b].w,
                       static_cast<uint32_t>(nodes.size()), a, b, -1});
      heap.push(static_cast<int32_t>(nodes.size() - 1));
    }
    unsigned max_len = 0;
    std::vector<std::pair<int32_t, unsigned>> stack{
        {heap.top(), 0u}};
    while (!stack.empty()) {
      auto [idx, depth] = stack.back();
      stack.pop_back();
      const Node& n = nodes[idx];
      if (n.sym >= 0) {
        lengths[n.sym] = static_cast<uint8_t>(depth);
        max_len = std::max(max_len, depth);
      } else {
        stack.push_back({n.l, depth + 1});
        stack.push_back({n.r, depth + 1});
      }
    }
    if (max_len <= limit) return lengths;
    for (auto& x : f) {
      if (x > 1) x = (x + 1) / 2;  // keep nonzero symbols alive
    }
  }
}

// Canonical codewords (already bit-reversed for LSB-first emission).
std::vector<uint32_t> canonical_codes(std::span<const uint8_t> lengths,
                                      unsigned max_bits) {
  std::vector<uint32_t> count(max_bits + 1, 0);
  for (uint8_t l : lengths) {
    if (l > 0) ++count[l];
  }
  std::vector<uint32_t> next(max_bits + 1, 0);
  uint32_t code = 0;
  for (unsigned l = 1; l <= max_bits; ++l) {
    code = (code + count[l - 1]) << 1;
    next[l] = code;
  }
  std::vector<uint32_t> codes(lengths.size(), 0);
  for (size_t s = 0; s < lengths.size(); ++s) {
    if (lengths[s] > 0) codes[s] = bit_reverse(next[lengths[s]]++, lengths[s]);
  }
  return codes;
}

// ---------------------------------------------------------------------------
// LZ77 tokenizer with hash chains (zlib-style).
// ---------------------------------------------------------------------------

struct Token {
  uint32_t dist;  // 0 => literal
  uint16_t len;   // literal byte if dist == 0
};

class Matcher {
 public:
  explicit Matcher(BytesView data, Level level)
      : data_(data), level_(level) {
    head_.assign(kHashSize, -1);
    prev_.assign(data.size() < kWindowSize ? data.size() : kWindowSize, -1);
  }

  // Tokenizes data[begin, end) appending to `out`.
  void tokenize(size_t begin, size_t end, std::vector<Token>& out) {
    size_t pos = begin;
    // Lazy-match state: a pending match from the previous position.
    bool have_prev = false;
    size_t prev_len = 0, prev_dist = 0;

    while (pos < end) {
      size_t len = 0, dist = 0;
      if (level_ != Level::kStored && pos + kMinMatch <= data_.size()) {
        // Matches must not cross the chunk end: each emit_block() pairs the
        // token list with exactly data[begin, end).
        find_match(pos, end - pos, len, dist);
      }
      if (level_ == Level::kDefault) {
        // Lazy evaluation: emit the previous match only if the current one
        // isn't strictly better.
        if (have_prev) {
          if (len > prev_len) {
            // Previous position becomes a literal; keep searching from here.
            out.push_back({0, data_[pos - 1]});
          } else {
            out.push_back({static_cast<uint32_t>(prev_dist),
                           static_cast<uint16_t>(prev_len)});
            // Skip over the matched bytes (minus the one lookahead already
            // consumed), inserting hash entries along the way.
            const size_t match_end = (pos - 1) + prev_len;
            while (pos < match_end && pos < end) {
              insert_hash(pos);
              ++pos;
            }
            have_prev = false;
            continue;
          }
          have_prev = false;
        }
        if (len >= kMinMatch && pos + 1 < end) {
          // Defer: look one byte ahead before committing.
          have_prev = true;
          prev_len = len;
          prev_dist = dist;
          insert_hash(pos);
          ++pos;
          continue;
        }
      }
      if (len >= kMinMatch) {
        out.push_back(
            {static_cast<uint32_t>(dist), static_cast<uint16_t>(len)});
        const size_t match_end = pos + len;
        while (pos < match_end && pos < end) {
          insert_hash(pos);
          ++pos;
        }
      } else {
        out.push_back({0, data_[pos]});
        insert_hash(pos);
        ++pos;
      }
    }
    if (have_prev) {
      // Flush a deferred match that reached the chunk boundary.
      out.push_back({static_cast<uint32_t>(prev_dist),
                     static_cast<uint16_t>(prev_len)});
      // The hash entries for its tail don't matter past `end`.
    }
  }

 private:
  static constexpr size_t kHashBits = 15;
  static constexpr size_t kHashSize = 1u << kHashBits;
  static constexpr int kMaxChain = 128;

  uint32_t hash_at(size_t pos) const {
    uint32_t h = 0;
    std::memcpy(&h, data_.data() + pos, 3);
    return (h * 2654435761u) >> (32 - kHashBits);
  }

  void insert_hash(size_t pos) {
    if (pos + kMinMatch > data_.size()) return;
    const uint32_t h = hash_at(pos);
    prev_[pos % prev_.size()] = head_[h];
    head_[h] = static_cast<int64_t>(pos);
  }

  void find_match(size_t pos, size_t limit, size_t& best_len,
                  size_t& best_dist) const {
    best_len = 0;
    best_dist = 0;
    const size_t max_len =
        std::min({kMaxMatch, data_.size() - pos, limit});
    if (max_len < kMinMatch) return;
    int64_t cand = head_[hash_at(pos)];
    int chain = kMaxChain;
    const size_t min_pos = pos >= kWindowSize ? pos - kWindowSize : 0;
    while (cand >= 0 && static_cast<size_t>(cand) >= min_pos &&
           chain-- > 0) {
      const size_t c = static_cast<size_t>(cand);
      if (c < pos) {
        // Quick reject on the byte that would extend the current best.
        if (best_len == 0 ||
            data_[c + best_len] == data_[pos + best_len]) {
          size_t l = 0;
          while (l < max_len && data_[c + l] == data_[pos + l]) ++l;
          if (l > best_len) {
            best_len = l;
            best_dist = pos - c;
            if (l >= max_len) break;
          }
        }
      }
      cand = prev_[c % prev_.size()];
    }
    if (best_len < kMinMatch) {
      best_len = 0;
      best_dist = 0;
    }
  }

  BytesView data_;
  Level level_;
  std::vector<int64_t> head_;
  std::vector<int64_t> prev_;
};

// ---------------------------------------------------------------------------
// Block emission.
// ---------------------------------------------------------------------------

struct BlockCodes {
  std::vector<uint8_t> lit_len, dist_len;
  std::vector<uint32_t> lit_code, dist_code;
};

// Fixed Huffman code per RFC 1951 3.2.6.
const BlockCodes& fixed_codes() {
  static const BlockCodes codes = [] {
    BlockCodes c;
    c.lit_len.resize(288);
    for (int i = 0; i <= 143; ++i) c.lit_len[i] = 8;
    for (int i = 144; i <= 255; ++i) c.lit_len[i] = 9;
    for (int i = 256; i <= 279; ++i) c.lit_len[i] = 7;
    for (int i = 280; i <= 287; ++i) c.lit_len[i] = 8;
    c.dist_len.assign(30, 5);
    c.lit_code = canonical_codes(c.lit_len, kMaxLitBits);
    c.dist_code = canonical_codes(c.dist_len, kMaxLitBits);
    return c;
  }();
  return codes;
}

// RLE of the combined lit+dist code-length array using symbols 16/17/18.
struct ClSymbol {
  uint8_t sym;
  uint8_t extra_val;
};

std::vector<ClSymbol> rle_code_lengths(std::span<const uint8_t> lengths) {
  std::vector<ClSymbol> out;
  size_t i = 0;
  while (i < lengths.size()) {
    const uint8_t l = lengths[i];
    size_t run = 1;
    while (i + run < lengths.size() && lengths[i + run] == l) ++run;
    if (l == 0) {
      size_t left = run;
      while (left >= 11) {
        const size_t n = std::min<size_t>(left, 138);
        out.push_back({18, static_cast<uint8_t>(n - 11)});
        left -= n;
      }
      while (left >= 3) {
        const size_t n = std::min<size_t>(left, 10);
        out.push_back({17, static_cast<uint8_t>(n - 3)});
        left -= n;
      }
      while (left-- > 0) out.push_back({0, 0});
    } else {
      out.push_back({l, 0});
      size_t left = run - 1;
      while (left >= 3) {
        const size_t n = std::min<size_t>(left, 6);
        out.push_back({16, static_cast<uint8_t>(n - 3)});
        left -= n;
      }
      while (left-- > 0) out.push_back({l, 0});
    }
    i += run;
  }
  return out;
}

void emit_tokens(LsbBitWriter& w, const std::vector<Token>& tokens,
                 const BlockCodes& c) {
  for (const Token& t : tokens) {
    if (t.dist == 0) {
      w.put_bits(c.lit_code[t.len], c.lit_len[t.len]);
    } else {
      const int lc = length_code(t.len);
      w.put_bits(c.lit_code[257 + lc], c.lit_len[257 + lc]);
      if (kLenExtra[lc] > 0) {
        w.put_bits(t.len - kLenBase[lc], kLenExtra[lc]);
      }
      const int dc = dist_code(t.dist);
      w.put_bits(c.dist_code[dc], c.dist_len[dc]);
      if (kDistExtra[dc] > 0) {
        w.put_bits(t.dist - kDistBase[dc], kDistExtra[dc]);
      }
    }
  }
  w.put_bits(c.lit_code[kEob], c.lit_len[kEob]);
}

// Bit cost of the token stream under given code lengths.
size_t token_cost_bits(const std::vector<Token>& tokens,
                       std::span<const uint8_t> lit_len,
                       std::span<const uint8_t> dist_len) {
  size_t bits = 0;
  for (const Token& t : tokens) {
    if (t.dist == 0) {
      bits += lit_len[t.len];
    } else {
      const int lc = length_code(t.len);
      bits += lit_len[257 + lc] + kLenExtra[lc];
      const int dc = dist_code(t.dist);
      bits += dist_len[dc] + kDistExtra[dc];
    }
  }
  bits += lit_len[kEob];
  return bits;
}

void emit_stored(LsbBitWriter& w, BytesView raw, bool final_block) {
  size_t off = 0;
  do {
    const size_t n = std::min<size_t>(raw.size() - off, 65535);
    const bool last = final_block && (off + n == raw.size());
    w.put_bits(last ? 1 : 0, 1);
    w.put_bits(0, 2);  // BTYPE=00
    w.align_to_byte();
    w.put_bits(n, 16);
    w.put_bits(~n & 0xFFFF, 16);
    w.put_bytes(raw.subspan(off, n));
    off += n;
  } while (off < raw.size());
}

void emit_block(LsbBitWriter& w, BytesView raw,
                const std::vector<Token>& tokens, bool final_block) {
  // Build dynamic code.
  std::vector<uint64_t> lit_freq(kNumLitCodes, 0);
  std::vector<uint64_t> dist_freq(kNumDistCodes, 0);
  for (const Token& t : tokens) {
    if (t.dist == 0) {
      ++lit_freq[t.len];
    } else {
      ++lit_freq[257 + length_code(t.len)];
      ++dist_freq[dist_code(t.dist)];
    }
  }
  ++lit_freq[kEob];

  std::vector<uint8_t> lit_len = limited_lengths(lit_freq, kMaxLitBits);
  std::vector<uint8_t> dist_len = limited_lengths(dist_freq, kMaxLitBits);
  // DEFLATE requires at least one distance code to be describable.
  if (std::all_of(dist_len.begin(), dist_len.end(),
                  [](uint8_t l) { return l == 0; })) {
    dist_len[0] = 1;
  }

  // Trim trailing zero lengths (but respect the format minimums).
  int nlit = kNumLitCodes;
  while (nlit > 257 && lit_len[nlit - 1] == 0) --nlit;
  int ndist = kNumDistCodes;
  while (ndist > 1 && dist_len[ndist - 1] == 0) --ndist;

  // Code-length alphabet.
  std::vector<uint8_t> combined(lit_len.begin(), lit_len.begin() + nlit);
  combined.insert(combined.end(), dist_len.begin(), dist_len.begin() + ndist);
  const auto cl_syms = rle_code_lengths(combined);
  std::vector<uint64_t> cl_freq(kNumClCodes, 0);
  for (const ClSymbol& s : cl_syms) ++cl_freq[s.sym];
  std::vector<uint8_t> cl_len = limited_lengths(cl_freq, kMaxClBits);
  const auto cl_code = canonical_codes(cl_len, kMaxClBits);

  int ncl = kNumClCodes;
  while (ncl > 4 && cl_len[kClOrder[ncl - 1]] == 0) --ncl;

  // Cost comparison: dynamic vs fixed vs stored.
  size_t header_bits = 14 + 3u * ncl;
  for (const ClSymbol& s : cl_syms) {
    header_bits += cl_len[s.sym];
    if (s.sym == 16) header_bits += 2;
    if (s.sym == 17) header_bits += 3;
    if (s.sym == 18) header_bits += 7;
  }
  const size_t dyn_bits =
      3 + header_bits + token_cost_bits(tokens, lit_len, dist_len);
  const auto& fx = fixed_codes();
  const size_t fix_bits =
      3 + token_cost_bits(tokens, fx.lit_len, fx.dist_len);
  const size_t stored_bits =
      (raw.size() + (raw.size() + 65534) / 65535 * 5 + 4) * 8;

  if (stored_bits < dyn_bits && stored_bits < fix_bits) {
    emit_stored(w, raw, final_block);
    return;
  }

  w.put_bits(final_block ? 1 : 0, 1);
  if (fix_bits <= dyn_bits) {
    w.put_bits(1, 2);  // BTYPE=01 fixed
    emit_tokens(w, tokens, fx);
    return;
  }

  w.put_bits(2, 2);  // BTYPE=10 dynamic
  w.put_bits(nlit - 257, 5);
  w.put_bits(ndist - 1, 5);
  w.put_bits(ncl - 4, 4);
  for (int i = 0; i < ncl; ++i) w.put_bits(cl_len[kClOrder[i]], 3);
  for (const ClSymbol& s : cl_syms) {
    w.put_bits(cl_code[s.sym], cl_len[s.sym]);
    if (s.sym == 16) w.put_bits(s.extra_val, 2);
    if (s.sym == 17) w.put_bits(s.extra_val, 3);
    if (s.sym == 18) w.put_bits(s.extra_val, 7);
  }
  BlockCodes dyn;
  dyn.lit_len = std::move(lit_len);
  dyn.dist_len = std::move(dist_len);
  dyn.lit_code = canonical_codes(dyn.lit_len, kMaxLitBits);
  dyn.dist_code = canonical_codes(dyn.dist_len, kMaxLitBits);
  emit_tokens(w, tokens, dyn);
}

// ---------------------------------------------------------------------------
// Inflate.
// ---------------------------------------------------------------------------

// Canonical (MSB-first code value) decoder over an LSB-first bit stream.
class CanonicalDecoder {
 public:
  CanonicalDecoder(std::span<const uint8_t> lengths, unsigned max_bits)
      : max_bits_(max_bits) {
    count_.assign(max_bits + 1, 0);
    for (uint8_t l : lengths) {
      SZSEC_CHECK_FORMAT(l <= max_bits, "code length exceeds limit");
      if (l > 0) ++count_[l];
    }
    first_code_.assign(max_bits + 2, 0);
    first_index_.assign(max_bits + 2, 0);
    uint32_t code = 0, index = 0;
    uint64_t kraft = 0;
    for (unsigned l = 1; l <= max_bits; ++l) {
      code = (code + count_[l - 1]) << 1;
      first_code_[l] = code;
      first_index_[l] = index;
      index += count_[l];
      kraft += static_cast<uint64_t>(count_[l]) << (max_bits - l);
    }
    SZSEC_CHECK_FORMAT(kraft <= (uint64_t{1} << max_bits),
                       "over-subscribed Huffman code");
    sorted_.reserve(index);
    for (unsigned l = 1; l <= max_bits; ++l) {
      for (size_t s = 0; s < lengths.size(); ++s) {
        if (lengths[s] == l) sorted_.push_back(static_cast<uint32_t>(s));
      }
    }
  }

  uint32_t decode(LsbBitReader& r) const {
    uint32_t code = 0;
    for (unsigned len = 1; len <= max_bits_; ++len) {
      code = (code << 1) | r.get_bit();
      if (count_[len] != 0 && code - first_code_[len] < count_[len]) {
        return sorted_[first_index_[len] + (code - first_code_[len])];
      }
    }
    throw CorruptError("corrupt: invalid Huffman code in stream");
  }

 private:
  unsigned max_bits_;
  std::vector<uint32_t> count_, first_code_, first_index_;
  std::vector<uint32_t> sorted_;
};

void inflate_tokens(LsbBitReader& r, const CanonicalDecoder& lit,
                    const CanonicalDecoder& dist, Bytes& out,
                    size_t max_size) {
  while (true) {
    const uint32_t sym = lit.decode(r);
    if (sym < 256) {
      SZSEC_CHECK_FORMAT(max_size == 0 || out.size() < max_size,
                         "inflated output exceeds declared size cap");
      out.push_back(static_cast<uint8_t>(sym));
    } else if (sym == kEob) {
      return;
    } else {
      SZSEC_CHECK_FORMAT(sym - 257 < 29, "bad length code");
      const int lc = static_cast<int>(sym - 257);
      const size_t len =
          kLenBase[lc] + static_cast<size_t>(r.get_bits(kLenExtra[lc]));
      const uint32_t dsym = dist.decode(r);
      SZSEC_CHECK_FORMAT(dsym < 30, "bad distance code");
      const size_t d =
          kDistBase[dsym] + static_cast<size_t>(r.get_bits(kDistExtra[dsym]));
      SZSEC_CHECK_FORMAT(d <= out.size(), "distance beyond output start");
      SZSEC_CHECK_FORMAT(max_size == 0 || len <= max_size - out.size(),
                         "inflated output exceeds declared size cap");
      // Byte-at-a-time copy handles overlapping matches correctly.
      const size_t start = out.size() - d;
      for (size_t i = 0; i < len; ++i) out.push_back(out[start + i]);
    }
  }
}

}  // namespace

Bytes deflate(BytesView data, Level level) {
  LsbBitWriter w;
  if (data.empty()) {
    // One empty stored final block.
    emit_stored(w, data, true);
    return w.finish();
  }
  if (level == Level::kStored) {
    emit_stored(w, data, true);
    return w.finish();
  }

  // Chunked compression: one block per kChunk of input bytes, so dynamic
  // Huffman codes adapt to local statistics (as zlib does).
  constexpr size_t kChunk = 256 * 1024;
  Matcher matcher(data, level);
  std::vector<Token> tokens;
  for (size_t off = 0; off < data.size(); off += kChunk) {
    const size_t end = std::min(data.size(), off + kChunk);
    tokens.clear();
    matcher.tokenize(off, end, tokens);
    emit_block(w, data.subspan(off, end - off), tokens,
               /*final_block=*/end == data.size());
  }
  return w.finish();
}

Bytes inflate(BytesView data, size_t size_hint, size_t max_size) {
  LsbBitReader r(data);
  Bytes out;
  const size_t want = max_size != 0 ? std::min(size_hint, max_size)
                                    : size_hint;
  if (want > out.capacity()) out.reserve(want);
  bool final_block = false;
  do {
    final_block = r.get_bit() != 0;
    const uint64_t btype = r.get_bits(2);
    if (btype == 0) {
      r.align_to_byte();
      const uint64_t len = r.get_bits(16);
      const uint64_t nlen = r.get_bits(16);
      SZSEC_CHECK_FORMAT((len ^ nlen) == 0xFFFF, "stored block LEN mismatch");
      SZSEC_CHECK_FORMAT(max_size == 0 || len <= max_size - out.size(),
                         "inflated output exceeds declared size cap");
      const BytesView raw = r.get_bytes(static_cast<size_t>(len));
      out.insert(out.end(), raw.begin(), raw.end());
    } else if (btype == 1) {
      const auto& fx = fixed_codes();
      const CanonicalDecoder lit(fx.lit_len, kMaxLitBits);
      const CanonicalDecoder dist(fx.dist_len, kMaxLitBits);
      inflate_tokens(r, lit, dist, out, max_size);
    } else if (btype == 2) {
      const int nlit = static_cast<int>(r.get_bits(5)) + 257;
      const int ndist = static_cast<int>(r.get_bits(5)) + 1;
      const int ncl = static_cast<int>(r.get_bits(4)) + 4;
      SZSEC_CHECK_FORMAT(nlit <= kNumLitCodes + 2 && ndist <= kNumDistCodes + 2,
                         "bad code counts");
      std::vector<uint8_t> cl_len(kNumClCodes, 0);
      for (int i = 0; i < ncl; ++i) {
        cl_len[kClOrder[i]] = static_cast<uint8_t>(r.get_bits(3));
      }
      const CanonicalDecoder cl(cl_len, kMaxClBits);
      std::vector<uint8_t> lengths;
      lengths.reserve(static_cast<size_t>(nlit + ndist));
      while (lengths.size() < static_cast<size_t>(nlit + ndist)) {
        const uint32_t s = cl.decode(r);
        if (s < 16) {
          lengths.push_back(static_cast<uint8_t>(s));
        } else if (s == 16) {
          SZSEC_CHECK_FORMAT(!lengths.empty(), "repeat with no previous");
          const uint8_t prev = lengths.back();
          const uint64_t n = 3 + r.get_bits(2);
          lengths.insert(lengths.end(), static_cast<size_t>(n), prev);
        } else if (s == 17) {
          const uint64_t n = 3 + r.get_bits(3);
          lengths.insert(lengths.end(), static_cast<size_t>(n), 0);
        } else {
          const uint64_t n = 11 + r.get_bits(7);
          lengths.insert(lengths.end(), static_cast<size_t>(n), 0);
        }
      }
      SZSEC_CHECK_FORMAT(lengths.size() == static_cast<size_t>(nlit + ndist),
                         "code length overrun");
      const std::span<const uint8_t> lit_span(lengths.data(),
                                              static_cast<size_t>(nlit));
      const std::span<const uint8_t> dist_span(
          lengths.data() + nlit, static_cast<size_t>(ndist));
      const CanonicalDecoder lit(lit_span, kMaxLitBits);
      const CanonicalDecoder dist(dist_span, kMaxLitBits);
      inflate_tokens(r, lit, dist, out, max_size);
    } else {
      throw CorruptError("corrupt: reserved block type");
    }
  } while (!final_block);
  return out;
}

uint32_t crc32(BytesView data, uint32_t seed) {
  static const auto table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (uint8_t b : data) c = table[(c ^ b) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

namespace {

using sz::LinearQuantizer;
using sz::Params;
using sz::PredictorMode;
using sz::RegressionCoeffs;

// LinearQuantizer::quantize() rounding through libm.
template <typename T>
uint32_t quantize(const LinearQuantizer& quant, T value, T predicted,
                  T& reconstructed) {
  const double two_eb = 2.0 * quant.error_bound();
  const auto radius = static_cast<int64_t>(quant.radius());
  const double diff = static_cast<double>(value) - predicted;
  const double scaled = diff / two_eb;
  const double rounded = std::nearbyint(scaled);
  if (std::abs(rounded) >= static_cast<double>(radius) ||
      !std::isfinite(diff)) {
    return 0;
  }
  const int64_t q = static_cast<int64_t>(rounded);
  const T recon = static_cast<T>(predicted + rounded * two_eb);
  if (std::abs(static_cast<double>(recon) - value) > quant.error_bound()) {
    return 0;
  }
  reconstructed = recon;
  return static_cast<uint32_t>(q + radius);
}

struct Shape {
  size_t nt, nz, ny, nx;
};

Shape normalize(const Dims& dims) {
  switch (dims.rank()) {
    case 1:
      return {1, 1, 1, dims[0]};
    case 2:
      return {1, 1, dims[0], dims[1]};
    case 3:
      return {1, dims[0], dims[1], dims[2]};
    default:
      return {dims[0], dims[1], dims[2], dims[3]};
  }
}

struct BlockShape {
  size_t bz, by, bx;
};

BlockShape block_shape(const Shape& s, const Params& p) {
  const size_t b = std::max<uint32_t>(2, p.block_side);
  if (s.nz == 1 && s.ny == 1) return {1, 1, b * b * b};
  if (s.nz == 1) return {1, 2 * b, 2 * b};
  return {b, b, b};
}

template <typename T>
PredictorMode choose_mode(const T* data, size_t nz, size_t ny, size_t nx,
                          size_t z0, size_t y0, size_t x0, size_t bz,
                          size_t by, size_t bx, const Params& params,
                          const RegressionCoeffs& reg, double mean) {
  const sz::Lorenzo3D<T> lorenzo{data, nz, ny, nx};
  double err_l = 0, err_r = 0, err_m = 0;
  for (size_t z = 0; z < bz; ++z) {
    for (size_t y = 0; y < by; ++y) {
      for (size_t x = 0; x < bx; x += 2) {
        const size_t gz = z0 + z, gy = y0 + y, gx = x0 + x;
        const double v = data[(gz * ny + gy) * nx + gx];
        err_l += std::abs(v - static_cast<double>(lorenzo.predict(gz, gy, gx)));
        if (params.use_regression) {
          const double pr = reg.slope[0] * static_cast<double>(z) +
                            reg.slope[1] * static_cast<double>(y) +
                            reg.slope[2] * static_cast<double>(x) +
                            reg.intercept;
          err_r += std::abs(v - pr);
        }
        if (params.use_mean_predictor) err_m += std::abs(v - mean);
      }
    }
  }
  PredictorMode mode = PredictorMode::kLorenzo;
  double best = err_l;
  if (params.use_mean_predictor && err_m < best) {
    best = err_m;
    mode = PredictorMode::kMean;
  }
  if (params.use_regression && err_r < best) {
    mode = PredictorMode::kRegression;
  }
  return mode;
}

template <typename T>
void encode_volume(const T* data, T* recon, size_t nz, size_t ny, size_t nx,
                   const Params& params, const LinearQuantizer& quant,
                   const sz::CoeffCodec& codec,
                   sz::UnpredictableEncoder& unpred, ByteWriter& side,
                   std::vector<uint32_t>& codes, uint64_t& unpred_count,
                   const BlockShape& bs) {
  const sz::Lorenzo3D<T> lorenzo{recon, nz, ny, nx};
  std::vector<T> pred_row(bs.bx);
  const auto radius = static_cast<int64_t>(quant.radius());
  for (size_t z0 = 0; z0 < nz; z0 += bs.bz) {
    const size_t bz = std::min(bs.bz, nz - z0);
    for (size_t y0 = 0; y0 < ny; y0 += bs.by) {
      const size_t by = std::min(bs.by, ny - y0);
      for (size_t x0 = 0; x0 < nx; x0 += bs.bx) {
        const size_t bx = std::min(bs.bx, nx - x0);
        const T* block0 = data + (z0 * ny + y0) * nx + x0;

        RegressionCoeffs reg;
        double mean = 0;
        if (params.use_regression || params.use_mean_predictor) {
          reg = sz::fit_block(block0, bz, by, bx, ny * nx, nx, 1);
          mean = reg.intercept +
                 reg.slope[0] * (static_cast<double>(bz) - 1) / 2 +
                 reg.slope[1] * (static_cast<double>(by) - 1) / 2 +
                 reg.slope[2] * (static_cast<double>(bx) - 1) / 2;
        }
        const PredictorMode mode =
            choose_mode(data, nz, ny, nx, z0, y0, x0, bz, by, bx, params,
                        reg, mean);

        side.put_u8(static_cast<uint8_t>(mode));
        double qmean = 0;
        if (mode == PredictorMode::kRegression) {
          codec.encode(reg, side);
        } else if (mode == PredictorMode::kMean) {
          qmean = codec.encode_mean(mean, side);
        }

        if (mode == PredictorMode::kLorenzo) {
          for (size_t z = 0; z < bz; ++z) {
            for (size_t y = 0; y < by; ++y) {
              for (size_t x = 0; x < bx; ++x) {
                const size_t gz = z0 + z, gy = y0 + y, gx = x0 + x;
                const size_t idx = (gz * ny + gy) * nx + gx;
                const T v = data[idx];
                const T pred = lorenzo.predict(gz, gy, gx);
                T rv = pred;
                const uint32_t code = quantize(quant, v, pred, rv);
                codes.push_back(code);
                if (code == 0) {
                  rv = unpred.put(v);
                  ++unpred_count;
                }
                recon[idx] = rv;
              }
            }
          }
        } else {
          for (size_t z = 0; z < bz; ++z) {
            for (size_t y = 0; y < by; ++y) {
              const size_t row0 = ((z0 + z) * ny + (y0 + y)) * nx + x0;
              if (mode == PredictorMode::kRegression) {
                const double t_zy = reg.slope[0] * static_cast<double>(z) +
                                    reg.slope[1] * static_cast<double>(y);
                sz::kernels::predict_affine_row(t_zy, reg.slope[2],
                                                reg.intercept, bx,
                                                pred_row.data());
              } else {
                std::fill_n(pred_row.data(), bx, static_cast<T>(qmean));
              }
              const size_t code_base = codes.size();
              codes.resize(code_base + bx);
              sz::kernels::quantize_row(data + row0, pred_row.data(), bx,
                                        quant.error_bound(), radius,
                                        codes.data() + code_base,
                                        recon + row0);
              for (size_t x = 0; x < bx; ++x) {
                if (codes[code_base + x] == 0) {
                  recon[row0 + x] = unpred.put(data[row0 + x]);
                  ++unpred_count;
                }
              }
            }
          }
        }
      }
    }
  }
}

template <typename T>
void interp_encode(const T* data, T* recon, size_t nz, size_t ny, size_t nx,
                   const LinearQuantizer& quant,
                   sz::UnpredictableEncoder& unpred,
                   std::vector<uint32_t>& codes, uint64_t& unpred_count) {
  sz::interp_detail::traverse<T>(
      recon, nz, ny, nx, [&](size_t idx, T pred) {
        const T v = data[idx];
        T rv = pred;
        const uint32_t code = quantize(quant, v, pred, rv);
        codes.push_back(code);
        if (code == 0) {
          rv = unpred.put(v);
          ++unpred_count;
        }
        recon[idx] = rv;
      });
}

template <typename T>
sz::QuantizedField predict_quantize_impl(std::span<const T> data,
                                         const Dims& dims, const Params& raw) {
  SZSEC_REQUIRE(data.size() == dims.count(),
                "data size does not match dims");
  SZSEC_REQUIRE(raw.quant_bins >= 4 && raw.quant_bins % 2 == 0,
                "quant_bins must be even and >= 4");
  Params params = raw;
  if (raw.eb_mode == sz::ErrorBoundMode::kRel) {
    SZSEC_REQUIRE(raw.rel_error_bound > 0,
                  "relative error bound must be positive");
    T lo = data.empty() ? T{0} : data[0];
    T hi = lo;
    for (T v : data) {
      if (v < lo) lo = v;
      if (v > hi) hi = v;
    }
    const double range = static_cast<double>(hi) - static_cast<double>(lo);
    params.abs_error_bound = std::max(range * raw.rel_error_bound, 1e-30);
    params.eb_mode = sz::ErrorBoundMode::kAbs;
  }
  SZSEC_REQUIRE(params.abs_error_bound > 0, "error bound must be positive");
  // An infinite bound (given, or a REL bound over a range with +-inf)
  // would overflow the unpredictable encoder's exponent arithmetic.
  SZSEC_REQUIRE(std::isfinite(params.abs_error_bound),
                "error bound must be finite");

  sz::QuantizedField q;
  q.params = params;
  q.dims = dims;
  q.dtype = std::is_same_v<T, float> ? sz::DType::kFloat32
                                     : sz::DType::kFloat64;
  q.codes.reserve(data.size());

  const Shape s = normalize(dims);
  const BlockShape bs = block_shape(s, params);
  const LinearQuantizer quant(params.abs_error_bound, params.quant_bins);
  const sz::CoeffCodec codec(params.abs_error_bound, params.block_side);
  sz::UnpredictableEncoder unpred(params.abs_error_bound);
  ByteWriter side;

  std::vector<T> recon(s.nz * s.ny * s.nx);
  const size_t vol = s.nz * s.ny * s.nx;
  for (size_t t = 0; t < s.nt; ++t) {
    if (params.predictor == sz::Predictor::kInterpolation) {
      interp_encode(data.data() + t * vol, recon.data(), s.nz, s.ny, s.nx,
                    quant, unpred, q.codes, q.unpredictable_count);
    } else {
      encode_volume(data.data() + t * vol, recon.data(), s.nz, s.ny, s.nx,
                    params, quant, codec, unpred, side, q.codes,
                    q.unpredictable_count, bs);
    }
  }
  q.unpredictable = unpred.finish();
  q.side_info = side.take();
  return q;
}

}  // namespace

sz::QuantizedField predict_quantize(std::span<const float> data,
                                    const Dims& dims,
                                    const sz::Params& params) {
  return predict_quantize_impl(data, dims, params);
}

sz::QuantizedField predict_quantize(std::span<const double> data,
                                    const Dims& dims,
                                    const sz::Params& params) {
  return predict_quantize_impl(data, dims, params);
}

}  // namespace szsec::testing::reference
