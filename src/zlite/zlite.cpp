#include "zlite/zlite.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <queue>

#include "common/bitstream.h"
#include "common/error.h"

namespace szsec::zlite {

namespace {

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

// Length code by match length (zlib's _length_code, indexed by the length
// itself rather than length - 3).
constexpr auto kLengthCode = [] {
  std::array<uint8_t, kMaxMatch + 1> t{};
  for (uint8_t c = 0; c < 29; ++c) {
    for (size_t len = kLenBase[c]; len <= kMaxMatch; ++len) t[len] = c;
  }
  return t;
}();

// Distance code in zlib's _dist_code layout: indexed by dist - 1 below 256,
// else by 256 + ((dist - 1) >> 7), since every code from 16 up covers
// whole 128-distance steps.
constexpr auto kDistanceCode = [] {
  std::array<uint8_t, 512> t{};
  for (uint8_t c = 0; c < kNumDistCodes; ++c) {
    const size_t d = kDistBase[c] - 1u;
    for (size_t i = d; i < 256; ++i) t[i] = c;
    for (size_t i = 256 + (d >> 7); i < t.size(); ++i) t[i] = c;
  }
  return t;
}();

uint8_t dist_code(size_t dist) {
  const size_t d = dist - 1;
  return kDistanceCode[d < 256 ? d : 256 + (d >> 7)];
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
  uint8_t lcode;  // a match's length and distance codes, looked up once
  uint8_t dcode;
};

Token literal_token(uint8_t byte) { return {0, byte, 0, 0}; }

Token match_token(size_t dist, size_t len) {
  return {static_cast<uint32_t>(dist), static_cast<uint16_t>(len),
          kLengthCode[len], dist_code(dist)};
}

// Length of the common prefix of `a` and `b`, at most `max_len`: 8 bytes
// per step while a whole word fits, then bytewise.
size_t common_prefix(const uint8_t* a, const uint8_t* b, size_t max_len) {
  size_t l = 0;
  for (; l + 8 <= max_len; l += 8) {
    uint64_t x, y;
    std::memcpy(&x, a + l, 8);
    std::memcpy(&y, b + l, 8);
    if (const uint64_t diff = x ^ y; diff != 0) {
      if constexpr (std::endian::native == std::endian::little) {
        return l + static_cast<size_t>(std::countr_zero(diff)) / 8;
      } else {
        return l + static_cast<size_t>(std::countl_zero(diff)) / 8;
      }
    }
  }
  while (l < max_len && a[l] == b[l]) ++l;
  return l;
}

class Matcher {
 public:
  explicit Matcher(BytesView data, Level level)
      : data_(data), level_(level), head_(kHashSize, -1),
        prev_(kWindowSize, -1) {}

  // Tokenizes data[begin, end) appending to `out`.
  void tokenize(size_t begin, size_t end, std::vector<Token>& out) {
    slide_to(begin);
    size_t pos = begin;
    // Lazy-match state: a pending match from the previous position.
    bool have_prev = false;
    size_t prev_len = 0, prev_dist = 0;

    while (pos < end) {
      size_t len = 0, dist = 0;
      const bool hashable = pos + kMinMatch <= data_.size();
      const uint32_t h = hashable ? hash_of(pos) : 0;
      if (pos + 1 + kMinMatch <= data_.size()) {
        cached_pos_ = pos + 1;
        cached_hash_ = hash_at(pos + 1);
        __builtin_prefetch(&head_[cached_hash_]);
      }
      if (level_ != Level::kStored && hashable) {
        // Matches must not cross the chunk end: each emit_block() pairs the
        // token list with exactly data[begin, end).
        find_match(pos, h, end - pos, len, dist);
      }
      if (level_ == Level::kDefault) {
        // Lazy evaluation: emit the previous match only if the current one
        // isn't strictly better.
        if (have_prev) {
          if (len > prev_len) {
            // Previous position becomes a literal; keep searching from here.
            out.push_back(literal_token(data_[pos - 1]));
          } else {
            out.push_back(match_token(prev_dist, prev_len));
            // Skip over the matched bytes (minus the one lookahead already
            // consumed), inserting hash entries along the way.
            const size_t match_end = std::min((pos - 1) + prev_len, end);
            if (hashable) insert(pos, h);
            skip_to(pos + 1, match_end);
            pos = match_end;
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
          insert(pos, h);
          ++pos;
          continue;
        }
      }
      if (len >= kMinMatch) {
        out.push_back(match_token(dist, len));
        const size_t match_end = std::min(pos + len, end);
        insert(pos, h);
        skip_to(pos + 1, match_end);
        pos = match_end;
      } else {
        out.push_back(literal_token(data_[pos]));
        if (hashable) insert(pos, h);
        ++pos;
      }
    }
    if (have_prev) {
      // Flush a deferred match that reached the chunk boundary.
      out.push_back(match_token(prev_dist, prev_len));
      // The hash entries for its tail don't matter past `end`.
    }
  }

 private:
  static constexpr size_t kHashBits = 15;
  static constexpr size_t kHashSize = 1u << kHashBits;
  static constexpr size_t kWindowMask = kWindowSize - 1;
  static constexpr int kMaxChain = 128;
  static_assert((kWindowSize & kWindowMask) == 0, "window is a power of two");

  // Hashes the 3 bytes at `pos`, read as a 3-byte memcpy into a zeroed
  // uint32 would read them.  Built from byte loads: that memcpy makes the
  // 4-byte read span two stores, which defeats store forwarding.
  uint32_t hash_at(size_t pos) const {
    const uint8_t* p = data_.data() + pos;
    uint32_t v;
    if constexpr (std::endian::native == std::endian::little) {
      v = p[0] | (p[1] << 8) | (p[2] << 16);
    } else {
      v = (uint32_t{p[0]} << 24) | (p[1] << 16) | (p[2] << 8);
    }
    return (v * 2654435761u) >> (32 - kHashBits);
  }

  // Each position's hash is computed once: the look-ahead for the prefetch
  // is kept for the step that reaches it.
  uint32_t hash_of(size_t pos) const {
    return pos == cached_pos_ ? cached_hash_ : hash_at(pos);
  }

  // Records `pos` (whose hash is `h`) as the newest chain entry.
  void insert(size_t pos, uint32_t h) {
    prev_[pos & kWindowMask] = head_[h];
    head_[h] = static_cast<int32_t>(pos - base_);
  }

  // Inserts the positions in [from, to) that can start a match.
  void skip_to(size_t from, size_t to) {
    for (size_t p = from; p < to && p + kMinMatch <= data_.size(); ++p) {
      insert(p, hash_of(p));
    }
  }

  // Chain entries hold positions relative to base_, -1 for none.  Before
  // each block, base_ moves up to the block's window start, as zlib slides
  // its window, so int32 entries cover inputs of any size.  An entry that
  // falls below the new base was already out of every later window; it
  // becomes -1 and ends its chain where the window check would.
  void slide_to(size_t begin) {
    if (begin < base_ + kWindowSize) return;
    const size_t shift = begin - kWindowSize - base_;
    const auto slide = [shift](int32_t& e) {
      e = e >= 0 && static_cast<size_t>(e) >= shift
              ? static_cast<int32_t>(static_cast<size_t>(e) - shift)
              : -1;
    };
    std::for_each(head_.begin(), head_.end(), slide);
    std::for_each(prev_.begin(), prev_.end(), slide);
    base_ += shift;
  }

  void find_match(size_t pos, uint32_t h, size_t limit, size_t& best_len,
                  size_t& best_dist) const {
    best_len = 0;
    best_dist = 0;
    const size_t max_len =
        std::min({kMaxMatch, data_.size() - pos, limit});
    if (max_len < kMinMatch) return;
    const uint8_t* d = data_.data();
    const size_t min_pos = pos >= kWindowSize ? pos - kWindowSize : 0;
    // Non-negative, so the -1 sentinel also ends the walk.
    const auto min_rel =
        static_cast<int32_t>(min_pos > base_ ? min_pos - base_ : 0);
    int32_t cand = head_[h];
    int chain = kMaxChain;
    while (cand >= min_rel && chain-- > 0) {
      const size_t c = base_ + static_cast<size_t>(cand);
      if (c < pos) {
        // Quick reject on the byte that would extend the current best.
        if (best_len == 0 || d[c + best_len] == d[pos + best_len]) {
          const size_t l = common_prefix(d + c, d + pos, max_len);
          if (l > best_len) {
            best_len = l;
            best_dist = pos - c;
            if (l >= max_len) break;
          }
        }
      }
      cand = prev_[c & kWindowMask];
    }
    if (best_len < kMinMatch) {
      best_len = 0;
      best_dist = 0;
    }
  }

  BytesView data_;
  Level level_;
  std::vector<int32_t> head_;
  std::vector<int32_t> prev_;
  size_t base_ = 0;
  size_t cached_pos_ = SIZE_MAX;
  uint32_t cached_hash_ = 0;
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
      // Each codeword goes out with its extra bits in one put (at most
      // 15 + 5 and 15 + 13 bits).
      const unsigned lsym = 257u + t.lcode;
      const auto len_extra = static_cast<uint32_t>(t.len - kLenBase[t.lcode]);
      w.put_bits(c.lit_code[lsym] | (len_extra << c.lit_len[lsym]),
                 c.lit_len[lsym] + kLenExtra[t.lcode]);
      w.put_bits(c.dist_code[t.dcode] |
                     ((t.dist - kDistBase[t.dcode]) << c.dist_len[t.dcode]),
                 c.dist_len[t.dcode] + kDistExtra[t.dcode]);
    }
  }
  w.put_bits(c.lit_code[kEob], c.lit_len[kEob]);
}

// Bit cost of a block's tokens under given code lengths, from the symbol
// histograms: each symbol's count times its code and extra-bit lengths.
size_t token_cost_bits(std::span<const uint64_t> lit_freq,
                       std::span<const uint64_t> dist_freq,
                       std::span<const uint8_t> lit_len,
                       std::span<const uint8_t> dist_len) {
  size_t bits = 0;
  for (int s = 0; s < kNumLitCodes; ++s) bits += lit_freq[s] * lit_len[s];
  for (int c = 0; c < 29; ++c) bits += lit_freq[257 + c] * kLenExtra[c];
  for (int c = 0; c < kNumDistCodes; ++c) {
    bits += dist_freq[c] * (dist_len[c] + kDistExtra[c]);
  }
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
      ++lit_freq[257 + t.lcode];
      ++dist_freq[t.dcode];
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
      3 + header_bits + token_cost_bits(lit_freq, dist_freq, lit_len, dist_len);
  const auto& fx = fixed_codes();
  const size_t fix_bits =
      3 + token_cost_bits(lit_freq, dist_freq, fx.lit_len, fx.dist_len);
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
// Inflate, in the layout of zlib's inflate_fast.
//
// Each Huffman code gets a root table indexed by the next root-bits of the
// stream.  A hit gives the symbol's decoded form and code length in one
// load; codes longer than the root and prefixes of no code miss, and the
// canonical walk decodes those exactly as a bit-at-a-time decoder would,
// errors included.  While 8 input bytes and kFastRoom bytes of output
// room remain, a fast loop decodes with one accumulator refill per step
// and no cap or exhaustion checks: the room bound rules out the first,
// and the bits one refill guarantees rule out the second.  The rest of a
// block goes one symbol at a time through the checked path, which makes
// the bit-at-a-time decoder's checks in its order.  Matches are copied 8
// bytes at a time, with a pattern splat for distances below 8.
// ---------------------------------------------------------------------------

// A decoded symbol, as the root tables and the walk return it:
//   bits 0-3    code length in bits (0: not in the root table)
//   bits 4-7    extra bits that follow the code (lengths and distances)
//   bits 8-9    kind
//   bits 16-31  value: the literal byte, or the length or distance base
enum Kind : uint32_t { kLiteral = 0, kCopy = 1, kEnd = 2, kBad = 3 };

constexpr unsigned entry_len(uint32_t e) { return e & 0xF; }
constexpr unsigned entry_extra(uint32_t e) { return (e >> 4) & 0xF; }
constexpr Kind entry_kind(uint32_t e) {
  return static_cast<Kind>((e >> 8) & 3);
}
constexpr uint32_t entry_value(uint32_t e) { return e >> 16; }

constexpr uint32_t make_entry(Kind kind, uint32_t value, unsigned extra) {
  return (value << 16) | (uint32_t{kind} << 8) | (extra << 4);
}

// The walk's two failures; code length 0, so no symbol looks like them.
constexpr uint32_t kWalkExhausted = 1u << 10;
constexpr uint32_t kWalkInvalid = 2u << 10;

// Which symbol set a code spells, for the decoded form of each symbol.
enum class Alphabet { kLitLen, kDist, kCodeLength };

uint32_t symbol_entry(Alphabet alphabet, uint32_t sym) {
  switch (alphabet) {
    case Alphabet::kLitLen:
      if (sym < 256) return make_entry(kLiteral, sym, 0);
      if (sym == kEob) return make_entry(kEnd, 0, 0);
      if (sym - 257 < 29) {
        return make_entry(kCopy, kLenBase[sym - 257], kLenExtra[sym - 257]);
      }
      return make_entry(kBad, 0, 0);
    case Alphabet::kDist:
      if (sym < 30) return make_entry(kCopy, kDistBase[sym], kDistExtra[sym]);
      return make_entry(kBad, 0, 0);
    case Alphabet::kCodeLength:
      break;
  }
  return make_entry(kLiteral, sym, 0);
}

// One block's decoder for one canonical code: a root table plus the exact
// canonical walk for what the table does not cover.
class CodeDecoder {
 public:
  CodeDecoder(std::span<const uint8_t> lengths, unsigned max_bits,
              Alphabet alphabet, unsigned root_bits)
      : max_bits_(max_bits), alphabet_(alphabet),
        root_mask_((1u << root_bits) - 1), root_(size_t{1} << root_bits, 0) {
    for (uint8_t l : lengths) {
      SZSEC_CHECK_FORMAT(l <= max_bits, "code length exceeds limit");
      if (l > 0) ++count_[l];
    }
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
    // Symbols in (length, symbol) order; the rank within a length is the
    // canonical code's offset from first_code_.
    sorted_.resize(index);
    std::array<uint32_t, kMaxLitBits + 1> next = first_index_;
    for (size_t s = 0; s < lengths.size(); ++s) {
      const unsigned l = lengths[s];
      if (l == 0) continue;
      const uint32_t rank = next[l]++;
      sorted_[rank] = static_cast<uint32_t>(s);
      if (l > root_bits) continue;
      // Every root index whose low l bits spell the code (LSB first).
      const uint32_t e = symbol_entry(alphabet, static_cast<uint32_t>(s)) | l;
      const uint32_t rev =
          bit_reverse(first_code_[l] + (rank - first_index_[l]), l);
      for (size_t i = rev; i < root_.size(); i += size_t{1} << l) {
        root_[i] = e;
      }
    }
  }

  // Root-table entry for the stream's next bits (length 0: walk).
  uint32_t lookup(uint64_t bits) const {
    return root_[static_cast<size_t>(bits) & root_mask_];
  }

  // The canonical walk over the next `avail` stream bits, one bit per
  // length as the bit-at-a-time decoder reads them: the symbol's entry,
  // kWalkExhausted where that decoder would run out of input first, or
  // kWalkInvalid where it would find no code within max_bits.
  uint32_t walk(uint64_t bits, unsigned avail) const {
    uint32_t code = 0;
    for (unsigned len = 1; len <= max_bits_; ++len) {
      if (len > avail) return kWalkExhausted;
      code = (code << 1) | static_cast<uint32_t>((bits >> (len - 1)) & 1);
      if (count_[len] != 0 && code - first_code_[len] < count_[len]) {
        const uint32_t sym =
            sorted_[first_index_[len] + (code - first_code_[len])];
        return symbol_entry(alphabet_, sym) | len;
      }
    }
    return kWalkInvalid;
  }

  // The next symbol's entry from the next `avail` stream bits: a root
  // table hit those bits cover, else the walk's result.
  uint32_t entry(uint64_t bits, unsigned avail) const {
    const uint32_t e = lookup(bits);
    if (entry_len(e) != 0 && entry_len(e) <= avail) return e;
    return walk(bits, avail);
  }

  // Decodes and consumes one symbol, throwing what the bit-at-a-time
  // decoder would throw at this point.
  uint32_t decode(LsbBitReader& r) const {
    r.refill();
    const uint32_t e = entry(r.peek(), r.available());
    if (e == kWalkExhausted) r.exhausted();
    if (e == kWalkInvalid) throw_invalid();
    r.consume(entry_len(e));
    return e;
  }

  [[noreturn]] static void throw_invalid() {
    throw CorruptError("corrupt: invalid Huffman code in stream");
  }

 private:
  unsigned max_bits_;
  Alphabet alphabet_;
  uint32_t root_mask_;
  std::array<uint32_t, kMaxLitBits + 1> count_{}, first_code_{},
      first_index_{};
  std::vector<uint32_t> sorted_;
  std::vector<uint32_t> root_;
};

// Root-table widths: most literal/length codes of a dynamic block fit in
// 10 bits and distance codes in 8; code-length codes are at most 7 long.
constexpr unsigned kLitRootBits = 10;
constexpr unsigned kDistRootBits = 8;

// The fixed code's decoders, built once.
struct FixedDecoders {
  CodeDecoder lit, dist;
};

const FixedDecoders& fixed_decoders() {
  static const FixedDecoders d{
      CodeDecoder(fixed_codes().lit_len, kMaxLitBits, Alphabet::kLitLen,
                  kLitRootBits),
      CodeDecoder(fixed_codes().dist_len, kMaxLitBits, Alphabet::kDist,
                  kDistRootBits)};
  return d;
}

// Most output one fast-loop step writes (a literal, then a literal or a
// match), and the room it needs: the match copy stores 8 bytes at a time
// and may run up to 7 bytes past the match end.
constexpr size_t kMatchSlack = 8;
constexpr size_t kMaxStepOut = 1 + kMaxMatch;
constexpr size_t kFastRoom = kMaxStepOut + kMatchSlack;

// One refill leaves at least 56 bits: enough for two literals from the
// root table, or for a length code with its extra bits and a distance
// code with its extra bits, long codes walked.  A step that decodes a
// literal and then finds no second one refills before going on.
static_assert(2 * kLitRootBits <= 56 &&
                  kMaxLitBits + 5 + kMaxLitBits + 13 <= 56,
              "one refill covers a fast-loop step");

// Smallest multiple of each distance below 8 that is at least 8: a
// period-d pattern repeats at that distance too, far enough back for an
// 8-byte load that does not overlap the store.
constexpr uint8_t kWideDist[8] = {0, 8, 8, 9, 8, 10, 12, 14};

// Copies a `len`-byte match from `dist` bytes back to `op` and returns
// the new end.  May store up to kMatchSlack - 1 bytes past it.
uint8_t* copy_match(uint8_t* op, size_t dist, size_t len) {
  uint8_t* const end = op + len;
  const uint8_t* src = op - dist;
  if (dist == 1) {
    const uint64_t splat = 0x0101010101010101ull * *src;
    for (; op < end; op += 8) std::memcpy(op, &splat, 8);
    return end;
  }
  if (dist < 8) {
    // Spell the pattern out bytewise until it reaches back kWideDist,
    // then copy words from that far back.
    const size_t wide = kWideDist[dist];
    for (uint8_t* const seeded = op + (wide - dist); op < seeded;) {
      *op++ = *src++;
    }
    src = op - wide;
  }
  for (; op < end; op += 8, src += 8) std::memcpy(op, src, 8);
  return end;
}

class Inflater {
 public:
  Inflater(BytesView data, Bytes& out, size_t size_hint, size_t max_size)
      : r_(data), out_(out), max_size_(max_size) {
    out_.clear();
    const size_t hint = max_size != 0 ? std::min(size_hint, max_size)
                                      : size_hint;
    ensure_room(std::max(hint, data.size()) + kFastRoom);
  }

  void run() {
    bool final_block = false;
    do {
      final_block = r_.get_bit() != 0;
      const uint64_t btype = r_.get_bits(2);
      if (btype == 0) {
        stored_block();
      } else if (btype == 1) {
        const FixedDecoders& fx = fixed_decoders();
        codes(fx.lit, fx.dist);
      } else if (btype == 2) {
        dynamic_block();
      } else {
        throw CorruptError("corrupt: reserved block type");
      }
    } while (!final_block);
    out_.resize(written_);
  }

 private:
  void stored_block() {
    r_.align_to_byte();
    const uint64_t len = r_.get_bits(16);
    const uint64_t nlen = r_.get_bits(16);
    SZSEC_CHECK_FORMAT((len ^ nlen) == 0xFFFF, "stored block LEN mismatch");
    SZSEC_CHECK_FORMAT(max_size_ == 0 || len <= max_size_ - written_,
                       "inflated output exceeds declared size cap");
    const BytesView raw = r_.get_bytes(static_cast<size_t>(len));
    if (raw.empty()) return;
    ensure_room(raw.size());
    std::memcpy(out_.data() + written_, raw.data(), raw.size());
    written_ += raw.size();
  }

  void dynamic_block() {
    const int nlit = static_cast<int>(r_.get_bits(5)) + 257;
    const int ndist = static_cast<int>(r_.get_bits(5)) + 1;
    const int ncl = static_cast<int>(r_.get_bits(4)) + 4;
    SZSEC_CHECK_FORMAT(nlit <= kNumLitCodes + 2 && ndist <= kNumDistCodes + 2,
                       "bad code counts");
    std::array<uint8_t, kNumClCodes> cl_len{};
    for (int i = 0; i < ncl; ++i) {
      cl_len[kClOrder[i]] = static_cast<uint8_t>(r_.get_bits(3));
    }
    const CodeDecoder cl(cl_len, kMaxClBits, Alphabet::kCodeLength,
                         kMaxClBits);
    std::vector<uint8_t> lengths;
    lengths.reserve(static_cast<size_t>(nlit + ndist));
    while (lengths.size() < static_cast<size_t>(nlit + ndist)) {
      const uint32_t s = entry_value(cl.decode(r_));
      if (s < 16) {
        lengths.push_back(static_cast<uint8_t>(s));
      } else if (s == 16) {
        SZSEC_CHECK_FORMAT(!lengths.empty(), "repeat with no previous");
        const uint8_t prev = lengths.back();
        const uint64_t n = 3 + r_.get_bits(2);
        lengths.insert(lengths.end(), static_cast<size_t>(n), prev);
      } else if (s == 17) {
        const uint64_t n = 3 + r_.get_bits(3);
        lengths.insert(lengths.end(), static_cast<size_t>(n), 0);
      } else {
        const uint64_t n = 11 + r_.get_bits(7);
        lengths.insert(lengths.end(), static_cast<size_t>(n), 0);
      }
    }
    SZSEC_CHECK_FORMAT(lengths.size() == static_cast<size_t>(nlit + ndist),
                       "code length overrun");
    const std::span<const uint8_t> lit_span(lengths.data(),
                                            static_cast<size_t>(nlit));
    const std::span<const uint8_t> dist_span(lengths.data() + nlit,
                                             static_cast<size_t>(ndist));
    const CodeDecoder lit(lit_span, kMaxLitBits, Alphabet::kLitLen,
                          kLitRootBits);
    const CodeDecoder dist(dist_span, kMaxLitBits, Alphabet::kDist,
                           kDistRootBits);
    codes(lit, dist);
  }

  // Decodes one Huffman-coded block's symbols through its end code.
  void codes(const CodeDecoder& lit, const CodeDecoder& dist) {
    while (true) {
      if (r_.wide_input() && fast_allowed()) {
        ensure_room(kFastRoom);
        if (fast_codes(lit, dist)) return;
      }
      if (checked_symbol(lit, dist)) return;
    }
  }

  // No fast-loop step can cross the output cap.
  bool fast_allowed() const {
    return max_size_ == 0 || written_ + kMaxStepOut <= max_size_;
  }

  size_t room() const { return out_.size() - written_; }

  // Grows the output to at least `need` bytes of room, by at least an
  // eighth: resize() zero-fills, so the bytes it sizes are touched, and
  // the small step keeps them close to what is written (the vector's
  // capacity still grows geometrically).  Callers never need room past
  // the cap plus kFastRoom, so a capped decode never sizes much more.
  void ensure_room(size_t need) {
    if (room() >= need) return;
    size_t size = std::max(out_.size() + out_.size() / 8, written_ + need);
    if (max_size_ != 0) {
      size = std::max(std::min(size, max_size_ + kFastRoom), written_ + need);
    }
    out_.resize(size);
  }

  // The fast loop: runs while 8 input bytes and kFastRoom of output room
  // remain and no step can reach the cap; true at the block's end code.
  // Works on local copies of the reader and output cursor, which the
  // byte stores cannot alias.
  bool fast_codes(const CodeDecoder& lit, const CodeDecoder& dist) {
    LsbBitReader r = r_;
    uint8_t* const base = out_.data();
    uint8_t* op = base + written_;
    size_t limit = out_.size() - kFastRoom;
    if (max_size_ != 0) limit = std::min(limit, max_size_ - kMaxStepOut);
    uint8_t* const op_limit = base + limit;
    bool end_of_block = false;
    while (op <= op_limit && r.wide_input()) {
      r.refill_wide();
      uint32_t e = lit.lookup(r.peek());
      if (entry_kind(e) == kLiteral && entry_len(e) != 0) {
        // A literal from the root table leaves room for a second symbol.
        *op++ = static_cast<uint8_t>(entry_value(e));
        r.consume(entry_len(e));
        e = lit.lookup(r.peek());
        if (entry_kind(e) == kLiteral && entry_len(e) != 0) {
          *op++ = static_cast<uint8_t>(entry_value(e));
          r.consume(entry_len(e));
          continue;
        }
        // The next symbol may need a full refill's worth of bits; near
        // the input end, the checked path takes it from here.
        if (!r.wide_input()) break;
        r.refill_wide();
      }
      if (entry_len(e) == 0) {
        e = lit.walk(r.peek(), r.available());
        if (e == kWalkInvalid) CodeDecoder::throw_invalid();
      }
      r.consume(entry_len(e));
      const Kind kind = entry_kind(e);
      if (kind == kLiteral) {
        *op++ = static_cast<uint8_t>(entry_value(e));
        continue;
      }
      if (kind == kEnd) {
        end_of_block = true;
        break;
      }
      SZSEC_CHECK_FORMAT(kind != kBad, "bad length code");
      const size_t len =
          entry_value(e) + (r.peek() & detail::low_mask(entry_extra(e)));
      r.consume(entry_extra(e));
      const uint32_t de = dist.entry(r.peek(), r.available());
      if (de == kWalkInvalid) CodeDecoder::throw_invalid();
      r.consume(entry_len(de));
      SZSEC_CHECK_FORMAT(entry_kind(de) != kBad, "bad distance code");
      const size_t d =
          entry_value(de) + (r.peek() & detail::low_mask(entry_extra(de)));
      r.consume(entry_extra(de));
      SZSEC_CHECK_FORMAT(d <= static_cast<size_t>(op - base),
                         "distance beyond output start");
      op = copy_match(op, d, len);
    }
    r_ = r;
    written_ = static_cast<size_t>(op - base);
    return end_of_block;
  }

  // One symbol (a literal, the end code, or a length/distance pair) with
  // every check of the bit-at-a-time decoder, in its order; true at the
  // block's end code.
  bool checked_symbol(const CodeDecoder& lit, const CodeDecoder& dist) {
    const uint32_t e = lit.decode(r_);
    switch (entry_kind(e)) {
      case kLiteral:
        SZSEC_CHECK_FORMAT(max_size_ == 0 || written_ < max_size_,
                           "inflated output exceeds declared size cap");
        ensure_room(1);
        out_[written_++] = static_cast<uint8_t>(entry_value(e));
        return false;
      case kEnd:
        return true;
      case kBad:
        throw CorruptError("corrupt: bad length code");
      case kCopy:
        break;
    }
    const size_t len = entry_value(e) + r_.get_bits(entry_extra(e));
    const uint32_t de = dist.decode(r_);
    SZSEC_CHECK_FORMAT(entry_kind(de) != kBad, "bad distance code");
    const size_t d = entry_value(de) + r_.get_bits(entry_extra(de));
    SZSEC_CHECK_FORMAT(d <= written_, "distance beyond output start");
    SZSEC_CHECK_FORMAT(max_size_ == 0 || len <= max_size_ - written_,
                       "inflated output exceeds declared size cap");
    ensure_room(len + kMatchSlack);
    uint8_t* const op = out_.data() + written_;
    written_ += static_cast<size_t>(copy_match(op, d, len) - op);
    return false;
  }

  LsbBitReader r_;
  Bytes& out_;
  size_t written_ = 0;
  size_t max_size_;
};

// deflate emits one block per kBlockSize input bytes, so dynamic Huffman
// codes adapt to local statistics (as zlib does).
constexpr size_t kBlockSize = 256 * 1024;

// Bits of `block` coded as literals alone, with the code a dynamic block
// would build from its byte histogram.  Integer arithmetic, so kAuto
// chooses the same level on every platform.
uint64_t literal_only_bits(BytesView block) {
  // Four tables, so a run of one byte value does not chain every
  // increment through one counter.
  std::array<std::array<uint64_t, 256>, 4> counts{};
  const uint8_t* p = block.data();
  const size_t n = block.size();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    ++counts[0][p[i]];
    ++counts[1][p[i + 1]];
    ++counts[2][p[i + 2]];
    ++counts[3][p[i + 3]];
  }
  for (; i < n; ++i) ++counts[0][p[i]];
  std::array<uint64_t, 256>& freq = counts[0];
  for (size_t s = 0; s < freq.size(); ++s) {
    freq[s] += counts[1][s] + counts[2][s] + counts[3][s];
  }
  const std::vector<uint8_t> len = limited_lengths(freq, kMaxLitBits);
  uint64_t bits = 0;
  for (size_t s = 0; s < freq.size(); ++s) bits += freq[s] * len[s];
  return bits;
}

}  // namespace

Level resolve_level(BytesView data, Level level) {
  if (level != Level::kAuto) return level;
  // kAuto stores a payload whose literal-only codes would save less than
  // this share of its size.  Such byte histograms are near flat, as in
  // ciphertext and in the wide Huffman codewords of hard fields, whose
  // bytes repeat too little for LZ77 matches to add much; running the
  // matcher over them costs more than the percent or two it might save.
  constexpr uint64_t kMinSavingPercent = 3;
  uint64_t bits = 0;
  for (size_t off = 0; off < data.size(); off += kBlockSize) {
    bits += literal_only_bits(
        data.subspan(off, std::min(kBlockSize, data.size() - off)));
  }
  return bits * 100 > data.size() * 8 * (100 - kMinSavingPercent)
             ? Level::kStored
             : Level::kDefault;
}

Bytes deflate(BytesView data, Level level) {
  LsbBitWriter w;
  level = resolve_level(data, level);
  if (data.empty() || level == Level::kStored) {
    // 5 header bytes per block of up to 65,535; an empty input is one
    // empty stored final block.
    w.reserve(data.size() + (data.size() / 65535 + 1) * 5);
    emit_stored(w, data, true);
    return w.finish();
  }

  Matcher matcher(data, level);
  std::vector<Token> tokens;
  for (size_t off = 0; off < data.size(); off += kBlockSize) {
    const size_t end = std::min(data.size(), off + kBlockSize);
    tokens.clear();
    matcher.tokenize(off, end, tokens);
    emit_block(w, data.subspan(off, end - off), tokens,
               /*final_block=*/end == data.size());
  }
  return w.finish();
}

Bytes inflate(BytesView data, size_t size_hint, size_t max_size) {
  Bytes out;
  inflate_into(data, out, size_hint, max_size);
  return out;
}

void inflate_into(BytesView data, Bytes& out, size_t size_hint,
                  size_t max_size) {
  Inflater(data, out, size_hint, max_size).run();
}

}  // namespace szsec::zlite
