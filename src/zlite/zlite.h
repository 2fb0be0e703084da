// zlite: a from-scratch DEFLATE-style (RFC 1951) lossless codec.
//
// This is the substitute for the Zlib pass SZ-1.4 runs as its fourth stage.
// It matters for the paper's results in two ways:
//  * Encr-Quant encrypts the Huffman-coded quantization array *before* this
//    pass; the resulting near-8-bit/byte entropy makes LZ77 find no matches
//    and the dynamic Huffman stage gain nothing, collapsing the compression
//    ratio — exactly the paper's Figure 5 effect.
//  * Encr-Huffman randomizes only the small tree blob, which costs the
//    lossless pass almost nothing (Figure 5) and even saves match-search
//    time on those bytes (Table V's sub-100% overheads).
//
// The format is bit-compatible in spirit with DEFLATE: stored / fixed /
// dynamic blocks, 32 KiB window, match lengths 3..258, LSB-first bits.
#pragma once

#include "common/bytestream.h"

namespace szsec::zlite {

/// Compression effort.
enum class Level : int {
  kStored = 0,   ///< no compression (stored blocks only)
  kFast = 1,     ///< greedy matching
  kDefault = 2,  ///< lazy matching (one-byte lookahead)
  /// kStored or kDefault, chosen per input by resolve_level().  Never
  /// written to a container: the header records the level applied.
  kAuto = 3
};

/// The level deflate() applies for `level`: `level` itself unless it is
/// kAuto.  kAuto estimates the size of `data` coded as literals alone,
/// each block deflate would emit with a Huffman code built from that
/// block's byte histogram, and becomes kStored when that saves under 3%
/// (ciphertext, the wide Huffman codewords of hard fields), else
/// kDefault.  Depends only on `data`'s bytes.
Level resolve_level(BytesView data, Level level);

/// Compresses `data` at resolve_level(data, level).  Always succeeds;
/// incompressible input grows by a few bytes per 64 KiB block at most.
Bytes deflate(BytesView data, Level level = Level::kDefault);

/// Decompresses a zlite stream.  Throws CorruptError on malformed input.
/// `size_hint` (optional) preallocates the output buffer.  `max_size`
/// (0 = unlimited) caps the output: a stream that would inflate past it
/// throws CorruptError instead of allocating unboundedly, which is the
/// decompression-bomb guard for decoders that know a plausible output
/// size up front (the szsec container does — see SecureCompressor).
Bytes inflate(BytesView data, size_t size_hint = 0, size_t max_size = 0);

/// inflate() into a caller-owned buffer: `out` is cleared and filled,
/// reusing its existing capacity.  Lets pooled scratch buffers (see
/// common/bufpool.h) absorb the per-chunk allocation of archive decode
/// paths.
void inflate_into(BytesView data, Bytes& out, size_t size_hint = 0,
                  size_t max_size = 0);

}  // namespace szsec::zlite
