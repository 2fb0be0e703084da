// Canonical Huffman coding over an arbitrary uint32 symbol alphabet.
//
// This is SZ's stage-3 variable-length encoder.  The serialized code table
// (colloquially "the Huffman tree" — it fully determines the tree) is the
// exact byte blob that the paper's Encr-Huffman scheme encrypts: without
// it, recovering the quantization bins from the codeword stream is NP-hard
// (Gillman et al., "On breaking a Huffman code").
//
// Codes are canonical: lengths come from a package-style Huffman build
// (with automatic frequency scaling to respect kMaxCodeLength), and
// codewords are assigned in (length, symbol) order.  Only the lengths are
// serialized, keeping the table small — the paper's Figure 4 observes the
// tree stays below ~4.5% of the quantization array, which this format
// preserves.
//
// A quantization array uses a few hundred to a few thousand of its 65,536
// bins, so tables are kept sparse: histogram, build, table write, table
// parse and the decoder's canonical tables all take time in the number of
// used symbols, not in the alphabet.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bitstream.h"
#include "common/bytestream.h"

namespace szsec::huffman {

/// Upper bound on codeword length; frequencies are rescaled if the
/// unrestricted Huffman tree would exceed it.
inline constexpr unsigned kMaxCodeLength = 32;

/// Largest alphabet a serialized table may declare.
inline constexpr uint64_t kMaxAlphabet = uint64_t{1} << 28;

/// Width of the root probe table used by the fast decoder: each lookup
/// indexes with the next kDecodeTableBits stream bits and yields every
/// whole codeword inside that window (up to kMaxSymbolsPerProbe).  How
/// many that is depends on the field: on a smooth field at a loose bound
/// codewords are 2-5 bits and one probe resolves 2-3 symbols, while a
/// turbulent chunk at a tight bound (the hard chunk of bench_kernels)
/// averages 7.0 bits, one symbol a probe, and 9.2% of its codewords are
/// longer than the window and take a second-level table.
inline constexpr unsigned kDecodeTableBits = 11;

/// Most symbols a single probe-table entry can carry.
inline constexpr unsigned kMaxSymbolsPerProbe = 3;

/// Widest second-level table: codewords of up to kDecodeTableBits +
/// kMaxSubTableBits bits decode in two lookups, longer ones by the exact
/// walk.
inline constexpr unsigned kMaxSubTableBits = 7;

/// decode() falls back to decode_tree_walk() below this symbol count,
/// where building the decode tables costs more than they save.  The
/// smallest power of two at which the tables beat the walk on both narrow
/// (sigma 2.5) and wide (sigma 40) quantization codes; the two break even
/// at 320 to 384 symbols.  On small fields' own codes (1,000 to 3,375
/// symbols, 50 to 497 used bins) the tables take 0.3 to 0.8 of the walk's
/// time (docs/PERFORMANCE.md, "Stage-3 decode").
inline constexpr size_t kProbeDecodeMinSymbols = 512;

/// Canonical code table over the symbols 0 .. alphabet - 1.  Only the used
/// symbols are stored: symbols[i] has code length lengths[i] (1 ..
/// kMaxCodeLength) and codeword codes[i], and symbols is ascending.
struct CodeTable {
  /// Alphabet size: the first varint of the serialized table.
  uint64_t alphabet = 0;
  /// The used symbols, ascending.
  std::vector<uint32_t> symbols;
  /// Code length of each used symbol.
  std::vector<uint8_t> lengths;
  /// Canonical codeword of each used symbol, in its low lengths[i] bits.
  std::vector<uint32_t> codes;

  /// Number of symbols in the alphabet, used or not.
  uint64_t alphabet_size() const { return alphabet; }

  /// Number of symbols with a code.
  size_t used_symbols() const { return symbols.size(); }

  /// Table for per-symbol lengths over the alphabet 0 .. lengths.size() -
  /// 1, where lengths[s] == 0 means symbol s never occurs.  Throws
  /// CorruptError on a length over kMaxCodeLength or a Kraft-violating set.
  static CodeTable from_lengths(const std::vector<uint8_t>& lengths);
};

/// Symbol counts of a stream, kept sparse.
struct Histogram {
  /// Alphabet size: one more than the largest counted symbol.
  uint64_t alphabet = 0;
  /// The symbols that occur, ascending.
  std::vector<uint32_t> symbols;
  /// How often each of them occurs; every count is nonzero.
  std::vector<uint64_t> counts;
};

/// Counts the symbols of `stream` over the alphabet 0 .. max(stream).
Histogram count_symbols(std::span<const uint32_t> stream);

/// Builds optimal (length-limited) code lengths from symbol counts.  The
/// counts must sum to less than 2^64.
CodeTable build_code_table(const Histogram& histogram);

/// The same, from dense frequencies: frequencies[s] is the count of
/// symbol s over the alphabet 0 .. frequencies.size() - 1.
CodeTable build_code_table(std::span<const uint64_t> frequencies);

/// Serializes a code table to the compact blob Encr-Huffman encrypts.
/// Format: varint alphabet size, then (u8 length, varint run) pairs
/// covering the alphabet; docs/FORMATS.md lists the decoder's rules.
Bytes serialize_table(const CodeTable& table);

/// Inverse of serialize_table for a table that codes `symbol_count`
/// symbols.  Throws CorruptError on malformed input, and on a table with
/// more used symbols than `symbol_count` (which the encoder never writes)
/// before storing them.
CodeTable deserialize_table(BytesView blob, uint64_t symbol_count);

/// Encodes `symbols` with `table`; returns MSB-first packed bits.
/// Every symbol must have a nonzero code length.
Bytes encode(const CodeTable& table, std::span<const uint32_t> symbols);

/// Decodes exactly `count` symbols from `bits`.
/// Throws CorruptError if the stream is exhausted or hits a dead branch.
///
/// Streams of kProbeDecodeMinSymbols or more take a two-level table
/// decoder over a 64-bit accumulator: the root probe table
/// (kDecodeTableBits wide) resolves up to kMaxSymbolsPerProbe whole
/// codewords a lookup, and a second-level table under each root prefix
/// that longer codewords share resolves one codeword of up to
/// kDecodeTableBits + kMaxSubTableBits bits.  Longer codewords, bits no
/// codeword covers (an incomplete code) and the stream tail take the
/// exact canonical walk.  Output and error behavior are identical to
/// decode_tree_walk() on every input.
std::vector<uint32_t> decode(const CodeTable& table, BytesView bits,
                             size_t count);

/// Reference decoder: bit-by-bit canonical walk, no probe table.  Always
/// available; decode() must match it byte-for-byte (asserted by
/// tests/kernel_dispatch_test.cpp and the golden-container pins).
std::vector<uint32_t> decode_tree_walk(const CodeTable& table, BytesView bits,
                                       size_t count);

/// Exact encoded size in bits for `symbols` under `table` (no encoding).
size_t encoded_bits(const CodeTable& table, std::span<const uint32_t> symbols);

}  // namespace szsec::huffman
