// Shared fuzz-replay entry points: one function per attack surface,
// called both by the libFuzzer harnesses under fuzz/ and by the
// corpus-replay test that walks tests/corpus/ on every plain ctest run.
// Keeping the bodies here (rather than in each harness) guarantees the
// corpus is replayed through *exactly* the code path the fuzzer
// explored when it minimized the entry.
//
// Contract for every replay_* function: arbitrary input bytes either
// decode successfully or raise szsec::Error — no crash, no hang, no
// out-of-bounds access (the sanitize tier runs these under ASan/UBSan).
#pragma once

#include <string>

#include "common/bytestream.h"

namespace szsec::testing {

/// Deterministic key of `n` bytes shared by the harnesses and the
/// seed-corpus generator, so checked-in corpus entries decrypt and the
/// fuzzers reach past the cipher into the deep decode path.
Bytes replay_key(size_t n);

/// Arbitrary bytes into the v2 container decoder (header peek, then a
/// full decode keyed per the header's cipher kind).
void replay_decode(BytesView input);

/// Framed input ([count u16][tree_len u16][tree][codewords]) into the
/// canonical-Huffman table deserializer and symbol decoder, differentially
/// against the reference parser and decoder
/// (src/testing/reference_coders.h): both must return the same symbols or
/// throw the same exception type and message.  The reference is skipped
/// where the library's used-symbol bound fired (the one check it lacks)
/// and for alphabets over 2^20.
void replay_huffman(BytesView input);

/// Arbitrary bytes into the DEFLATE decoder, differentially against the
/// reference inflater (src/testing/reference_coders.h): both must return
/// the same bytes or throw the same exception type and message.  A
/// successful inflate must additionally survive a deflate/inflate round
/// trip bit-identically.
void replay_zlite(BytesView input);

/// Arbitrary bytes into the v3 chunked-archive surfaces: strict index
/// parse, strict f32/f64 decode, and salvage decode.
void replay_chunked(BytesView input);

/// Drives a sans-io Context through a fuzzer-chosen schedule.  Byte 0
/// picks the run: bit 0 the direction (0 encode, 1 decode), bits 1-2 the
/// container (0 v2, 1 v3, 2 v1, 3 v3), bit 3 salvage decode (v3 only),
/// bit 4 a mutation, bit 5 two codec threads.  With bit 4 set, three
/// bytes follow: an XOR mask (0 truncates instead) and a little-endian
/// u16 position, both applied to the Context's input (a fixed small
/// field, or its archive).  The remaining bytes pair up as (feed, pull)
/// size codes: a code below 128 is that many bytes, any other is
/// 1 << (code & 15); the pairs cycle, with zeros read as 1 after the
/// first pass.  Oracle: intact input gives exactly the one-shot bytes;
/// mutated input gives those bytes or a typed szsec::Error (a truncated
/// encode must fail).  A crash, hang, untyped exception, StateError, or a
/// machine that wants input after finish() aborts.
void replay_sansio(BytesView input);

/// Dispatches to the replay function for a corpus family name
/// ("decode", "huffman", "zlite", "chunked", "sansio"); unknown names
/// run the input through every surface.
void replay_family(const std::string& family, BytesView input);

}  // namespace szsec::testing
