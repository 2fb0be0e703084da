// v1 slab archives: the chunk codec of archive/chunked.h in the original
// coarse-parallel framing.
//
// A v1 archive splits its field exactly as a v3 archive does (the same
// chunk plan, the same per-chunk IVs, the same containers); only the
// framing differs.  v1 has no resync markers, CRCs, index or seek
// footer, so it has no salvage path and no random access, and damage
// anywhere fails the whole decode.  It stays readable and writable bit
// for bit for archives already in the format.
//
// Layout:
//   magic "SZSA" | u8 version=1 | u8 rank | varint dims[rank]
//   varint slab_count | slab_count x (varint length, container bytes)
#pragma once

#include "archive/chunked.h"

namespace szsec::archive {

inline constexpr uint32_t kSlabMagic = 0x41535A53;  // "SZSA"
inline constexpr uint8_t kSlabVersion = 1;

/// Compresses `data` into a v1 slab archive: compress_chunked's chunk
/// containers (config.chunks slabs on config.threads workers; spool and
/// seek_table do not apply) behind the v1 prelude.
ChunkedCompressResult compress_slabs(std::span<const float> data,
                                     const Dims& dims,
                                     const sz::Params& params,
                                     core::Scheme scheme, BytesView key,
                                     const core::CipherSpec& spec = {},
                                     const ChunkedConfig& config = {},
                                     crypto::CtrDrbg* seed_drbg = nullptr);
ChunkedCompressResult compress_slabs(std::span<const double> data,
                                     const Dims& dims,
                                     const sz::Params& params,
                                     core::Scheme scheme, BytesView key,
                                     const core::CipherSpec& spec = {},
                                     const ChunkedConfig& config = {},
                                     crypto::CtrDrbg* seed_drbg = nullptr);

/// Strict decode of a whole v1 archive: checks the untrusted prelude and
/// slab lengths and that the slabs' rows cover the field, then decodes
/// the slabs on config.threads workers (config.max_in_flight bounds the
/// window, config.metrics receives the stage metrics) and writes the
/// field's raw element bytes to `out` in row order.  Each slab must
/// match the field's rank and plane dims and the element type `expect`,
/// or the first slab's when unset.  Throws CorruptError, or CryptoError
/// for a MAC/cipher rejection.
ChunkedStreamDecodeResult decompress_slabs_to(
    BytesView archive, ByteSink& out, BytesView key,
    const ChunkedConfig& config = {},
    std::optional<sz::DType> expect = std::nullopt);

/// decompress_slabs_to into a field; slabs of the other element type are
/// CorruptError.
std::vector<float> decompress_slabs_f32(BytesView archive, BytesView key,
                                        const ChunkedConfig& config = {});
std::vector<double> decompress_slabs_f64(BytesView archive, BytesView key,
                                         const ChunkedConfig& config = {});

}  // namespace szsec::archive
