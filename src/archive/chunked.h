// Fault-tolerant chunked archives (container format v3).
//
// The single-container pipeline assumes its bytes arrive intact: one
// flipped bit in a CBC block or in the Huffman tree loses the whole
// field.  This module bounds the blast radius of corruption to one
// chunk.  A field is split along its slowest dimension into independent
// chunks, each compressed + encrypted as a self-contained szsec
// container with its own IV, and framed with a resync marker and a
// CRC-32 so damage is detected per chunk and the decoder can skip it.
// The v1 slab archive (archive/slab.h) is the same chunks in another
// framing.
//
// Archive layout (v3):
//   u32 magic "SZS3" | u8 version=3 | u8 rank | varint dims[rank]
//   varint chunk_count
//   index: chunk_count x (varint offset     -- frame start, relative
//                                              to the first frame
//                         varint frame_len
//                         varint row_start | varint row_extent)
//   u32 index_crc   -- CRC-32 of every byte from magic to here
//   frames: chunk_count x
//     u64 resync marker | varint chunk_id
//     varint row_start | varint row_extent
//     varint container_len | u32 container_crc | container bytes
//
// Seek-table footer (optional, ChunkedConfig::seek_table, on by
// default).  Appended AFTER the frames so old readers — which stop at
// the last indexed frame — ignore it as trailing bytes, while a
// seekable reader can locate every chunk with two positioned reads
// (the 8-byte trailer, then the footer) and no prelude scan:
//   footer: u32 magic "SZSK" | u8 version=1 | u8 dtype (0=f32, 1=f64)
//           u8 rank | varint dims[rank]
//           varint chunk_count
//           table: chunk_count x (varint offset     -- ABSOLUTE frame
//                                                      start
//                                 varint frame_len
//                                 varint row_start | varint row_extent
//                                 varint elem_start | varint elem_count)
//           u32 footer_crc  -- CRC-32 of every footer byte up to here
//   trailer: u32 footer_len | u32 trailer magic "KSZS"   (last 8 bytes)
// The element ranges are the chunk's half-open [elem_start,
// elem_start + elem_count) slice of the row-major field; together with
// dims they describe each chunk's hyperslab (rows [row_start,
// row_start + row_extent) across the full plane) for rank-2/3 ROI
// reads.  All fields are untrusted on parse: parse_seek_footer
// cross-checks rows against dims, element ranges against rows x plane,
// offsets against the archive size, and the CRC — a forged footer is
// CorruptError, never an out-of-bounds read (see
// docs/FORMATS.md for the normative byte layout).
//
// Frames are self-describing (id + row range + length + CRC behind a
// fixed 8-byte marker), so the salvage decoder recovers intact chunks
// even when the header/index is destroyed or frame offsets shifted
// (byte insertion/deletion): it rescans the damaged region for the next
// marker.  No plaintext statistics of the field are stored — the mean
// fallback fill is computed from the *recovered* elements, so the
// archive leaks nothing about encrypted content beyond its size.
//
// One implementation: the encoder, the strict decoder and the salvager
// are push-driven machines (archive/chunk_machine.h); the streaming,
// in-memory and sans-io entry points are thin drivers of them.  The two
// salvage drivers differ only in where recovered rows go: the in-memory
// one places them by row in any order and can fill gaps with their
// mean, the streaming one writes them in row order.
//
// Threading model: both directions run chunk-parallel on a
// parallel::ParallelChunkScheduler — bounded in-flight chunks, per-worker
// scratch state, and commits in chunk-index order on the calling thread
// (one worker runs every chunk inline, starting no thread).
// Output is byte-identical for every thread count: per-chunk IVs are
// derived from the chunk index before fan-out, and the archive is
// assembled in index order regardless of completion order.
#pragma once

#include <optional>
#include <string>

#include "common/io.h"
#include "common/timer.h"
#include "core/codec.h"

namespace szsec::archive {

inline constexpr uint32_t kChunkedMagic = 0x33535A53;  // "SZS3"
inline constexpr uint8_t kChunkedVersion = 3;
/// Resync marker preceding every chunk frame ("SZ!RSYNC" backwards in
/// memory: chosen once, never a valid container prefix).
inline constexpr uint64_t kResyncMarker = 0x434E595352215A53ull;

/// Seek-table footer framing (see the file comment for the layout).
inline constexpr uint32_t kSeekFooterMagic = 0x4B535A53;   // "SZSK"
inline constexpr uint8_t kSeekFooterVersion = 1;
inline constexpr uint32_t kSeekTrailerMagic = 0x535A534B;  // "KSZS"
/// Fixed trailer: u32 footer_len | u32 kSeekTrailerMagic.
inline constexpr size_t kSeekTrailerSize = 2 * sizeof(uint32_t);

struct ChunkedConfig {
  /// Worker threads for compression / strict decompression
  /// (0 = parallel::default_thread_count(), honoring SZSEC_THREADS).
  unsigned threads = 0;
  /// Number of chunks (0 = 2x threads, capped by the slowest extent).
  /// NOTE: for reproducible bytes across machines/thread counts, pin
  /// this explicitly — the default is derived from `threads`.
  size_t chunks = 0;
  /// Backpressure window: chunks submitted but not yet committed
  /// (0 = 2x threads).  Bounds peak memory for huge archives.
  size_t max_in_flight = 0;
  /// Optional sink receiving the per-stage PipelineMetrics aggregated
  /// across all chunks and workers of a decode (compression reports its
  /// metrics in ChunkedCompressResult::times instead).  Not owned.
  PipelineMetrics* metrics = nullptr;
  /// Frame staging for the streaming compressor.  The v3 index (which
  /// carries every frame length) precedes the frames, so frames must be
  /// buffered until the last chunk commits; kTempFile spools them
  /// through an unlinked temporary file so RSS stays bounded by the
  /// in-flight window, kMemory keeps them in RAM (what the in-memory
  /// compress_chunked wrappers use).  The choice never changes the
  /// emitted bytes.
  FrameSpool::Backing spool = FrameSpool::Backing::kTempFile;
  /// Append the seek-table footer (random-access metadata for
  /// SeekableReader).  On by default; old readers ignore the footer as
  /// trailing bytes, so it costs a few dozen bytes per chunk and
  /// nothing else.  Turn off to reproduce pre-footer archive bytes
  /// exactly (the golden-container suite pins both variants).
  bool seek_table = true;
};

struct ChunkedCompressResult {
  Bytes archive;
  size_t chunk_count = 0;
  /// Aggregate stats (sums over chunks; predictable_fraction weighted).
  core::CompressStats stats;
  /// Per-stage time + byte-flow metrics summed over every chunk (all
  /// workers), merged deterministically in chunk-index order.
  PipelineMetrics times;
};

/// Compresses `data` into a fault-tolerant chunked archive.  Parameters
/// mirror core::SecureCompressor; every chunk gets its own IV from
/// `seed_drbg` (or the global DRBG).
ChunkedCompressResult compress_chunked(std::span<const float> data,
                                       const Dims& dims,
                                       const sz::Params& params,
                                       core::Scheme scheme, BytesView key,
                                       const core::CipherSpec& spec = {},
                                       const ChunkedConfig& config = {},
                                       crypto::CtrDrbg* seed_drbg = nullptr);
ChunkedCompressResult compress_chunked(std::span<const double> data,
                                       const Dims& dims,
                                       const sz::Params& params,
                                       core::Scheme scheme, BytesView key,
                                       const core::CipherSpec& spec = {},
                                       const ChunkedConfig& config = {},
                                       crypto::CtrDrbg* seed_drbg = nullptr);

/// Outcome of one streaming compression.  The archive bytes live in the
/// caller's sink; everything else mirrors ChunkedCompressResult.
struct ChunkedStreamResult {
  size_t chunk_count = 0;
  uint64_t archive_bytes = 0;  ///< total bytes written to the sink
  core::CompressStats stats;
  PipelineMetrics times;
};

/// Streaming compress: reads raw little-endian element bytes (row-major,
/// dims.count() elements of `dtype`) from `in` straight into the
/// encoder's chunk buffers and writes the finished v3 archive to `out`,
/// holding at most the scheduler's in-flight window of chunks in
/// memory — peak RSS is O(chunk_size x max_in_flight) however large the
/// field is (frames are
/// staged in a FrameSpool until the index can be written; see
/// ChunkedConfig::spool).  The emitted bytes are identical to
/// compress_chunked on the same elements, for every thread count.
/// Throws IoError when `in` ends before dims.count() elements arrived.
ChunkedStreamResult compress_chunked_stream(
    ByteSource& in, ByteSink& out, sz::DType dtype, const Dims& dims,
    const sz::Params& params, core::Scheme scheme, BytesView key,
    const core::CipherSpec& spec = {}, const ChunkedConfig& config = {},
    crypto::CtrDrbg* seed_drbg = nullptr);

/// Strict decode: requires every chunk intact; throws CorruptError on any
/// damage (the fail-fast path for callers who cannot accept data loss).
/// Feeds `archive` through the same machine as decompress_chunked_stream;
/// chunks of the other element type are CorruptError.
std::vector<float> decompress_chunked_f32(BytesView archive, BytesView key,
                                          const ChunkedConfig& config = {});
std::vector<double> decompress_chunked_f64(BytesView archive, BytesView key,
                                           const ChunkedConfig& config = {});

/// Outcome of one streaming decode.
struct ChunkedStreamDecodeResult {
  Dims dims;
  sz::DType dtype = sz::DType::kFloat32;
  uint64_t elements = 0;       ///< elements written to the sink
  uint64_t element_bytes = 0;  ///< bytes written (elements x dtype size)
  size_t chunk_count = 0;      ///< chunks in the archive's index
};

/// Streaming strict decode: reads a v3 archive from `in` frame by frame
/// (tolerating arbitrarily short reads — a 1-byte dribble works; bytes
/// after the last indexed frame are never read) and writes the
/// reconstructed field to `out` as raw little-endian element bytes in
/// chunk-index order.  dtype-agnostic: the element type comes from the
/// chunks themselves and is reported in the result; mixed dtypes are
/// CorruptError.  Memory is bounded by the in-flight window, never by
/// field or archive size.  Throws exactly where decompress_chunked_f32/
/// f64 would (CorruptError on any damage).
ChunkedStreamDecodeResult decompress_chunked_stream(
    ByteSource& in, ByteSink& out, BytesView key,
    const ChunkedConfig& config = {});

/// Reads the archive's field dims without decompressing (strict parse).
Dims chunked_dims(BytesView archive);

/// One index entry, with `offset` made absolute (from archive start).
struct ChunkEntry {
  uint64_t offset = 0;     ///< frame start, absolute byte offset
  uint64_t frame_len = 0;  ///< whole frame, marker included
  uint64_t row_start = 0;  ///< slowest-dim start
  uint64_t row_extent = 0;
};

/// Strictly parsed archive prelude; `body_start` is the offset of the
/// first frame.  Throws CorruptError on any inconsistency (including an
/// index CRC mismatch).  Used by tooling and the fault-injection harness
/// to locate chunk boundaries.
struct ChunkIndex {
  Dims dims;
  size_t body_start = 0;
  std::vector<ChunkEntry> entries;
};
ChunkIndex read_chunk_index(BytesView archive);

/// One seek-table entry: where chunk i's frame lives and which slice of
/// the row-major field it reconstructs.  All offsets absolute.
struct SeekEntry {
  uint64_t offset = 0;      ///< frame start (marker byte 0)
  uint64_t frame_len = 0;   ///< whole frame, marker included
  uint64_t row_start = 0;   ///< slowest-dim start
  uint64_t row_extent = 0;  ///< slowest-dim extent (chunk hyperslab)
  uint64_t elem_start = 0;  ///< first element (row_start x plane)
  uint64_t elem_count = 0;  ///< elements (row_extent x plane)
};

/// Random-access metadata for a chunked archive: per-chunk byte spans
/// and element ranges, either read from the seek-table footer (two
/// positioned reads, no prelude scan) or derived from the prelude index
/// of a footer-less archive.
struct SeekTable {
  Dims dims;
  /// Element type, known only when the footer carried it; a table
  /// derived from the prelude index leaves it empty (the index predates
  /// the footer and stores no dtype) — readers learn it from the first
  /// chunk's container header instead.
  std::optional<sz::DType> dtype;
  bool from_footer = false;
  size_t plane = 0;  ///< elements per slowest-dim index
  std::vector<SeekEntry> entries;
};

/// Parses the fixed 8-byte trailer (the archive's LAST kSeekTrailerSize
/// bytes).  nullopt when the trailer magic is absent — a footer-less
/// archive, not an error.  When the magic IS present, an impossible
/// footer length (longer than the bytes in front of the trailer) is
/// CorruptError: the footer existed and was damaged or forged.
std::optional<uint64_t> parse_seek_trailer(BytesView trailer,
                                           uint64_t archive_size);

/// Strictly parses the footer bytes (magic through footer_crc; the
/// trailer excluded) of an archive `archive_size` bytes long.  Every
/// field is untrusted: rows must densely cover dims[0], element ranges
/// must equal rows x plane (a forged overlap/gap/overflow dies here),
/// frame spans must stay inside the frame region, and the CRC must
/// match.  Throws CorruptError on any inconsistency.
SeekTable parse_seek_footer(BytesView footer, uint64_t archive_size);

/// Derives a SeekTable from a strictly parsed prelude index (the
/// backward-compatible path for pre-footer archives).
SeekTable seek_table_from_index(const ChunkIndex& index);

/// In-memory convenience: the archive's SeekTable — from the footer
/// when the trailer signature is present (strict parse; a damaged or
/// forged footer throws CorruptError rather than silently degrading),
/// else derived from read_chunk_index.
SeekTable read_seek_table(BytesView archive);

/// Bytes occupied at the END of `archive` by a structurally plausible
/// seek-table footer + trailer (trailer magic, in-bounds footer length,
/// footer magic + version at the computed start), or 0 when absent.
/// Deliberately NOT a full parse — never throws — so the salvage path
/// can exclude the footer from damage accounting even when dropped or
/// shifted frames have invalidated the footer's offsets.  The frame
/// region of an archive therefore ends at
/// `archive.size() - seek_footer_suffix_bytes(archive)`.
uint64_t seek_footer_suffix_bytes(BytesView archive) noexcept;

/// A frame located in (possibly damaged) archive bytes.  `crc_ok` is the
/// only integrity statement; the field values are sanity-capped but
/// otherwise untrusted until cross-checked against the index or the
/// chunk's own container header.
struct FrameInfo {
  uint64_t chunk_id = 0;
  uint64_t row_start = 0;
  uint64_t row_extent = 0;
  size_t offset = 0;     ///< absolute frame start (marker byte 0)
  size_t frame_len = 0;  ///< marker..container end
  BytesView container;   ///< borrows from the archive bytes
  bool crc_ok = false;
};

/// Parses the frame whose resync marker starts at `pos`; nullopt when
/// the bytes there do not form a plausible frame (truncated, absurd
/// fields).  Shared by the strict decoder, SeekableReader and
/// verify_archive, and the salvage scan reads frame heads through the
/// same head parser, so "what counts as a frame" is defined exactly
/// once.
std::optional<FrameInfo> parse_frame(BytesView archive, size_t pos);

/// What happened to one chunk during salvage.
enum class ChunkStatus : uint8_t {
  kOk,         ///< decoded at its indexed position, CRC verified
  kRelocated,  ///< decoded after a resync scan (index lost or offsets
               ///< shifted by insertion/deletion/reordering)
  kCorrupt,    ///< frame located but CRC/decode failed
  kMissing,    ///< no frame for this chunk found anywhere
};

const char* to_string(ChunkStatus s);

struct ChunkReport {
  uint64_t chunk_id = 0;
  ChunkStatus status = ChunkStatus::kMissing;
  uint64_t row_start = 0;
  uint64_t row_extent = 0;
  uint64_t frame_bytes = 0;  ///< 0 when missing
  std::string detail;        ///< failure reason, empty when kOk
};

/// Structured outcome of a salvage decode.
struct SalvageReport {
  bool index_intact = false;    ///< prelude + index CRC verified
  uint64_t chunks_expected = 0; ///< from the index, or distinct frames seen
  uint64_t chunks_recovered = 0;
  uint64_t bytes_skipped = 0;   ///< archive bytes not part of a recovered
                                ///< frame (or the intact prelude)
  uint64_t elements_total = 0;
  uint64_t elements_recovered = 0;
  std::vector<ChunkReport> chunks;  ///< one per expected chunk, id order

  bool complete() const { return chunks_recovered == chunks_expected; }
  double recovered_fraction() const {
    return elements_total == 0
               ? 0.0
               : static_cast<double>(elements_recovered) / elements_total;
  }
};

/// Value written into regions whose chunk could not be recovered.
enum class FallbackFill : uint8_t {
  kZeros,
  kNaN,
  kMean,  ///< mean of the elements that *were* recovered (0 if none);
          ///< computed at decode time so nothing plaintext is archived
};

struct SalvageOptions {
  FallbackFill fill = FallbackFill::kMean;
  /// Worker threads decoding claimed chunks, in memory and streaming
  /// alike (0 = default count).  A worker hitting a corrupt chunk
  /// reports it in the SalvageReport and never aborts the run.  Output
  /// and report are identical for every thread count.
  unsigned threads = 0;
};

struct SalvageResult {
  Dims dims;  ///< rank 0 when nothing was recoverable
  /// Element type of the populated vector: f32 for decompress_salvage,
  /// f64 for decompress_salvage_f64.
  sz::DType dtype = sz::DType::kFloat32;
  std::vector<float> f32;   ///< dims.count() elements (empty if rank 0)
  std::vector<double> f64;  ///< populated by decompress_salvage_f64
  SalvageReport report;
};

/// Best-effort decode: recovers every intact chunk from a truncated,
/// bit-flipped, reordered, or chunk-dropped archive and fills lost
/// regions per `opts.fill`.  Never throws on corrupt input — damage is
/// reported in `SalvageResult::report`; an archive with nothing
/// recoverable (not even field dims) yields an empty result.  Throws
/// Error only for caller mistakes (e.g. missing key for an encrypted
/// chunk is reported per chunk, not thrown).
///
/// The recovery rules, shared with salvage_chunked_stream:
///   * one forward scan finds CRC-valid frames behind resync markers.
///     With an intact (CRC-verified) index a frame may only stand in
///     for the chunk id it claims, at that id's indexed rows; without
///     one, plane dims come from the first decoded chunk and the
///     slowest extent from row coverage;
///   * the first CRC-valid frame of a chunk id in archive order claims
///     it, and later ones are skipped — so of two different valid frames
///     that claim one id, the earlier wins.  A recovered chunk is kOk
///     only when its frame sits at its indexed offset, else kRelocated;
///   * with an intact index each entry's own offset is checked: an
///     unrecovered chunk is kCorrupt when its claimed frame failed to
///     decode or a damaged frame sat at its offset, and kMissing when
///     nothing did — the offset held another chunk's valid frame, lay at
///     or past the end of the input, or reached the end of the frame
///     region (the seek footer's magic, or the end the driver knows);
///   * rows are claimed first-come in archive order: a frame whose rows
///     overlap rows already recovered is reported corrupt;
///   * bytes_skipped counts the input bytes that are neither a recovered
///     frame, the intact prelude nor, in memory, the seek footer (with
///     nothing recovered and no index: every byte).  A claimed
///     container longer than 2 GiB is a marker false positive unless the
///     intact index vouches for it at its offset, and a prelude longer
///     than 16 MiB is treated as damaged, so memory stays bounded.
SalvageResult decompress_salvage(BytesView archive, BytesView key,
                                 const SalvageOptions& opts = {});

/// decompress_salvage for float64 archives; chunks holding float32 are
/// reported corrupt (dtype mismatch), mirroring the f32 path's handling
/// of float64 chunks.
SalvageResult decompress_salvage_f64(BytesView archive, BytesView key,
                                     const SalvageOptions& opts = {});

/// Outcome of one streaming salvage.  The recovered field bytes live in
/// the caller's sink; `report` mirrors SalvageResult::report.
struct ChunkedStreamSalvageResult {
  Dims dims;  ///< rank 0 when nothing was recoverable
  sz::DType dtype = sz::DType::kFloat32;
  SalvageReport report;
};

/// Single-pass, bounded-memory salvage of a damaged v3 archive arriving
/// as a stream, by decompress_salvage's rules (the same machine): a
/// sliding window holds at most one frame plus scan slack, claimed
/// chunks decode on opts.threads workers within the in-flight window,
/// and recovered rows go to `out` in row order, each gap filled with
/// `opts.fill` as it is reached.  What a stream cannot do: a frame whose
/// rows precede rows already written is reported corrupt, never
/// re-ordered; FallbackFill::kMean is rejected with Error (the mean of
/// the recovered rows is known only after the last of them was written
/// — use kZeros or kNaN); the seek footer cannot be told from damage,
/// so its bytes count as skipped; and with no chunk recovered the
/// element type is unknown, so nothing is written.  Where the frames are
/// in row order, the bytes and report otherwise equal
/// decompress_salvage's.  Never throws on corrupt input.
ChunkedStreamSalvageResult salvage_chunked_stream(
    ByteSource& in, ByteSink& out, BytesView key,
    const SalvageOptions& opts = {});

}  // namespace szsec::archive
