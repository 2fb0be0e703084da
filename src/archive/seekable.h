// Random access into chunked archives without a full decode.
//
// A v3 archive is a sequence of independently coded chunks — each its
// own szsec container with its own CTR/CBC IV — so decryption can start
// at any chunk boundary.  SeekableReader exploits that: it parses the
// seek table once at open (two positioned reads when the archive
// carries the seek-table footer, a bounded prelude read otherwise) and
// then serves element ranges and rank-2/3/4 hyperslab ROIs by decoding
// ONLY the chunks the request touches, straight out of a positioned-
// read ByteSource.  The archive is never materialized: a range covering
// one chunk of a terabyte archive reads one frame plus the table.
//
//   * read_range(lo, hi, out): the half-open element slice [lo, hi) of
//     the row-major field.  A chunk fully inside the request decodes
//     directly into the caller's span (the codec's into-span path — no
//     per-chunk temporary); boundary chunks decode into per-worker
//     scratch and copy the overlap.
//   * read_roi(origin, extent, out): the axis-aligned hyperslab
//     origin[i] <= x_i < origin[i] + extent[i], gathered row by row
//     through the chunk structure (chunks split the slowest dim only,
//     so a ROI touches exactly the chunks its slowest-dim range
//     intersects).
//
// Requests run on a ParallelChunkScheduler sized to min(threads, chunks
// touched), with in-order commits: a single-chunk request decodes
// inline on the calling thread (no pool spin-up on the latency path)
// with the reader's own cached key schedule.  Every frame is validated
// against the seek table (id, rows, length, CRC) before its container
// is decoded, and decode failures — wrong key included — surface as
// typed errors (CorruptError/CryptoError), never as partial output.
//
// Sources that cannot seek (pipes) fail at open with the I/O layer's
// typed IoError (ESPIPE): random access over a stream is a caller
// error, not something to silently buffer around.
#pragma once

#include <memory>
#include <string>

#include "archive/chunked.h"

namespace szsec::archive {

struct WorkerState;

/// Opaque random-access handle over one chunked archive.  Open it from
/// a path, a borrowed FILE*, borrowed memory, or any seekable
/// ByteSource; then issue any number of range/ROI reads (serially —
/// the reader itself is not thread-safe, but each read parallelizes
/// internally).
struct SeekableOptions {
  /// Worker threads for multi-chunk requests
  /// (0 = parallel::default_thread_count(), honoring SZSEC_THREADS).
  unsigned threads = 0;
  /// Backpressure window, as ChunkedConfig::max_in_flight.
  size_t max_in_flight = 0;
};

class SeekableReader {
 public:
  using Options = SeekableOptions;

  /// Opens an archive over any positioned-read source (takes
  /// ownership).  Parses the seek-table footer when present, else
  /// falls back to the prelude index (footer-less archives).  Throws
  /// IoError (ESPIPE) when the source cannot seek, CorruptError when
  /// the table — footer or prelude — is damaged or forged.
  static std::unique_ptr<SeekableReader> open(
      std::unique_ptr<ByteSource> src, BytesView key,
      const Options& options = {});

  /// Opens the archive file at `path` (positioned reads, no mapping).
  static std::unique_ptr<SeekableReader> open(const std::string& path,
                                              BytesView key,
                                              const Options& options = {});

  /// Opens over a borrowed open stream (not closed; must outlive the
  /// reader and not be read through concurrently).
  static std::unique_ptr<SeekableReader> open(std::FILE* file,
                                              BytesView key,
                                              const Options& options = {});

  /// Opens over borrowed archive bytes (must outlive the reader).
  static std::unique_ptr<SeekableReader> open(BytesView archive,
                                              BytesView key,
                                              const Options& options = {});

  ~SeekableReader();
  SeekableReader(const SeekableReader&) = delete;
  SeekableReader& operator=(const SeekableReader&) = delete;

  const Dims& dims() const { return table_.dims; }
  /// Element type of the field (from the footer, or peeked from the
  /// first chunk's container header on the fallback path).
  sz::DType dtype() const { return dtype_; }
  size_t chunk_count() const { return table_.entries.size(); }
  /// True when the archive carried the seek-table footer (open cost:
  /// two positioned reads instead of a prelude parse).
  bool from_footer() const { return table_.from_footer; }
  uint64_t elements() const { return table_.dims.count(); }
  uint64_t archive_size() const { return archive_size_; }
  /// The parsed per-chunk table (offsets, lengths, element ranges).
  const SeekTable& table() const { return table_; }

  /// Archive bytes actually fetched from the source so far — table,
  /// probes, and every frame read; the touched-bytes metric
  /// bench_seekable gates on.
  uint64_t bytes_read() const { return bytes_read_; }

  /// Decodes the half-open element range [elem_lo, elem_hi) of the
  /// row-major field into `out` (out.size() must equal the range
  /// length).  Throws Error on a bad range or dtype mismatch,
  /// CorruptError/CryptoError when a touched chunk is damaged or the
  /// key is wrong.
  void read_range(uint64_t elem_lo, uint64_t elem_hi,
                  std::span<float> out);
  void read_range(uint64_t elem_lo, uint64_t elem_hi,
                  std::span<double> out);

  /// Decodes the axis-aligned hyperslab origin[i] <= x_i <
  /// origin[i] + extent[i] into `out` in row-major ROI order
  /// (out.size() must equal the extent product).  origin/extent must
  /// have exactly dims().rank() entries.
  void read_roi(std::span<const size_t> origin,
                std::span<const size_t> extent, std::span<float> out);
  void read_roi(std::span<const size_t> origin,
                std::span<const size_t> extent, std::span<double> out);

 private:
  SeekableReader(std::unique_ptr<ByteSource> src, BytesView key,
                 const Options& options);

  template <typename T>
  void read_range_impl(uint64_t elem_lo, uint64_t elem_hi,
                       std::span<T> out);
  template <typename T>
  void read_roi_impl(std::span<const size_t> origin,
                     std::span<const size_t> extent, std::span<T> out);

  /// Workers for a read touching `chunks` chunks: min(threads, chunks).
  size_t worker_count(size_t chunks) const;

  /// Fetches chunks [c0, c1) in order on the calling thread and runs
  /// decode(chunk, frame, worker, state) for each on a scheduler of
  /// worker_count(c1 - c0) workers; commit(chunk, result) runs here in
  /// chunk order.
  template <typename Result, typename Decode, typename Commit>
  void run_chunks(size_t c0, size_t c1, const Decode& decode,
                  const Commit& commit);

  /// preads chunk `i`'s frame into `buf` and validates it against the
  /// seek table (marker, id, rows, length, CRC); returns the parsed
  /// frame borrowing from `buf`.
  FrameInfo fetch_frame(size_t i, Bytes& buf);

  std::unique_ptr<ByteSource> src_;
  Bytes key_;
  Options options_;
  SeekTable table_;
  sz::DType dtype_ = sz::DType::kFloat32;
  uint64_t archive_size_ = 0;
  uint64_t bytes_read_ = 0;
  /// Worker 0's key-schedule cache and scratch, reused across reads
  /// (it serves every single-chunk read on the calling thread).
  std::unique_ptr<WorkerState> own_;
};

}  // namespace szsec::archive
