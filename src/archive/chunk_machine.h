// Push-driven chunk machines: the one implementation of the chunk codec
// (v3 chunked archives; the encoder also writes v1 slab archives, the
// same chunks in another framing) behind every entry point.
//
// Each machine takes its input as pushes and writes its output to the
// ByteSink it was built with.  It never reads: it exposes the span it
// wants filled next (the rest of the current chunk buffer, a frame's
// head, at most kMaxWantSpan of a frame body, exactly the prelude bytes
// the parser proved missing, or a salvage scan block), the caller fills some
// prefix of it and reports the count with filled(), and step() runs
// whatever work that input unlocked.  That split is what lets one
// implementation serve every driver:
//
//   * drive() reads a ByteSource straight into want() — the streaming
//     APIs (compress_chunked_stream, decompress_chunked_stream,
//     salvage_chunked_stream) are that loop;
//   * feed() copies a span in — the in-memory APIs feed one buffer, and
//     sansio::Context feeds caller bytes while no output is pending;
//   * step() does at most one unit of work per call (one chunk submitted
//     or committed, one staged frame emitted, one batch of fill rows),
//     so a driver that stops stepping while output is pending holds at
//     most one commit's output.
//
// Machine contract: after drain(), the machine is either done() or
// wants input (want() is non-empty); after finish() and drain() it is
// done().  Errors (CorruptError, CryptoError, IoError, Error) propagate
// out of filled()/step()/finish(); a machine that threw is not reused.
//
// Chunk work runs on a parallel::ParallelChunkScheduler: with one worker
// it runs inline on the caller's thread and no thread is started; with
// more it runs on pool workers while commits stay on the caller.
#pragma once

#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "archive/chunked.h"
#include "common/bufpool.h"
#include "parallel/chunk_scheduler.h"

namespace szsec::archive {

/// Largest span a machine asks for at once.  Frame and prelude lengths
/// come from untrusted bytes, so a claimed length is never allocated up
/// front: buffers grow by at most this much per want().
inline constexpr size_t kMaxWantSpan = size_t{4} << 20;

template <typename T>
constexpr sz::DType dtype_of() {
  return std::is_same_v<T, float> ? sz::DType::kFloat32
                                  : sz::DType::kFloat64;
}

/// The decoded elements of `r` as raw bytes.
BytesView element_bytes(const core::DecompressResult& r);

/// Why a chunk container of dims `chunk` and element type `chunk_dtype`
/// (from its header) cannot fill a frame of `row_extent` rows in a field
/// of `field_dims` (when known) and element type `dtype` (when known);
/// empty when it can.  The one set of chunk header checks: the strict
/// decoder, the salvager, the seekable reader and verify_archive all
/// call it.
std::string header_mismatch(const Dims& chunk, sz::DType chunk_dtype,
                            uint64_t row_extent,
                            const std::optional<Dims>& field_dims,
                            std::optional<sz::DType> dtype);

/// The one v3 prelude parser.  Parses the prelude at the front of
/// `prefix`; nullopt when the prefix ends inside it, with `*need` set to
/// a lower bound on the missing bytes (never more than the rest of a
/// valid prelude, so asking for exactly that many never reads a frame
/// byte); CorruptError when no continuation could make it valid.  Entry
/// offsets come back absolute.
std::optional<ChunkIndex> parse_prelude(BytesView prefix, size_t* need);

/// How a field splits along its slowest dimension into chunks: the one
/// plan behind v3 chunks and v1 slabs.
struct SlabPlan {
  size_t count = 0;
  std::vector<size_t> start;   ///< slowest-dim start per chunk
  std::vector<size_t> extent;  ///< slowest-dim extent per chunk
  size_t plane = 0;            ///< elements per slowest-dim index
};

/// Scratch state owned by one chunk worker: key-schedule cache plus
/// inflate buffers, reused chunk after chunk without cross-worker locks.
struct WorkerState {
  explicit WorkerState(BytesView key) : runtimes(key) {}
  core::codec::RuntimeCache runtimes;
  BufferPool scratch;
};

std::vector<std::unique_ptr<WorkerState>> make_worker_states(size_t count,
                                                             BytesView key);

/// Decodes one chunk container of a frame claiming `row_extent` rows on
/// worker `w`: header_mismatch against what is known of the field, then
/// the codec (into opts' span when one is set).  The one chunk decode of
/// the strict decoder, the salvager and SeekableReader.  Failures come
/// back as the reason, a wrong key or MAC failure included; `crypto`,
/// when given, is set for those.
std::string decode_chunk(BytesView container, uint64_t row_extent,
                         const std::optional<Dims>& field_dims,
                         std::optional<sz::DType> dtype, WorkerState& w,
                         core::codec::DecodeOptions opts,
                         core::DecompressResult& out,
                         bool* crypto = nullptr);

/// One chunk decode's outcome on a worker: the rows, or why not.
struct DecodedChunk {
  std::string error;    ///< decode failure, empty on success
  bool crypto = false;  ///< the failure was a MAC/cipher rejection
  core::DecompressResult r;
};

/// The in-order commit of decoded chunk `i` shared by the v3 and v1
/// strict decoders: a failure throws as "chunk i: reason" (CryptoError
/// for a MAC/cipher rejection, else CorruptError), and an element type
/// other than chunk 0's is CorruptError; otherwise the rows go to `out`,
/// are counted in `result`, and their stage metrics merge into
/// `metrics` when it is set.
void commit_decoded(size_t i, DecodedChunk&& d, ByteSink& out,
                    ChunkedStreamDecodeResult& result,
                    PipelineMetrics* metrics);

/// Appends decoded element bytes straight onto a typed field.
template <typename T>
class FieldSink final : public ByteSink {
 public:
  void write(BytesView data) override {
    const size_t old = field.size();
    field.resize(old + data.size() / sizeof(T));
    std::memcpy(field.data() + old, data.data(), data.size());
  }
  std::vector<T> field;
};

/// The push interface shared by the three machines.
class ChunkMachine {
 public:
  virtual ~ChunkMachine() = default;

  /// The span to fill next; valid until the next call on the machine.
  /// Empty once the machine needs no more input.
  virtual std::span<uint8_t> want() = 0;
  /// Declares that the first n bytes of the last want() span hold input.
  virtual void filled(size_t n) = 0;
  /// Runs one unit of work that needs no new input; false when the
  /// machine is blocked on input or done.
  virtual bool step() = 0;
  /// Declares the end of input.  Throws when the input stopped short of
  /// what the machine must have (the salvager accepts any length).
  virtual void finish() = 0;
  /// Every output byte has been written to the sink.
  virtual bool done() const = 0;

  /// Runs step() until it reports no work.
  void drain() {
    while (step()) {
    }
  }
  /// Copies `in` through want()/filled(), draining between spans.
  /// Returns the bytes taken: all of `in` unless the machine stops
  /// wanting input first (trailing bytes after a v3 archive).
  size_t feed(BytesView in);
};

/// Reads `in` into the machine until it needs no more input, calling
/// finish() when the stream ends first, and drains it.
void drive(ChunkMachine& m, ByteSource& in);

/// The byte layout a ChunkedEncoder puts its chunk containers in.  The
/// chunks themselves (plan, per-chunk IVs, containers) do not change.
enum class Framing : uint8_t {
  kV3Chunked,  ///< index prelude, CRC'd resync frames, seek footer
  kV1Slab,     ///< the v1 slab archive (archive/slab.h)
};

/// The chunk encoder: raw little-endian element bytes (dims.count()
/// elements of `dtype`, row-major) in, the finished archive out.  v3
/// frames are staged in a FrameSpool (ChunkedConfig::spool) until the
/// index can be written and are then handed to the sink one block per
/// step(); v1 needs no index, so each slab goes to the sink, behind its
/// length, as it commits (the prelude before the first).  Builds the
/// codec runtime in the constructor, so a bad key/scheme/spec throws
/// before any input is accepted.
class ChunkedEncoder final : public ChunkMachine {
 public:
  ChunkedEncoder(ByteSink& out, sz::DType dtype, const Dims& dims,
                 const sz::Params& params, core::Scheme scheme,
                 BytesView key, const core::CipherSpec& spec,
                 const ChunkedConfig& config, crypto::CtrDrbg* seed_drbg,
                 Framing framing = Framing::kV3Chunked);

  std::span<uint8_t> want() override;
  void filled(size_t n) override { got_ += n; }
  bool step() override;
  /// Throws IoError when the field is incomplete.
  void finish() override;
  bool done() const override { return stage_ == Stage::kDone; }

  /// Valid once done().
  const ChunkedStreamResult& result() const { return result_; }

 private:
  struct Product {
    Bytes frame;  ///< a v3 frame, or a bare v1 slab container
    core::CompressStats stats;
    PipelineMetrics times;
  };
  enum class Stage : uint8_t { kInput, kCommit, kFrames, kDone };

  /// Every chunk's bytes have arrived (the last maybe not yet submitted).
  bool input_complete() const;
  void commit(size_t i, Product&& p);
  /// Ends the stats once every chunk committed; v3 also writes the
  /// prelude and builds the footer.
  void seal();

  CountingSink out_;
  sz::DType dtype_;
  Dims dims_;
  Framing framing_;
  bool seek_table_;
  core::codec::CodecRuntime runtime_;
  SlabPlan plan_;
  std::vector<crypto::CtrDrbg> drbgs_;
  FrameSpool spool_;
  BufferPool input_pool_;
  Bytes raw_;  ///< the chunk being filled
  size_t got_ = 0;
  size_t next_ = 0;  ///< index of the chunk being filled
  std::vector<uint64_t> frame_len_;
  double weighted_predictable_ = 0;
  Bytes footer_;
  Stage stage_ = Stage::kInput;
  ChunkedStreamResult result_;
  parallel::ParallelChunkScheduler<Product> sched_;  // last: joins first
};

/// The in-memory encode behind compress_chunked and compress_slabs: the
/// whole field fed to one ChunkedEncoder, v3 frames staged in memory.
template <typename T>
ChunkedCompressResult compress_in_memory(std::span<const T> data,
                                         const Dims& dims,
                                         const sz::Params& params,
                                         core::Scheme scheme, BytesView key,
                                         const core::CipherSpec& spec,
                                         ChunkedConfig config,
                                         crypto::CtrDrbg* seed_drbg,
                                         Framing framing) {
  SZSEC_REQUIRE(data.size() == dims.count(), "data size mismatch");
  MemorySink sink;
  config.spool = FrameSpool::Backing::kMemory;
  ChunkedEncoder m(sink, dtype_of<T>(), dims, params, scheme, key, spec,
                   config, seed_drbg, framing);
  m.feed(BytesView(reinterpret_cast<const uint8_t*>(data.data()),
                   data.size() * sizeof(T)));
  m.finish();
  m.drain();
  ChunkedCompressResult out;
  out.archive = sink.take();
  out.chunk_count = m.result().chunk_count;
  out.stats = m.result().stats;
  out.times = m.result().times;
  return out;
}

/// v3 strict decoder: archive bytes in, the field's raw element bytes out
/// in chunk-index order.  Any damage throws (CorruptError, or CryptoError
/// for a MAC/cipher rejection); bytes after the last indexed frame (a
/// seek footer) are not wanted and never read.  `expect`, when set,
/// rejects chunks of any other element type.
class ChunkedDecoder final : public ChunkMachine {
 public:
  ChunkedDecoder(ByteSink& out, BytesView key, const ChunkedConfig& config,
                 std::optional<sz::DType> expect = std::nullopt);

  std::span<uint8_t> want() override;
  void filled(size_t n) override;
  bool step() override;
  /// Throws CorruptError when the archive is truncated.
  void finish() override;
  bool done() const override { return done_; }

  /// Dims and chunk count are valid once the prelude parsed; the rest
  /// once done().
  const ChunkedStreamDecodeResult& result() const { return result_; }

 private:
  /// Every frame's bytes have arrived (the last maybe not yet submitted).
  bool frames_in() const;
  void submit_frame();

  ByteSink& out_;
  std::optional<sz::DType> expect_;
  PipelineMetrics* metrics_;
  Bytes prelude_;
  size_t prelude_got_ = 0;
  size_t prelude_need_;
  std::optional<ChunkIndex> index_;
  Bytes frame_;
  size_t frame_got_ = 0;
  size_t next_ = 0;  ///< index of the frame being assembled
  bool done_ = false;
  ChunkedStreamDecodeResult result_;
  BufferPool frame_pool_;
  std::vector<std::unique_ptr<WorkerState>> workers_;
  parallel::ParallelChunkScheduler<DecodedChunk> sched_;  // last: joins first
};

/// Where ChunkedSalvager commits recovered rows: whole decoded chunks,
/// in the salvager's scan order, each either taken or refused with a
/// reason (the chunk is then reported corrupt).
class RowSink {
 public:
  virtual ~RowSink() = default;

  /// The element type the sink requires, if any; chunks of another
  /// type are refused before they are decoded.
  virtual std::optional<sz::DType> dtype() const { return std::nullopt; }
  /// Offers `chunk`'s rows, starting at row `row_start` of a field of at
  /// least `field_rows` rows of `plane` elements.  Empty when taken,
  /// else why not.
  virtual std::string put(uint64_t row_start, core::DecompressResult&& chunk,
                          uint64_t field_rows, size_t plane) = 0;
  /// Ends the field at `rows` rows of `plane` elements; rows no chunk
  /// filled get the fallback fill.
  virtual void finish(uint64_t rows, size_t plane) = 0;
  /// Writes one bounded block of pending output; false when none is
  /// pending.
  virtual bool step() { return false; }
};

/// The stream sink: recovered rows go to a ByteSink in row order, each
/// gap before a chunk and after the last one filled with zeros or NaN as
/// it is reached.  A chunk whose rows precede rows already written is
/// refused, and kMean is rejected with Error (the mean of the recovered
/// rows is known only after the last of them was written).  Until a
/// chunk arrives the element type is unknown, so a salvage that
/// recovers nothing writes nothing.
class StreamRowSink final : public RowSink {
 public:
  StreamRowSink(ByteSink& out, FallbackFill fill);

  std::string put(uint64_t row_start, core::DecompressResult&& chunk,
                  uint64_t field_rows, size_t plane) override;
  void finish(uint64_t rows, size_t plane) override;
  bool step() override;

 private:
  ByteSink& out_;
  bool nan_;
  uint64_t rows_done_ = 0;  ///< rows written or queued
  uint64_t fill_rows_ = 0;  ///< fill rows still to write
  size_t row_bytes_ = 0;
  core::DecompressResult fill_;  ///< whole rows of fill values
  std::optional<core::DecompressResult> chunk_;  ///< rows still to write
  bool flush_ = false;
};

/// v3 salvager: the one implementation of best-effort recovery, behind
/// both decompress_salvage (an in-memory field sink) and
/// salvage_chunked_stream (a StreamRowSink).  One forward pass scans for
/// CRC-valid frames in a sliding window that holds at most one frame
/// plus scan slack; with an intact index it also checks what sits at
/// each entry's own offset.  The first CRC-valid frame of each chunk id
/// claims it; claimed frames decode on a ParallelChunkScheduler
/// (opts.threads workers) and commit to the row sink in scan order.  At
/// the end the sink fills the rows no chunk recovered and the report is
/// sealed (see chunked.h for the rules).  `frame_region_end`, when the
/// driver knows it, is where the frames end and the seek footer begins.
/// Wants input until finish(); never throws on corrupt input.
class ChunkedSalvager final : public ChunkMachine {
 public:
  ChunkedSalvager(RowSink& rows, BytesView key, const SalvageOptions& opts,
                  std::optional<uint64_t> frame_region_end = std::nullopt);

  std::span<uint8_t> want() override;
  void filled(size_t n) override;
  bool step() override;
  void finish() override;
  bool done() const override { return phase_ == Phase::kDone; }

  /// Valid once done().
  const ChunkedStreamSalvageResult& result() const { return result_; }

 private:
  enum class Phase : uint8_t { kPrelude, kScan, kCommit, kTail, kDone };
  enum class Avail : uint8_t { kYes, kNo, kSuspend };
  /// The first CRC-valid frame found for a chunk id.
  struct Claim {
    uint64_t offset;
    uint64_t row_start;
    uint64_t row_extent;
    uint64_t frame_len;
    bool recovered = false;
    std::string error = {};  ///< why it was not recovered
  };
  struct Decoded {
    uint64_t id = 0;
    std::string error;  ///< decode failure, empty on success
    core::DecompressResult r;
  };

  uint64_t end() const { return start_ + have_; }
  BytesView view() const { return BytesView(win_.data(), have_); }
  void drop_before(uint64_t abs);
  Avail avail(uint64_t abs_end);
  void try_prelude();
  void begin_scan(std::optional<ChunkIndex> index);
  /// One scan step: true after claiming a frame or reaching the end,
  /// false when it needs input.
  bool scan();
  void submit(uint64_t id, BytesView container);
  void commit(Decoded&& d);
  void seal();

  RowSink& rows_;
  std::optional<sz::DType> dtype_;  ///< required by the sink, or learned
  uint64_t region_end_;
  Phase phase_ = Phase::kPrelude;
  bool eof_ = false;
  /// Window over the input: bytes [start_, start_ + have_) are held in
  /// win_[0, have_); want() grows win_ past have_.
  Bytes win_;
  size_t have_ = 0;
  uint64_t start_ = 0;
  size_t want_;  ///< bytes the next want() span offers
  uint64_t pos_ = 0;
  std::optional<ChunkIndex> index_;
  std::optional<Dims> field_dims_;
  size_t plane_ = 0;
  size_t check_ = 0;  ///< next index entry whose offset is unchecked
  std::vector<uint8_t> damaged_at_;  ///< per entry: damage at its offset
  std::map<uint64_t, Claim> claims_;
  uint64_t max_row_end_ = 0;
  uint64_t frame_bytes_recovered_ = 0;
  ChunkedStreamSalvageResult result_;
  BufferPool frame_pool_;
  std::vector<std::unique_ptr<WorkerState>> workers_;
  parallel::ParallelChunkScheduler<Decoded> sched_;  // last: joins first
};

}  // namespace szsec::archive
