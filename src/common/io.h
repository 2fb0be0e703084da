// Streaming byte I/O: the Source/Sink layer every container writer and
// reader emits through.
//
// A ByteSource yields bytes in order (short reads allowed at any time);
// a ByteSink accepts bytes in order.  The codec layers above are written
// against these two interfaces only, so the same encode/decode path
// serves an in-memory buffer, a file, a pipe, or an mmapped region —
// and the streaming chunked codec (src/archive) keeps peak memory at
// O(chunk_size x max_in_flight) regardless of input size, because no
// layer below it ever asks for "the whole thing" (see
// docs/ARCHITECTURE.md, "Streaming & memory model").
//
// Adapters compose: CountingSink/Crc32Sink wrap another sink to observe
// the stream, ChokedSource throttles reads (the proptest oracle uses a
// 1-byte dribble to prove decoders tolerate arbitrary short reads),
// ConcatSource replays already-consumed prefix bytes (magic sniffing on
// unseekable pipes).  FrameSpool buffers a byte stream whose total
// length must be known before it may be emitted (the v3 index precedes
// the frames): in-memory for small outputs, via an unlinked temp file
// when the caller wants RSS bounded.
// Durability model (see docs/ARCHITECTURE.md, "Durability & failure
// model" for the full story):
//  * flush() pushes buffered bytes to the OS — after it returns, the
//    data survives a process crash but NOT a power loss.
//  * sync() additionally asks the OS to push the bytes to stable
//    storage (fsync/fdatasync) — after it returns, the data survives a
//    power loss.  Sinks with no meaningful durability (memory, pipes)
//    treat sync() as flush().
//  * AtomicFileSink is the all-or-nothing path: bytes go to a
//    same-directory temp file and only an explicit commit() (fsync +
//    rename + directory fsync) makes them visible under the final name.
//    Any other outcome — exception, early destruction, discard() —
//    unlinks the temp file and leaves a pre-existing target untouched.
#pragma once

#include <cerrno>
#include <cstdio>
#include <deque>
#include <functional>
#include <span>
#include <string>

#include "common/bytestream.h"
#include "common/crc32.h"
#include "common/error.h"

namespace szsec {

/// Synthetic IoError code for a short write the OS reported without an
/// errno (e.g. fwrite returning a partial count).  Classified transient:
/// the remainder may well succeed on retry.
inline constexpr int kShortWriteError = -1;

/// True when `error_code` names a failure worth retrying: EINTR, EAGAIN/
/// EWOULDBLOCK, and the synthetic short-write code.  Everything else —
/// ENOSPC, EBADF, EPIPE, EIO, ... — is permanent: retrying cannot help,
/// surface it to the caller immediately.
bool io_error_is_transient(int error_code);

/// Thrown by file/fd sources and sinks on operating-system I/O failure
/// (including EPIPE on a closed pipe).  Distinct from CorruptError: the
/// bytes were fine, moving them failed.  Carries the errno (when one was
/// captured) and its transient/permanent classification so retry layers
/// and the CLI's exit-code contract can branch without string matching.
class IoError : public Error {
 public:
  explicit IoError(const std::string& what, int error_code = 0,
                   size_t accepted = 0)
      : Error(what), error_code_(error_code), accepted_(accepted) {}

  /// The captured errno value, kShortWriteError for a short write, or 0
  /// when the failure carried no OS error code.
  int error_code() const { return error_code_; }

  /// True when retrying the same operation may succeed (see
  /// io_error_is_transient).  A code of 0 (unknown) is permanent.
  bool transient() const { return io_error_is_transient(error_code_); }

  /// Sink write failures only: how many bytes of the failing write()'s
  /// view the sink had already consumed before throwing.  A write loop
  /// can land a prefix (partial fwrite/::write) and then give up on a
  /// transient condition, so retry layers MUST resume from this offset
  /// — re-issuing the whole view would duplicate the prefix.  Always 0
  /// for read failures and for all-or-nothing sinks.
  size_t accepted() const { return accepted_; }

 private:
  int error_code_ = 0;
  size_t accepted_ = 0;
};

/// Bounded, deterministic retry schedule for transient I/O failures.
/// The backoff delay is a pure function of the attempt index — no
/// ambient clock is ever read — and the sleep itself goes through an
/// injectable `sleeper`, so tests can record the schedule instead of
/// waiting it out (tools/check_test_determinism.py bans real clocks in
/// test code).  max_attempts == 1 disables retrying entirely, which is
/// the default: callers opt in per sink/source.
struct RetryPolicy {
  /// Total tries for one operation (first attempt included).
  int max_attempts = 1;
  /// Delay before the first retry; doubles per further retry.
  uint32_t base_delay_us = 0;
  /// Upper bound on any single delay.
  uint32_t max_delay_us = 100000;
  /// Receives each backoff delay.  nullptr uses a real sleep — fine for
  /// production, never reached in deterministic tests (which inject a
  /// recording sleeper).
  std::function<void(uint32_t delay_us)> sleeper;

  /// The delay before retry number `retry` (1-based), deterministic in
  /// the index alone: min(max_delay_us, base_delay_us << (retry - 1)).
  uint32_t delay_us(int retry) const;

  /// Sleeps delay_us(retry) through the injected sleeper (or a real
  /// sleep when none was injected).  A zero delay never sleeps.
  void backoff(int retry) const;

  /// No retrying (the default).
  static RetryPolicy none() { return {}; }
  /// Production default: 4 attempts, 100us initial backoff.
  static RetryPolicy standard() {
    RetryPolicy p;
    p.max_attempts = 4;
    p.base_delay_us = 100;
    return p;
  }
};

/// An ordered stream of bytes to read.  Implementations may return fewer
/// bytes than requested at any time (a pipe, a throttled adapter); only
/// a return of 0 for a non-empty `out` means end of stream.
class ByteSource {
 public:
  virtual ~ByteSource() = default;

  /// Reads up to out.size() bytes into the front of `out`; returns the
  /// count actually read.  0 <=> end of stream (when out is non-empty).
  virtual size_t read(std::span<uint8_t> out) = 0;

  // Positioned-read capability (the seekable-archive layer's contract).
  // A source either supports all three of seekable()/size()/pread() —
  // memory buffers, regular files, mappings — or none: pipes, sockets,
  // and the stream adapters stay sequential-only and report it with a
  // typed, permanent IoError (ESPIPE, the errno lseek itself would
  // give), so callers can branch on capability without string-matching.

  /// True when size() and pread() work on this source.
  virtual bool seekable() const { return false; }

  /// Total byte length of the underlying object.  Throws IoError
  /// (ESPIPE, permanent) when the source is not seekable.
  virtual uint64_t size() const {
    throw IoError("source is not seekable", ESPIPE);
  }

  /// Reads up to out.size() bytes starting at absolute byte `offset`,
  /// without disturbing the sequential read position; returns the count
  /// actually read (0 when `offset` is at or past the end).  Safe to
  /// call concurrently from multiple threads as long as no sequential
  /// read() runs at the same time.  Throws IoError (ESPIPE, permanent)
  /// when the source is not seekable.
  virtual size_t pread(uint64_t offset, std::span<uint8_t> out) {
    (void)offset;
    (void)out;
    throw IoError("source is not seekable", ESPIPE);
  }
};

/// preads exactly out.size() bytes at `offset`, looping over short
/// reads.  Returns the bytes read; less than out.size() only when the
/// source ends first.
size_t pread_full(ByteSource& src, uint64_t offset, std::span<uint8_t> out);

/// Reads exactly out.size() bytes, looping over short reads.  Returns
/// the bytes read; less than out.size() only at end of stream.
size_t read_full(ByteSource& src, std::span<uint8_t> out);

/// An ordered stream of bytes to write.  write() either accepts the
/// whole view or throws (IoError for OS failures) — there are no short
/// writes at this interface.  A throwing write() may still have
/// consumed a prefix of the view; sinks report that count through
/// IoError::accepted() so retry layers can resume without duplicating
/// bytes.
///
/// Durability after flush(): NONE of the sinks below guarantee the
/// bytes survive a power loss after flush() alone — flush() only moves
/// buffered bytes to the OS (FileSink) or is a no-op (FdSink writes are
/// unbuffered; MemorySink has no backing store).  Call sync() for a
/// stable-storage guarantee; only FileSink, FdSink and AtomicFileSink
/// back it with a real fsync/fdatasync.
class ByteSink {
 public:
  virtual ~ByteSink() = default;

  virtual void write(BytesView data) = 0;
  /// Pushes buffered bytes toward the final destination (no-op for
  /// unbuffered sinks).
  virtual void flush() {}
  /// flush(), then asks the OS to persist the bytes to stable storage
  /// where the sink has one (fsync/fdatasync).  Defaults to flush() for
  /// sinks with nothing durable behind them; adapters forward to their
  /// inner sink.
  virtual void sync() { flush(); }
};

// ---------------------------------------------------------------------
// Memory

/// Reads from a borrowed byte range (the range must outlive the source).
class MemorySource final : public ByteSource {
 public:
  explicit MemorySource(BytesView data) : data_(data) {}

  size_t read(std::span<uint8_t> out) override {
    const size_t n = std::min(out.size(), data_.size() - pos_);
    if (n == 0) return 0;  // an empty view or span may hold a null pointer
    std::memcpy(out.data(), data_.data() + pos_, n);
    pos_ += n;
    return n;
  }

  bool seekable() const override { return true; }
  uint64_t size() const override { return data_.size(); }
  size_t pread(uint64_t offset, std::span<uint8_t> out) override {
    if (offset >= data_.size() || out.empty()) return 0;
    const size_t n = std::min<uint64_t>(out.size(), data_.size() - offset);
    std::memcpy(out.data(), data_.data() + offset, n);
    return n;
  }

  size_t remaining() const { return data_.size() - pos_; }

 private:
  BytesView data_;
  size_t pos_ = 0;
};

/// Appends into an owned Bytes buffer.
class MemorySink final : public ByteSink {
 public:
  void write(BytesView data) override {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  const Bytes& bytes() const { return buf_; }
  Bytes take() { return std::move(buf_); }

 private:
  Bytes buf_;
};

// ---------------------------------------------------------------------
// Files and file descriptors

/// Reads from a C stream.  Owns the FILE* only when constructed from a
/// path.  Transient read failures (EINTR/EAGAIN) retry per `retry`.
class FileSource final : public ByteSource {
 public:
  /// Borrows an open stream (not closed on destruction).
  explicit FileSource(std::FILE* f, RetryPolicy retry = {})
      : file_(f), retry_(std::move(retry)) {}
  /// Opens `path` for binary reading; throws IoError on failure.
  explicit FileSource(const std::string& path, RetryPolicy retry = {});
  ~FileSource() override;

  FileSource(const FileSource&) = delete;
  FileSource& operator=(const FileSource&) = delete;

  size_t read(std::span<uint8_t> out) override;

  /// True when the stream's descriptor names a regular file (a FILE*
  /// over a pipe or tty stays sequential-only).
  bool seekable() const override;
  uint64_t size() const override;
  /// ::pread on the underlying descriptor — the stdio buffer and the
  /// sequential read position are untouched.
  size_t pread(uint64_t offset, std::span<uint8_t> out) override;

 private:
  std::FILE* file_ = nullptr;
  bool owned_ = false;
  RetryPolicy retry_;
};

/// Writes to a C stream; write failures (ferror) throw IoError.  Owns
/// the FILE* only when constructed from a path.  Transient failures —
/// EINTR, EAGAIN, short fwrite counts — resume from the bytes already
/// accepted and retry per `retry`; flush() makes the bytes crash-safe,
/// sync() power-loss-safe.
class FileSink final : public ByteSink {
 public:
  explicit FileSink(std::FILE* f, RetryPolicy retry = {})
      : file_(f), retry_(std::move(retry)) {}
  /// Opens (truncates) `path` for binary writing; throws IoError.
  explicit FileSink(const std::string& path, RetryPolicy retry = {});
  ~FileSink() override;

  FileSink(const FileSink&) = delete;
  FileSink& operator=(const FileSink&) = delete;

  void write(BytesView data) override;
  void flush() override;
  /// fflush + fsync.  A stream with no syncable descriptor behind it
  /// (pipe, tty) is flushed only — the OS reports that as EINVAL/
  /// ENOTSUP, which is ignored, not an error.
  void sync() override;

 private:
  std::FILE* file_ = nullptr;
  bool owned_ = false;
  RetryPolicy retry_;
};

/// Reads from a POSIX file descriptor (not closed on destruction) —
/// stdin piping uses FdSource(0).  EINTR is always retried; EAGAIN
/// retries per `retry`.
class FdSource final : public ByteSource {
 public:
  explicit FdSource(int fd, RetryPolicy retry = {})
      : fd_(fd), retry_(std::move(retry)) {}

  size_t read(std::span<uint8_t> out) override;

  /// True when the descriptor names a regular file; FdSource(0) over a
  /// pipe reports not seekable (ESPIPE from size()/pread()).
  bool seekable() const override;
  uint64_t size() const override;
  size_t pread(uint64_t offset, std::span<uint8_t> out) override;

 private:
  int fd_;
  RetryPolicy retry_;
};

/// Writes to a POSIX file descriptor (not closed on destruction); a
/// failed write — EPIPE included — throws IoError.  stdout piping uses
/// FdSink(1).  EINTR is always retried; EAGAIN and zero-byte writes
/// retry per `retry`, resuming from the bytes already accepted.
/// Sockets are written with send(MSG_NOSIGNAL), so a peer hang-up is
/// the documented IoError rather than a process-fatal SIGPIPE.
class FdSink final : public ByteSink {
 public:
  explicit FdSink(int fd, RetryPolicy retry = {})
      : fd_(fd), retry_(std::move(retry)) {}

  void write(BytesView data) override;
  /// fdatasync; EINVAL/ENOTSUP (pipe, tty) is ignored.
  void sync() override;

 private:
  int fd_;
  RetryPolicy retry_;
  bool plain_write_ = false;  ///< fd answered ENOTSOCK: not a socket
};

/// All-or-nothing file writes: bytes land in a same-directory temp file
/// (`<path>.tmp.XXXXXX`), and only commit() — fsync, rename over
/// `path`, fsync of the directory — makes them visible under the final
/// name.  Until then a pre-existing file at `path` stays untouched, so
/// a crash, an exception, or discard() can never leave a torn archive
/// where a complete one used to be: readers see the complete old file
/// or the complete new file, never a partial.  Destruction without
/// commit() unlinks the temp file.  POSIX-only (like MmapSource).
class AtomicFileSink final : public ByteSink {
 public:
  /// Creates the temp file next to `path`; throws IoError on failure.
  explicit AtomicFileSink(const std::string& path, RetryPolicy retry = {});
  ~AtomicFileSink() override;

  AtomicFileSink(const AtomicFileSink&) = delete;
  AtomicFileSink& operator=(const AtomicFileSink&) = delete;

  void write(BytesView data) override;
  void sync() override;

  /// Publishes the temp file under the final name (fsync + rename +
  /// directory fsync).  Throws IoError on failure — the temp file is
  /// unlinked and the old target survives.  Call at most once; writes
  /// after commit() throw.
  void commit();

  /// Abandons the temp file (idempotent; commit() disables it).
  void discard() noexcept;

  bool committed() const { return committed_; }
  /// The temp path bytes are staged in until commit() (for tests).
  const std::string& temp_path() const { return temp_path_; }

 private:
  std::string path_;
  std::string temp_path_;
  int fd_ = -1;
  RetryPolicy retry_;
  bool committed_ = false;
};

/// Memory-maps a whole file read-only.  Doubles as a ByteSource and as a
/// zero-copy BytesView provider for the in-memory decode APIs, so
/// archives larger than the page cache can be decoded without a
/// read-everything copy.
class MmapSource final : public ByteSource {
 public:
  /// Maps `path`; throws IoError when the file cannot be opened or
  /// mapped (empty files map to an empty view).
  explicit MmapSource(const std::string& path);
  ~MmapSource() override;

  MmapSource(const MmapSource&) = delete;
  MmapSource& operator=(const MmapSource&) = delete;

  size_t read(std::span<uint8_t> out) override;

  bool seekable() const override { return true; }
  uint64_t size() const override { return size_; }
  size_t pread(uint64_t offset, std::span<uint8_t> out) override {
    if (offset >= size_ || out.empty()) return 0;
    const size_t n = std::min<uint64_t>(out.size(), size_ - offset);
    std::memcpy(out.data(), data_ + offset, n);
    return n;
  }

  /// The whole mapping (valid while this object lives).
  BytesView view() const { return BytesView(data_, size_); }

 private:
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------
// Adapters

/// Forwards to an inner sink (or swallows bytes when inner == nullptr)
/// while counting them.
class CountingSink final : public ByteSink {
 public:
  explicit CountingSink(ByteSink* inner = nullptr) : inner_(inner) {}

  void write(BytesView data) override {
    count_ += data.size();
    if (inner_ != nullptr) inner_->write(data);
  }
  void flush() override {
    if (inner_ != nullptr) inner_->flush();
  }
  void sync() override {
    if (inner_ != nullptr) inner_->sync();
  }

  uint64_t count() const { return count_; }

 private:
  ByteSink* inner_;
  uint64_t count_ = 0;
};

/// Forwards to an inner sink (optional) while maintaining a running
/// CRC-32 of everything written.
class Crc32Sink final : public ByteSink {
 public:
  explicit Crc32Sink(ByteSink* inner = nullptr) : inner_(inner) {}

  void write(BytesView data) override {
    crc_ = crc32(data, crc_);
    if (inner_ != nullptr) inner_->write(data);
  }
  void flush() override {
    if (inner_ != nullptr) inner_->flush();
  }
  void sync() override {
    if (inner_ != nullptr) inner_->sync();
  }

  uint32_t crc() const { return crc_; }

 private:
  ByteSink* inner_;
  uint32_t crc_ = 0;
};

/// Counts bytes read through an inner source.
class CountingSource final : public ByteSource {
 public:
  explicit CountingSource(ByteSource& inner) : inner_(inner) {}

  size_t read(std::span<uint8_t> out) override {
    const size_t n = inner_.read(out);
    count_ += n;
    return n;
  }

  uint64_t count() const { return count_; }

 private:
  ByteSource& inner_;
  uint64_t count_ = 0;
};

/// Caps every read at `max_read` bytes.  A 1-byte choke is the
/// worst-case short-read schedule; the proptest oracle drives every
/// streaming decoder through it.
class ChokedSource final : public ByteSource {
 public:
  ChokedSource(ByteSource& inner, size_t max_read)
      : inner_(inner), max_read_(max_read == 0 ? 1 : max_read) {}

  size_t read(std::span<uint8_t> out) override {
    return inner_.read(out.subspan(0, std::min(out.size(), max_read_)));
  }

 private:
  ByteSource& inner_;
  size_t max_read_;
};

/// Replays `head` first, then continues with `tail`.  Lets a caller
/// sniff the magic of an unseekable stream and hand the whole logical
/// stream to a decoder.
class ConcatSource final : public ByteSource {
 public:
  ConcatSource(BytesView head, ByteSource& tail)
      : head_(head), tail_(tail) {}

  size_t read(std::span<uint8_t> out) override {
    if (out.empty()) return 0;
    if (pos_ < head_.size()) {
      const size_t n = std::min(out.size(), head_.size() - pos_);
      std::memcpy(out.data(), head_.data() + pos_, n);
      pos_ += n;
      return n;
    }
    return tail_.read(out);
  }

 private:
  BytesView head_;
  ByteSource& tail_;
  size_t pos_ = 0;
};

/// Retries transient read failures from any inner source (endpoint
/// retry covers only OS-level errno; this adapter composes the same
/// policy over arbitrary sources — notably the fault-injection sources
/// in src/testing).  Sound for any source: a read that threw delivered
/// no bytes, so repeating it never duplicates data.  Permanent errors
/// and non-IoError exceptions pass straight through.
class RetrySource final : public ByteSource {
 public:
  RetrySource(ByteSource& inner, RetryPolicy policy)
      : inner_(inner), policy_(std::move(policy)) {}

  size_t read(std::span<uint8_t> out) override {
    for (int attempt = 1;; ++attempt) {
      try {
        return inner_.read(out);
      } catch (const IoError& e) {
        if (!e.transient() || attempt >= policy_.max_attempts) throw;
        ++retries_;
        policy_.backoff(attempt);
      }
    }
  }

  /// Transient failures absorbed so far (observability / tests).
  uint64_t retries() const { return retries_; }

 private:
  ByteSource& inner_;
  RetryPolicy policy_;
  uint64_t retries_ = 0;
};

/// Retries transient write failures against an inner sink.  The inner
/// sink may consume a prefix of the view before throwing (FileSink/
/// FdSink/AtomicFileSink land partial fwrite/::write results and then
/// give up once their own attempts run out); the retry resumes from
/// IoError::accepted(), so already-written bytes are never re-issued.
/// Permanent errors pass through (with accepted() rebased to this
/// call's view, so an outer retry layer stays sound too).
///
/// Compose RetrySink directly over the endpoint sink, with observer
/// adapters (Counting/Crc32) OUTSIDE the retry — an observer between
/// the two would miss the prefix bytes a partial failure consumed.
class RetrySink final : public ByteSink {
 public:
  RetrySink(ByteSink& inner, RetryPolicy policy)
      : inner_(inner), policy_(std::move(policy)) {}

  void write(BytesView data) override {
    size_t done = 0;
    for (int attempt = 1;; ++attempt) {
      try {
        inner_.write(data.subspan(done));
        return;
      } catch (const IoError& e) {
        done += std::min(e.accepted(), data.size() - done);
        if (!e.transient() || attempt >= policy_.max_attempts) {
          if (done == e.accepted()) throw;  // rebase already correct
          throw IoError(e.what(), e.error_code(), done);
        }
        ++retries_;
        policy_.backoff(attempt);
      }
    }
  }
  void flush() override { inner_.flush(); }
  void sync() override { inner_.sync(); }

  uint64_t retries() const { return retries_; }

 private:
  ByteSink& inner_;
  RetryPolicy policy_;
  uint64_t retries_ = 0;
};

// ---------------------------------------------------------------------
// Sockets (POSIX-only, like MmapSource/AtomicFileSink)

/// RAII owner of a POSIX file descriptor.  Moves transfer ownership;
/// destruction closes.  The archive service's socket plumbing hands
/// these around and reads/writes them through FdSource/FdSink — a
/// connected socket IS a byte stream, so the whole codec stack serves
/// it unchanged.
class OwnedFd {
 public:
  OwnedFd() = default;
  explicit OwnedFd(int fd) : fd_(fd) {}
  ~OwnedFd() { reset(); }

  OwnedFd(OwnedFd&& other) noexcept : fd_(other.release()) {}
  OwnedFd& operator=(OwnedFd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.release();
    }
    return *this;
  }
  OwnedFd(const OwnedFd&) = delete;
  OwnedFd& operator=(const OwnedFd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }

  /// Gives up ownership without closing.
  int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }

  /// Closes now (idempotent).
  void reset() noexcept;

  /// shutdown(2) — wakes a peer (or this process's own reader) blocked
  /// in read() without closing the descriptor.  `how` is SHUT_RD /
  /// SHUT_WR / SHUT_RDWR; errors are ignored (the fd may already be
  /// half-closed).
  void shutdown(int how) noexcept;

 private:
  int fd_ = -1;
};

/// Connects to a Unix-domain stream socket at `path`.  Throws IoError
/// carrying the OS errno (ENOENT when no daemon ever bound the path,
/// ECONNREFUSED when one did but is gone) — callers surface the errno
/// text, e.g. the CLI's exit-2 contract for "daemon not running".
OwnedFd connect_unix(const std::string& path);

/// A listening Unix-domain stream socket.  Binds `path` (replacing a
/// stale socket file left by a crashed predecessor), listens, and
/// accepts connections; the socket file is unlinked on destruction.
/// accept() blocks but can be woken from another thread (or a signal
/// handler, via the async-signal-safe interrupt() — it only calls
/// write(2)) so a daemon can stop accepting without a poll timeout.
class UnixListener {
 public:
  /// Binds and listens; throws IoError (with errno) on failure — an
  /// EADDRINUSE from a *live* listener is reported, only genuinely
  /// stale socket files are replaced.
  explicit UnixListener(const std::string& path, int backlog = 64);
  ~UnixListener();

  UnixListener(const UnixListener&) = delete;
  UnixListener& operator=(const UnixListener&) = delete;

  /// Blocks until a client connects (returning the connected fd) or
  /// interrupt() is called (returning an invalid OwnedFd).  Throws
  /// IoError on OS failure; EINTR is retried, and running out of file
  /// descriptors (EMFILE/ENFILE) waits 10 ms, or until interrupt(),
  /// and retries.
  OwnedFd accept();

  /// Wakes every current and future accept() call, making it return an
  /// invalid fd.  Async-signal-safe and idempotent.
  void interrupt() noexcept;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  OwnedFd listen_fd_;
  OwnedFd wake_read_, wake_write_;  ///< self-pipe for interrupt()
};

// ---------------------------------------------------------------------
// Spooling

/// Buffers a byte stream whose length must be known before it may be
/// emitted downstream (the v3 chunked index carries every frame length
/// and precedes the frames).  kMemory keeps the bytes in RAM — right for
/// the in-memory archive APIs; kTempFile spools them through an
/// unlinked temporary file so compressing a terabyte stream costs disk,
/// not RSS.
class FrameSpool final : public ByteSink {
 public:
  enum class Backing : uint8_t { kMemory, kTempFile };

  explicit FrameSpool(Backing backing);
  ~FrameSpool() override;

  FrameSpool(const FrameSpool&) = delete;
  FrameSpool& operator=(const FrameSpool&) = delete;

  void write(BytesView data) override;

  /// Total bytes spooled so far.
  uint64_t size() const { return size_; }

  /// Copies every spooled byte into `out` and resets the spool to empty.
  void replay(ByteSink& out) {
    while (replay_block(out)) {
    }
  }

  /// Copies the next block of spooled bytes into `out` — one write()'s
  /// worth for the memory backing (freed as it goes, so replaying never
  /// holds the bytes twice), a fixed-size block for the temp file.
  /// Returns false, with the spool reset to empty, once nothing is left.
  bool replay_block(ByteSink& out);

 private:
  Backing backing_;
  std::deque<Bytes> mem_;
  std::FILE* file_ = nullptr;
  uint64_t size_ = 0;
  uint64_t replayed_ = 0;  ///< temp file: bytes already copied out
  Bytes block_;            ///< temp file: read-back buffer
};

}  // namespace szsec
