#include "common/io.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#ifdef _WIN32
#include <io.h>
#else
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>
#endif

namespace szsec {

namespace {

std::string errno_message(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

/// errno_message + the captured code in one IoError.  `accepted` is the
/// prefix of the failing write's view the sink had already consumed
/// (see IoError::accepted); 0 for reads and whole-view failures.
IoError errno_error(const std::string& what, size_t accepted = 0) {
  return IoError(errno_message(what), errno, accepted);
}

/// True when an fsync-style call failed only because the descriptor has
/// no stable storage behind it (pipe, tty, some special files) — not a
/// durability failure, there was never anything to make durable.
bool sync_unsupported(int err) {
  return err == EINVAL || err == ENOTSUP || err == EROFS
#ifdef ENOTTY
         || err == ENOTTY
#endif
      ;
}

}  // namespace

bool io_error_is_transient(int error_code) {
  if (error_code == kShortWriteError) return true;
#ifdef _WIN32
  return error_code == EINTR || error_code == EAGAIN;
#else
  return error_code == EINTR || error_code == EAGAIN ||
         error_code == EWOULDBLOCK;
#endif
}

uint32_t RetryPolicy::delay_us(int retry) const {
  if (base_delay_us == 0 || retry <= 0) return 0;
  // Saturating base << (retry - 1), capped at max_delay_us.
  uint64_t d = base_delay_us;
  d <<= std::min(retry - 1, 32);
  return static_cast<uint32_t>(std::min<uint64_t>(d, max_delay_us));
}

void RetryPolicy::backoff(int retry) const {
  const uint32_t us = delay_us(retry);
  if (us == 0) return;
  if (sleeper) {
    sleeper(us);
  } else {
    std::this_thread::sleep_for(std::chrono::microseconds(us));
  }
}

size_t read_full(ByteSource& src, std::span<uint8_t> out) {
  size_t got = 0;
  while (got < out.size()) {
    const size_t n = src.read(out.subspan(got));
    if (n == 0) break;
    got += n;
  }
  return got;
}

size_t pread_full(ByteSource& src, uint64_t offset,
                  std::span<uint8_t> out) {
  size_t got = 0;
  while (got < out.size()) {
    const size_t n = src.pread(offset + got, out.subspan(got));
    if (n == 0) break;
    got += n;
  }
  return got;
}

namespace {

#ifndef _WIN32
/// Shared by FileSource/FdSource: positioned-read support for a POSIX
/// descriptor.  Only a regular file qualifies — pipes, ttys, and
/// sockets would make ::pread fail or (worse) racily share a position.
bool fd_is_regular(int fd) {
  struct stat st{};
  return ::fstat(fd, &st) == 0 && S_ISREG(st.st_mode);
}

uint64_t fd_size(int fd) {
  struct stat st{};
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    throw IoError("source is not seekable", ESPIPE);
  }
  return static_cast<uint64_t>(st.st_size);
}

size_t fd_pread(int fd, uint64_t offset, std::span<uint8_t> out,
                const RetryPolicy& retry) {
  if (out.empty()) return 0;
  for (int attempt = 1;; ++attempt) {
    ssize_t n;
    do {
      n = ::pread(fd, out.data(), out.size(),
                  static_cast<off_t>(offset));
    } while (n < 0 && errno == EINTR);
    if (n >= 0) return static_cast<size_t>(n);
    const int err = errno;
    if (!io_error_is_transient(err) || attempt >= retry.max_attempts) {
      errno = err;
      throw errno_error("positioned read failed");
    }
    retry.backoff(attempt);
  }
}
#endif

}  // namespace

// ---------------------------------------------------------------------
// FileSource / FileSink

FileSource::FileSource(const std::string& path, RetryPolicy retry)
    : file_(std::fopen(path.c_str(), "rb")),
      owned_(true),
      retry_(std::move(retry)) {
  if (file_ == nullptr) throw errno_error("cannot open " + path);
}

FileSource::~FileSource() {
  if (owned_ && file_ != nullptr) std::fclose(file_);
}

size_t FileSource::read(std::span<uint8_t> out) {
  if (out.empty()) return 0;
  for (int attempt = 1;; ++attempt) {
    const size_t n = std::fread(out.data(), 1, out.size(), file_);
    if (n > 0 || std::ferror(file_) == 0) return n;  // data or EOF
    const int err = errno;
    std::clearerr(file_);
    if (!io_error_is_transient(err) || attempt >= retry_.max_attempts) {
      errno = err;
      throw errno_error("file read failed");
    }
    retry_.backoff(attempt);
  }
}

bool FileSource::seekable() const {
#ifdef _WIN32
  return false;
#else
  return fd_is_regular(::fileno(file_));
#endif
}

uint64_t FileSource::size() const {
#ifdef _WIN32
  throw IoError("source is not seekable", ESPIPE);
#else
  return fd_size(::fileno(file_));
#endif
}

size_t FileSource::pread(uint64_t offset, std::span<uint8_t> out) {
#ifdef _WIN32
  (void)offset;
  (void)out;
  throw IoError("source is not seekable", ESPIPE);
#else
  if (!fd_is_regular(::fileno(file_))) {
    throw IoError("source is not seekable", ESPIPE);
  }
  return fd_pread(::fileno(file_), offset, out, retry_);
#endif
}

FileSink::FileSink(const std::string& path, RetryPolicy retry)
    : file_(std::fopen(path.c_str(), "wb")),
      owned_(true),
      retry_(std::move(retry)) {
  if (file_ == nullptr) throw errno_error("cannot create " + path);
}

FileSink::~FileSink() {
  if (owned_ && file_ != nullptr) std::fclose(file_);
}

void FileSink::write(BytesView data) {
  size_t done = 0;
  int attempt = 1;
  while (done < data.size()) {
    const size_t n =
        std::fwrite(data.data() + done, 1, data.size() - done, file_);
    done += n;
    if (done == data.size()) return;
    // Partial count: a transient condition (EINTR, EAGAIN) or a short
    // write with no errno — resume from the accepted bytes per policy.
    const int err = std::ferror(file_) != 0 ? errno : kShortWriteError;
    std::clearerr(file_);
    if (!io_error_is_transient(err) || attempt >= retry_.max_attempts) {
      if (err == kShortWriteError) {
        throw IoError("file write failed: short write", kShortWriteError,
                      done);
      }
      errno = err;
      throw errno_error("file write failed", done);
    }
    retry_.backoff(attempt);
    ++attempt;
  }
}

void FileSink::flush() {
  if (std::fflush(file_) != 0) {
    throw errno_error("file flush failed");
  }
}

void FileSink::sync() {
  flush();
#ifdef _WIN32
  if (::_commit(::_fileno(file_)) != 0 && !sync_unsupported(errno)) {
    throw errno_error("file sync failed");
  }
#else
  if (::fsync(::fileno(file_)) != 0 && !sync_unsupported(errno)) {
    throw errno_error("file sync failed");
  }
#endif
}

// ---------------------------------------------------------------------
// FdSource / FdSink

size_t FdSource::read(std::span<uint8_t> out) {
  if (out.empty()) return 0;
  for (int attempt = 1;; ++attempt) {
#ifdef _WIN32
    const auto n =
        ::_read(fd_, out.data(), static_cast<unsigned>(out.size()));
#else
    ssize_t n;
    do {
      n = ::read(fd_, out.data(), out.size());
    } while (n < 0 && errno == EINTR);
#endif
    if (n >= 0) return static_cast<size_t>(n);
    const int err = errno;
    if (!io_error_is_transient(err) || attempt >= retry_.max_attempts) {
      errno = err;
      throw errno_error("fd read failed");
    }
    retry_.backoff(attempt);
  }
}

bool FdSource::seekable() const {
#ifdef _WIN32
  return false;
#else
  return fd_is_regular(fd_);
#endif
}

uint64_t FdSource::size() const {
#ifdef _WIN32
  throw IoError("source is not seekable", ESPIPE);
#else
  return fd_size(fd_);
#endif
}

size_t FdSource::pread(uint64_t offset, std::span<uint8_t> out) {
#ifdef _WIN32
  (void)offset;
  (void)out;
  throw IoError("source is not seekable", ESPIPE);
#else
  if (!fd_is_regular(fd_)) {
    throw IoError("source is not seekable", ESPIPE);
  }
  return fd_pread(fd_, offset, out, retry_);
#endif
}

void FdSink::write(BytesView data) {
  size_t done = 0;
  int attempt = 1;
  while (done < data.size()) {
#ifdef _WIN32
    const auto n = ::_write(fd_, data.data() + done,
                            static_cast<unsigned>(data.size() - done));
#else
    // A socket whose peer hung up raises SIGPIPE from ::write before it
    // can return EPIPE — fatal by default, which would let one vanished
    // client kill a whole daemon.  send(MSG_NOSIGNAL) suppresses the
    // signal per-call; non-socket fds answer ENOTSOCK once and drop to
    // the plain write path for good (no extra syscall per chunk).
    ssize_t n;
    do {
      if (plain_write_) {
        n = ::write(fd_, data.data() + done, data.size() - done);
      } else {
        n = ::send(fd_, data.data() + done, data.size() - done,
                   MSG_NOSIGNAL);
        if (n < 0 && errno == ENOTSOCK) {
          plain_write_ = true;
          n = ::write(fd_, data.data() + done, data.size() - done);
        }
      }
    } while (n < 0 && errno == EINTR);
#endif
    if (n > 0) {
      done += static_cast<size_t>(n);
      continue;
    }
    const int err = n < 0 ? errno : kShortWriteError;
    if (!io_error_is_transient(err) || attempt >= retry_.max_attempts) {
      if (err == kShortWriteError) {
        throw IoError("fd write failed: short write", kShortWriteError,
                      done);
      }
      errno = err;
      throw errno_error("fd write failed", done);
    }
    retry_.backoff(attempt);
    ++attempt;
  }
}

void FdSink::sync() {
#ifdef _WIN32
  if (::_commit(fd_) != 0 && !sync_unsupported(errno)) {
    throw errno_error("fd sync failed");
  }
#else
  int r;
  do {
    r = ::fdatasync(fd_);
  } while (r != 0 && errno == EINTR);
  if (r != 0 && !sync_unsupported(errno)) {
    throw errno_error("fd sync failed");
  }
#endif
}

// ---------------------------------------------------------------------
// AtomicFileSink

AtomicFileSink::AtomicFileSink(const std::string& path, RetryPolicy retry)
    : path_(path), retry_(std::move(retry)) {
#ifdef _WIN32
  throw IoError("atomic file sinks are not supported on this platform");
#else
  temp_path_ = path + ".tmp.XXXXXX";
  fd_ = ::mkstemp(temp_path_.data());
  if (fd_ < 0) {
    temp_path_.clear();
    throw errno_error("cannot create temp file for " + path);
  }
  // mkstemp creates 0600; rename would then publish an owner-only
  // file.  Match what the non-atomic path produced: keep a pre-existing
  // target's mode, else 0666 & ~umask like fopen("wb").  Best-effort —
  // a filesystem that refuses fchmod shouldn't fail the whole write.
  struct stat st{};
  mode_t mode;
  if (::stat(path.c_str(), &st) == 0) {
    mode = st.st_mode & 07777;
  } else {
    const mode_t mask = ::umask(0);
    ::umask(mask);
    mode = 0666 & ~mask;
  }
  (void)::fchmod(fd_, mode);
#endif
}

AtomicFileSink::~AtomicFileSink() { discard(); }

void AtomicFileSink::write(BytesView data) {
#ifndef _WIN32
  if (fd_ < 0) {
    throw IoError("write on a committed/discarded atomic sink: " + path_,
                  EBADF);
  }
  size_t done = 0;
  int attempt = 1;
  while (done < data.size()) {
    ssize_t n;
    do {
      n = ::write(fd_, data.data() + done, data.size() - done);
    } while (n < 0 && errno == EINTR);
    if (n > 0) {
      done += static_cast<size_t>(n);
      continue;
    }
    const int err = n < 0 ? errno : kShortWriteError;
    if (!io_error_is_transient(err) || attempt >= retry_.max_attempts) {
      if (err == kShortWriteError) {
        throw IoError("atomic write failed: short write", kShortWriteError,
                      done);
      }
      errno = err;
      throw errno_error("atomic write to " + temp_path_ + " failed", done);
    }
    retry_.backoff(attempt);
    ++attempt;
  }
#endif
}

void AtomicFileSink::sync() {
#ifndef _WIN32
  if (fd_ < 0) return;
  int r;
  do {
    r = ::fsync(fd_);
  } while (r != 0 && errno == EINTR);
  if (r != 0 && !sync_unsupported(errno)) {
    throw errno_error("fsync " + temp_path_ + " failed");
  }
#endif
}

void AtomicFileSink::commit() {
#ifndef _WIN32
  if (fd_ < 0 || committed_) {
    throw IoError("commit on a committed/discarded atomic sink: " + path_,
                  EBADF);
  }
  // 1. The temp file's bytes must be durable BEFORE the rename makes
  //    them visible — otherwise a crash could publish an empty name.
  int r;
  do {
    r = ::fsync(fd_);
  } while (r != 0 && errno == EINTR);
  if (r != 0) {
    IoError e = errno_error("fsync " + temp_path_ + " failed");
    discard();
    throw e;
  }
  const int fd = fd_;
  fd_ = -1;
  if (::close(fd) != 0) {
    IoError e = errno_error("close " + temp_path_ + " failed");
    discard();
    throw e;
  }
  // 2. Atomically swap the complete temp file in over the target.
  if (::rename(temp_path_.c_str(), path_.c_str()) != 0) {
    IoError e = errno_error("rename to " + path_ + " failed");
    discard();
    throw e;
  }
  committed_ = true;
  // 3. Persist the rename itself: fsync the containing directory.  The
  //    new file is already complete under the final name; a failure
  //    here is an operational error, never a torn archive.
  const size_t slash = path_.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path_.substr(0, slash + 1);
  const int dfd = ::open(dir.c_str(), O_RDONLY);
  if (dfd < 0) throw errno_error("cannot open directory " + dir);
  do {
    r = ::fsync(dfd);
  } while (r != 0 && errno == EINTR);
  const int err = errno;
  ::close(dfd);
  if (r != 0 && !sync_unsupported(err)) {
    errno = err;
    throw errno_error("fsync directory " + dir + " failed");
  }
#endif
}

void AtomicFileSink::discard() noexcept {
#ifndef _WIN32
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  if (!committed_ && !temp_path_.empty()) {
    ::unlink(temp_path_.c_str());
    temp_path_.clear();
  }
#endif
}

// ---------------------------------------------------------------------
// Sockets

#ifndef _WIN32

void OwnedFd::reset() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void OwnedFd::shutdown(int how) noexcept {
  if (fd_ >= 0) ::shutdown(fd_, how);
}

namespace {

/// Wait between accept() retries while the process is out of file
/// descriptors.
constexpr int kAcceptBackoffMs = 10;

/// Fills a sockaddr_un for `path`, rejecting paths longer than the
/// fixed sun_path field (a typed error beats silent truncation, which
/// would bind/connect a different address).
sockaddr_un unix_address(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw IoError("unix socket path too long (" +
                      std::to_string(path.size()) + " >= " +
                      std::to_string(sizeof(addr.sun_path)) + "): " + path,
                  ENAMETOOLONG);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

}  // namespace

OwnedFd connect_unix(const std::string& path) {
  const sockaddr_un addr = unix_address(path);
  OwnedFd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) throw errno_error("cannot create unix socket");
  for (;;) {
    if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return fd;
    }
    if (errno == EINTR) continue;
    throw errno_error("cannot connect to " + path);
  }
}

UnixListener::UnixListener(const std::string& path, int backlog)
    : path_(path) {
  const sockaddr_un addr = unix_address(path);
  listen_fd_ = OwnedFd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!listen_fd_.valid()) throw errno_error("cannot create unix socket");
  if (::bind(listen_fd_.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    if (errno != EADDRINUSE) throw errno_error("cannot bind " + path);
    // A socket file already exists.  Live daemon => real error; stale
    // file from a crashed predecessor (nobody accepts) => replace it.
    try {
      connect_unix(path);  // probe; the temp fd closes immediately
      throw IoError("socket " + path + " is in use by a live listener",
                    EADDRINUSE);
    } catch (const IoError& e) {
      if (e.error_code() == EADDRINUSE) throw;
    }
    ::unlink(path.c_str());
    if (::bind(listen_fd_.get(), reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      throw errno_error("cannot bind " + path);
    }
  }
  if (::listen(listen_fd_.get(), backlog) != 0) {
    const IoError err = errno_error("cannot listen on " + path);
    ::unlink(path.c_str());
    throw err;
  }
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    const IoError err = errno_error("cannot create wake pipe");
    ::unlink(path.c_str());
    throw err;
  }
  wake_read_ = OwnedFd(pipe_fds[0]);
  wake_write_ = OwnedFd(pipe_fds[1]);
}

UnixListener::~UnixListener() { ::unlink(path_.c_str()); }

OwnedFd UnixListener::accept() {
  for (;;) {
    pollfd fds[2] = {{listen_fd_.get(), POLLIN, 0},
                     {wake_read_.get(), POLLIN, 0}};
    const int n = ::poll(fds, 2, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw errno_error("poll on " + path_);
    }
    // The wake pipe wins ties: once interrupt() fired, no further
    // connection is accepted even if one is pending.
    if ((fds[1].revents & (POLLIN | POLLHUP)) != 0) return OwnedFd();
    if ((fds[0].revents & POLLIN) != 0) {
      const int fd = ::accept(listen_fd_.get(), nullptr, nullptr);
      if (fd >= 0) return OwnedFd(fd);
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE) {
        // Out of descriptors is load, not failure: the connection stays
        // queued (and the listener readable), so back off on the wake
        // pipe alone, then retry once handlers have closed theirs.
        pollfd wake = {wake_read_.get(), POLLIN, 0};
        if (::poll(&wake, 1, kAcceptBackoffMs) > 0) return OwnedFd();
        continue;
      }
      throw errno_error("accept on " + path_);
    }
  }
}

void UnixListener::interrupt() noexcept {
  // A single write(2): async-signal-safe, and the pipe is never drained
  // so every subsequent accept() sees POLLIN immediately.
  const uint8_t byte = 1;
  [[maybe_unused]] const ssize_t n =
      ::write(wake_write_.get(), &byte, 1);
}

#endif  // !_WIN32

// ---------------------------------------------------------------------
// FrameSpool

FrameSpool::FrameSpool(Backing backing) : backing_(backing) {
  if (backing_ == Backing::kTempFile) {
    file_ = std::tmpfile();  // unlinked on creation, freed on close
    if (file_ == nullptr) {
      throw errno_error("cannot create spool temp file");
    }
  }
}

FrameSpool::~FrameSpool() {
  if (file_ != nullptr) std::fclose(file_);
}

void FrameSpool::write(BytesView data) {
  if (data.empty()) return;
  if (backing_ == Backing::kMemory) {
    mem_.emplace_back(data.begin(), data.end());
  } else if (std::fwrite(data.data(), 1, data.size(), file_) !=
             data.size()) {
    throw errno_error("spool write failed");
  }
  size_ += data.size();
}

bool FrameSpool::replay_block(ByteSink& out) {
  if (backing_ == Backing::kMemory) {
    if (mem_.empty()) {
      size_ = 0;
      return false;
    }
    out.write(BytesView(mem_.front()));
    mem_.pop_front();
    return true;
  }
  if (replayed_ == 0 &&
      (std::fflush(file_) != 0 || std::fseek(file_, 0, SEEK_SET) != 0)) {
    throw errno_error("spool rewind failed");
  }
  if (replayed_ == size_) {
    if (std::fseek(file_, 0, SEEK_SET) != 0) {
      throw errno_error("spool reset failed");
    }
    size_ = 0;
    replayed_ = 0;
    return false;
  }
  block_.resize(static_cast<size_t>(
      std::min<uint64_t>(size_ - replayed_, 256 * 1024)));
  if (std::fread(block_.data(), 1, block_.size(), file_) != block_.size()) {
    throw errno_error("spool read-back failed");
  }
  out.write(BytesView(block_));
  replayed_ += block_.size();
  return true;
}

}  // namespace szsec
