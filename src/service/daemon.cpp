#include "service/daemon.h"

#include <sys/socket.h>

#include <cmath>
#include <future>
#include <utility>

#include "archive/chunked.h"
#include "archive/verify.h"
#include "common/error.h"
#include "crypto/cipher.h"

namespace szsec::service {

// ---------------------------------------------------------------------
// FairTenantQueue

void FairTenantQueue::push(const std::string& tenant,
                           std::function<void()> job) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = queues_.try_emplace(tenant);
  if (it->second.empty()) order_.push_back(tenant);
  it->second.push_back(std::move(job));
}

std::function<void()> FairTenantQueue::pop() {
  std::lock_guard<std::mutex> lock(mu_);
  SZSEC_REQUIRE(!order_.empty(), "fair queue pop without a queued job");
  const std::string tenant = std::move(order_.front());
  order_.pop_front();
  auto it = queues_.find(tenant);
  SZSEC_REQUIRE(it != queues_.end() && !it->second.empty(),
                "fair queue rotation out of sync");
  std::function<void()> job = std::move(it->second.front());
  it->second.pop_front();
  if (it->second.empty()) {
    queues_.erase(it);  // tenant leaves the rotation until its next job
  } else {
    order_.push_back(tenant);  // rotate: one job per turn
  }
  return job;
}

size_t FairTenantQueue::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& [tenant, jobs] : queues_) n += jobs.size();
  return n;
}

// ---------------------------------------------------------------------
// ServiceDaemon lifecycle

ServiceDaemon::ServiceDaemon(ServiceConfig config, TenantKeyring keyring)
    : config_(std::move(config)), keyring_(std::move(keyring)) {
  if (config_.max_frame_bytes == 0 ||
      config_.max_frame_bytes > kMaxFrameBytes) {
    config_.max_frame_bytes = kMaxFrameBytes;
  }
  if (config_.default_chunks == 0) config_.default_chunks = 4;
}

ServiceDaemon::~ServiceDaemon() { stop(); }

void ServiceDaemon::start() {
  SZSEC_REQUIRE(!started_.load(), "daemon already started");
  listener_ = std::make_unique<UnixListener>(config_.socket_path);
  pool_ = std::make_unique<parallel::ThreadPool>(config_.threads);
  started_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void ServiceDaemon::request_drain() noexcept {
  draining_.store(true, std::memory_order_release);
  // Wake the accept loop; it performs the non-signal-safe connection
  // drain on its own thread.
  if (listener_) listener_->interrupt();
}

void ServiceDaemon::wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
  // The accept loop has exited and drained the connections; join the
  // handler threads (each finishes once its in-flight job responded).
  std::vector<std::unique_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    conns.swap(connections_);
  }
  for (auto& c : conns) {
    if (c->thread.joinable()) c->thread.join();
  }
  // Destroying the pool drains any queued-but-unstarted tickets.
  pool_.reset();
  listener_.reset();
}

void ServiceDaemon::stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  request_drain();
  wait();
  started_.store(false, std::memory_order_release);
}

ServiceStats ServiceDaemon::stats() const {
  ServiceStats s;
  s.connections_accepted = connections_accepted_.load();
  s.jobs_completed = jobs_completed_.load();
  s.jobs_rejected = jobs_rejected_.load();
  s.peak_in_flight_bytes = peak_in_flight_bytes_.load();
  return s;
}

// ---------------------------------------------------------------------
// Accept / connection plumbing

void ServiceDaemon::accept_loop() {
  for (;;) {
    OwnedFd fd = listener_->accept();
    if (!fd.valid()) break;  // interrupt() — drain begins
    if (draining_.load(std::memory_order_acquire)) break;
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    auto conn = std::make_unique<Connection>();
    Connection* raw = conn.get();
    raw->fd.store(fd.get(), std::memory_order_release);
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      reap_finished_locked();
      connections_.push_back(std::move(conn));
    }
    raw->thread = std::thread(
        [this, raw, f = std::move(fd)]() mutable {
          handle_connection(raw, std::move(f));
        });
  }
  drain_connections();
}

void ServiceDaemon::drain_connections() noexcept {
  // Half-close every live connection for reading: a handler blocked in
  // read_frame() sees EOF and exits; a handler mid-job keeps its write
  // side and still delivers the response.
  std::lock_guard<std::mutex> lock(conn_mu_);
  for (auto& c : connections_) {
    const int fd = c->fd.load(std::memory_order_acquire);
    if (fd >= 0) ::shutdown(fd, SHUT_RD);  // EBADF/ENOTSOCK harmless
  }
}

void ServiceDaemon::reap_finished_locked() {
  auto it = connections_.begin();
  while (it != connections_.end()) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void ServiceDaemon::handle_connection(Connection* conn, OwnedFd fd) {
  FdSource src(fd.get());
  FdSink sink(fd.get());
  for (;;) {
    JobResponse resp;
    uint64_t cost = 0;
    bool admitted = false;
    try {
      std::optional<Bytes> body = read_frame(
          src, kRequestMagic, config_.max_frame_bytes, &buffer_pool_);
      if (!body) break;  // peer hung up (or drain half-closed us)
      try {
        JobRequest req = parse_request(BytesView(*body));
        buffer_pool_.release(std::move(*body));
        if (draining_.load(std::memory_order_acquire)) {
          resp.status = Status::kDraining;
          resp.detail = "daemon is draining; resubmit elsewhere";
        } else {
          cost = req.payload.size();
          if (!try_admit(cost)) {
            resp.status = Status::kOverloaded;
            resp.detail = "in-flight byte budget exhausted; retry later";
          } else {
            admitted = true;
            // File the job under its tenant and hand the shared pool
            // one ticket; the ticket pops whichever tenant's turn it
            // is, so heavy tenants cannot starve light ones.
            std::promise<JobResponse> done;
            std::future<JobResponse> result = done.get_future();
            queue_.push(req.tenant,
                        [this, r = std::move(req), &done]() mutable {
                          done.set_value(run_job(std::move(r)));
                        });
            std::future<void> ticket =
                pool_->submit([this] { queue_.pop()(); });
            resp = result.get();
            ticket.get();  // propagate a daemon-bug exception, if any
          }
        }
      } catch (const CorruptError& e) {
        // Malformed body inside a well-delimited frame: the stream is
        // still synchronized, so answer and keep the connection.
        resp.status = Status::kBadRequest;
        resp.detail = e.what();
      }
    } catch (const Error&) {
      // Bad magic / oversized length / mid-frame EOF: the byte stream
      // is unsynchronized — nothing further can be trusted.  Close.
      break;
    }
    if (admitted) release_admission(cost);
    jobs_completed_.fetch_add(1, std::memory_order_relaxed);
    try {
      write_frame(sink, BytesView(encode_response(resp)));
    } catch (const IoError&) {
      break;  // peer gone mid-response
    }
  }
  // Publish fd teardown before closing so drain_connections() never
  // shuts down a recycled descriptor number.
  conn->fd.store(-1, std::memory_order_release);
  fd.reset();
  conn->done.store(true, std::memory_order_release);
}

// ---------------------------------------------------------------------
// Admission control

bool ServiceDaemon::try_admit(uint64_t cost) {
  std::lock_guard<std::mutex> lock(admit_mu_);
  if (in_flight_bytes_ + cost > config_.admission_budget_bytes) {
    jobs_rejected_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  in_flight_bytes_ += cost;
  uint64_t peak = peak_in_flight_bytes_.load(std::memory_order_relaxed);
  while (in_flight_bytes_ > peak &&
         !peak_in_flight_bytes_.compare_exchange_weak(
             peak, in_flight_bytes_, std::memory_order_relaxed)) {
  }
  return true;
}

void ServiceDaemon::release_admission(uint64_t cost) {
  std::lock_guard<std::mutex> lock(admit_mu_);
  in_flight_bytes_ -= cost;
}

// ---------------------------------------------------------------------
// Job execution

JobResponse ServiceDaemon::run_job(JobRequest req) {
  JobResponse resp;
  try {
    if (req.op == JobOp::kPing) {
      resp.status = Status::kOk;
      resp.detail = "pong";
      resp.payload = std::move(req.payload);
      return resp;
    }

    // Resolve the data key.  An empty tenant is only valid for jobs
    // that need no key at all (plain-SZ, unauthenticated).
    Bytes key;
    if (!req.tenant.empty()) {
      const size_t key_bytes =
          crypto::cipher_key_size(crypto::CipherKind::kAes128);
      std::optional<DataKey> dk =
          keyring_.derive_data_key(req.tenant, req.key_id, key_bytes);
      if (!dk) {
        resp.status = Status::kUnknownTenant;
        resp.detail = "unknown tenant or key id: " + req.tenant + "#" +
                      std::to_string(req.key_id);
        return resp;
      }
      resp.key_id = dk->key_id;
      key = std::move(dk->key);
    } else if (req.op == JobOp::kCompress &&
               (req.scheme != core::Scheme::kNone || req.authenticate)) {
      resp.status = Status::kBadRequest;
      resp.detail = "encrypted or authenticated job requires a tenant";
      return resp;
    }

    // Every job runs its codec single-threaded: the shared pool already
    // provides the parallelism, one worker per job.
    archive::ChunkedConfig cfg;
    cfg.threads = 1;
    cfg.spool = FrameSpool::Backing::kMemory;

    switch (req.op) {
      case JobOp::kCompress: {
        if (!req.have_dims) {
          resp.status = Status::kBadRequest;
          resp.detail = "compress requires dims";
          return resp;
        }
        if (!(req.error_bound > 0.0) ||
            !std::isfinite(req.error_bound)) {
          resp.status = Status::kBadRequest;
          resp.detail = "error bound must be finite and positive";
          return resp;
        }
        const size_t want =
            req.dims.count() * sz::dtype_size(req.dtype);
        if (req.payload.size() != want) {
          resp.status = Status::kBadRequest;
          resp.detail = "payload is " + std::to_string(req.payload.size()) +
                        " bytes; dims " + req.dims.to_string() + " need " +
                        std::to_string(want);
          return resp;
        }
        sz::Params params;
        params.abs_error_bound = req.error_bound;
        core::CipherSpec spec;
        spec.mode = req.mode;
        spec.authenticate = req.authenticate;
        cfg.chunks = static_cast<size_t>(
            req.chunks != 0 ? req.chunks : config_.default_chunks);
        MemorySource in(BytesView(req.payload));
        MemorySink out;
        archive::compress_chunked_stream(in, out, req.dtype, req.dims,
                                         params, req.scheme,
                                         BytesView(key), spec, cfg);
        resp.raw_bytes = req.payload.size();
        resp.payload = out.take();
        resp.archive_bytes = resp.payload.size();
        resp.status = Status::kOk;
        resp.detail = "compressed " + req.dims.to_string();
        return resp;
      }
      case JobOp::kDecompress: {
        MemorySource in(BytesView(req.payload));
        MemorySink out;
        const archive::ChunkedStreamDecodeResult r =
            archive::decompress_chunked_stream(in, out, BytesView(key),
                                               cfg);
        resp.archive_bytes = req.payload.size();
        resp.payload = out.take();
        resp.raw_bytes = resp.payload.size();
        resp.status = Status::kOk;
        resp.detail = "decompressed " + r.dims.to_string();
        return resp;
      }
      case JobOp::kVerify: {
        const archive::VerifyReport report =
            archive::verify_archive(BytesView(req.payload), BytesView(key));
        resp.archive_bytes = req.payload.size();
        if (report.clean()) {
          resp.status = Status::kOk;
          resp.detail = "clean: " + std::to_string(report.chunks_ok) + "/" +
                        std::to_string(report.chunks.size()) + " chunks ok";
        } else {
          resp.status = Status::kDataError;
          resp.detail = !report.prelude_ok
                            ? "prelude: " + report.prelude_detail
                            : std::to_string(report.chunks_ok) + "/" +
                                  std::to_string(report.chunks.size()) +
                                  " chunks ok";
        }
        return resp;
      }
      case JobOp::kSalvage: {
        archive::SalvageOptions opts;
        opts.fill = archive::FallbackFill::kZeros;
        opts.threads = 1;
        MemorySource in(BytesView(req.payload));
        MemorySink out;
        const archive::ChunkedStreamSalvageResult r =
            archive::salvage_chunked_stream(in, out, BytesView(key), opts);
        resp.archive_bytes = req.payload.size();
        resp.payload = out.take();
        resp.raw_bytes = resp.payload.size();
        resp.status = Status::kOk;
        resp.detail =
            "recovered " + std::to_string(r.report.chunks_recovered) + "/" +
            std::to_string(r.report.chunks_expected) + " chunks";
        return resp;
      }
      case JobOp::kPing:
        break;  // handled above
    }
    resp.status = Status::kBadRequest;
    resp.detail = "unhandled op";
    return resp;
  } catch (const CryptoError& e) {
    resp.status = Status::kCryptoError;
    resp.detail = e.what();
  } catch (const CorruptError& e) {
    resp.status = Status::kDataError;
    resp.detail = e.what();
  } catch (const IoError& e) {
    resp.status = Status::kInternalError;
    resp.detail = e.what();
  } catch (const Error& e) {
    // SZSEC_REQUIRE failures — the request asked for something the
    // library rejects as a parameter error.
    resp.status = Status::kBadRequest;
    resp.detail = e.what();
  } catch (const std::exception& e) {
    resp.status = Status::kInternalError;
    resp.detail = e.what();
  }
  resp.payload.clear();
  return resp;
}

}  // namespace szsec::service
