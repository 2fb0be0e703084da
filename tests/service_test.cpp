// Concurrency-tier coverage of the archive service (src/service):
// keyring derivation, wire-protocol encode/parse hardening, fair-queue
// rotation, and daemon end-to-end behavior over a real Unix-domain
// socket — round trips, typed cross-tenant rejection, admission
// backpressure, and graceful drain.  Runs under the `tsan` ctest label:
// every path here is exercised with the shared pool live.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "archive/chunked.h"
#include "common/io.h"
#include "service/client.h"
#include "service/daemon.h"
#include "service/keyring.h"
#include "service/protocol.h"

namespace szsec::service {
namespace {

namespace fs = std::filesystem;

Bytes to_bytes(const std::string& s) {
  return Bytes(s.begin(), s.end());
}

std::vector<float> wave_field(size_t n) {
  std::vector<float> f(n);
  for (size_t i = 0; i < n; ++i) {
    f[i] = std::sin(static_cast<float>(i) * 0.05f) * 8.0f;
  }
  return f;
}

// Peak resident set size of this process (VmHWM) in KiB; 0 where
// /proc/self/status is unavailable.
uint64_t peak_rss_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoull(line.substr(6));
  }
  return 0;
}

Bytes field_bytes(const std::vector<float>& f) {
  Bytes b(f.size() * sizeof(float));
  std::memcpy(b.data(), f.data(), b.size());
  return b;
}

// ---------------------------------------------------------------------
// TenantKeyring

TEST(KeyringTest, AddRotateAndActiveId) {
  TenantKeyring kr;
  EXPECT_FALSE(kr.has_tenant("acme"));
  EXPECT_EQ(kr.add_key("acme", BytesView(to_bytes("master-1"))), 1u);
  EXPECT_TRUE(kr.has_tenant("acme"));
  EXPECT_EQ(kr.active_key_id("acme"), 1u);
  EXPECT_EQ(kr.rotate("acme", BytesView(to_bytes("master-2"))), 2u);
  EXPECT_EQ(kr.active_key_id("acme"), 2u);
  EXPECT_EQ(kr.tenant_count(), 1u);
  EXPECT_EQ(kr.active_key_id("nobody"), 0u);
}

TEST(KeyringTest, DeriveIsDeterministic) {
  TenantKeyring kr;
  kr.add_key("acme", BytesView(to_bytes("master-1")));
  const auto a = kr.derive_data_key("acme", 1, 16);
  const auto b = kr.derive_data_key("acme", 1, 16);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->key_id, 1u);
  EXPECT_EQ(a->key, b->key);
  EXPECT_EQ(a->key.size(), 16u);
}

TEST(KeyringTest, KeyIdZeroSelectsActiveKey) {
  TenantKeyring kr;
  kr.add_key("acme", BytesView(to_bytes("master-1")));
  kr.rotate("acme", BytesView(to_bytes("master-2")));
  const auto active = kr.derive_data_key("acme", 0, 16);
  const auto explicit2 = kr.derive_data_key("acme", 2, 16);
  ASSERT_TRUE(active.has_value());
  EXPECT_EQ(active->key_id, 2u);
  EXPECT_EQ(active->key, explicit2->key);
  // Rotation does not orphan old archives: id 1 still derives.
  const auto old = kr.derive_data_key("acme", 1, 16);
  ASSERT_TRUE(old.has_value());
  EXPECT_NE(old->key, active->key);
}

TEST(KeyringTest, TenantsWithSameMasterDeriveDistinctKeys) {
  // The HKDF info string binds the tenant name, so an identical master
  // key can never produce a shared data key across tenants.
  TenantKeyring kr;
  kr.add_key("alpha", BytesView(to_bytes("shared-master")));
  kr.add_key("beta", BytesView(to_bytes("shared-master")));
  const auto a = kr.derive_data_key("alpha", 1, 16);
  const auto b = kr.derive_data_key("beta", 1, 16);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_NE(a->key, b->key);
}

TEST(KeyringTest, UnknownTenantOrIdIsNullopt) {
  TenantKeyring kr;
  kr.add_key("acme", BytesView(to_bytes("master-1")));
  EXPECT_FALSE(kr.derive_data_key("ghost", 0, 16).has_value());
  EXPECT_FALSE(kr.derive_data_key("acme", 7, 16).has_value());
}

TEST(KeyringTest, RejectsEmptyInputsAndDuplicateIds) {
  TenantKeyring kr;
  EXPECT_THROW(kr.add_key("", BytesView(to_bytes("k"))), Error);
  EXPECT_THROW(kr.add_key("acme", BytesView()), Error);
  kr.add_key("acme", BytesView(to_bytes("k")), 5);
  EXPECT_THROW(kr.add_key("acme", BytesView(to_bytes("k")), 5), Error);
}

// ---------------------------------------------------------------------
// Wire protocol

JobRequest sample_request() {
  JobRequest req;
  req.op = JobOp::kCompress;
  req.tenant = "acme";
  req.key_id = 3;
  req.scheme = core::Scheme::kEncrQuant;
  req.mode = crypto::Mode::kCtr;
  req.authenticate = true;
  req.dtype = sz::DType::kFloat64;
  req.dims = Dims{5, 7, 9};
  req.have_dims = true;
  req.error_bound = 2.5e-3;
  req.chunks = 6;
  req.payload = to_bytes("payload-bytes");
  return req;
}

TEST(ProtocolTest, RequestRoundTrip) {
  const JobRequest req = sample_request();
  const Bytes frame = encode_request(req);
  MemorySource src{BytesView(frame)};
  const auto body = read_frame(src, kRequestMagic);
  ASSERT_TRUE(body.has_value());
  const JobRequest back = parse_request(BytesView(*body));
  EXPECT_EQ(back.op, req.op);
  EXPECT_EQ(back.tenant, req.tenant);
  EXPECT_EQ(back.key_id, req.key_id);
  EXPECT_EQ(back.scheme, req.scheme);
  EXPECT_EQ(back.mode, req.mode);
  EXPECT_EQ(back.authenticate, req.authenticate);
  EXPECT_EQ(back.dtype, req.dtype);
  ASSERT_TRUE(back.have_dims);
  EXPECT_EQ(back.dims, req.dims);
  EXPECT_EQ(back.error_bound, req.error_bound);
  EXPECT_EQ(back.chunks, req.chunks);
  EXPECT_EQ(back.payload, req.payload);
}

TEST(ProtocolTest, ResponseRoundTrip) {
  JobResponse resp;
  resp.status = Status::kCryptoError;
  resp.detail = "mac mismatch";
  resp.key_id = 9;
  resp.raw_bytes = 4096;
  resp.archive_bytes = 512;
  resp.payload = to_bytes("result");
  const Bytes frame = encode_response(resp);
  MemorySource src{BytesView(frame)};
  const auto body = read_frame(src, kResponseMagic);
  ASSERT_TRUE(body.has_value());
  const JobResponse back = parse_response(BytesView(*body));
  EXPECT_EQ(back.status, resp.status);
  EXPECT_EQ(back.detail, resp.detail);
  EXPECT_EQ(back.key_id, resp.key_id);
  EXPECT_EQ(back.raw_bytes, resp.raw_bytes);
  EXPECT_EQ(back.archive_bytes, resp.archive_bytes);
  EXPECT_EQ(back.payload, resp.payload);
  EXPECT_FALSE(back.ok());
}

TEST(ProtocolTest, CleanEofBeforeMagicIsNullopt) {
  MemorySource src{BytesView()};
  EXPECT_FALSE(read_frame(src, kRequestMagic).has_value());
}

TEST(ProtocolTest, TruncatedHeaderAndBodyAreCorrupt) {
  const Bytes frame = encode_request(sample_request());
  {
    MemorySource src{BytesView(frame).subspan(0, 5)};  // mid-header
    EXPECT_THROW(read_frame(src, kRequestMagic), CorruptError);
  }
  {
    MemorySource src{BytesView(frame).subspan(0, frame.size() - 1)};
    EXPECT_THROW(read_frame(src, kRequestMagic), CorruptError);
  }
}

TEST(ProtocolTest, BadMagicRejectedBeforeLengthIsBelieved) {
  Bytes frame = encode_request(sample_request());
  frame[0] ^= 0xFF;
  MemorySource src{BytesView(frame)};
  EXPECT_THROW(read_frame(src, kRequestMagic), CorruptError);
  // A response frame on a request stream is equally rejected.
  const Bytes resp = encode_response(JobResponse{});
  MemorySource src2{BytesView(resp)};
  EXPECT_THROW(read_frame(src2, kRequestMagic), CorruptError);
}

TEST(ProtocolTest, OversizedFrameRejected) {
  ByteWriter w;
  w.put_u32(kRequestMagic);
  w.put_u64(1ull << 40);  // body length beyond any cap
  const Bytes frame = w.take();
  MemorySource src{BytesView(frame)};
  EXPECT_THROW(read_frame(src, kRequestMagic), CorruptError);
  // A caller-supplied cap tightens the limit further.
  const Bytes small = encode_request(sample_request());
  MemorySource src2{BytesView(small)};
  EXPECT_THROW(read_frame(src2, kRequestMagic, 4), CorruptError);
}

// A header is not a promise of bytes: read_frame used to size and
// zero-fill the declared body before any of it arrived, so a 12-byte
// header claiming 256 MiB cost 256 MiB (four stalled clients took the
// daemon past 1 GiB).  The body now grows only with what arrives.
TEST(ProtocolTest, DeclaredBodyIsNotAllocatedUpFront) {
  ByteWriter w;
  w.put_u32(kRequestMagic);
  w.put_u64(uint64_t{256} << 20);
  const Bytes header = w.take();
  ASSERT_EQ(header.size(), 12u);
  const uint64_t peak_before = peak_rss_kib();
  MemorySource src{BytesView(header)};
  EXPECT_THROW(read_frame(src, kRequestMagic), CorruptError);
  EXPECT_LT(peak_rss_kib() - peak_before, uint64_t{8} * 1024)
      << "VmHWM grew by more than 8 MiB";
}

TEST(ProtocolTest, MalformedBodiesAreCorrupt) {
  const auto body_of = [](const JobRequest& req) {
    const Bytes frame = encode_request(req);
    MemorySource src{BytesView(frame)};
    return *read_frame(src, kRequestMagic);
  };
  {
    Bytes body = body_of(sample_request());
    body[0] = 99;  // unsupported protocol version
    EXPECT_THROW(parse_request(BytesView(body)), CorruptError);
  }
  {
    Bytes body = body_of(sample_request());
    body[1] = 200;  // unknown op
    EXPECT_THROW(parse_request(BytesView(body)), CorruptError);
  }
  {
    Bytes body = body_of(sample_request());
    body.push_back(0);  // trailing garbage after a valid request
    EXPECT_THROW(parse_request(BytesView(body)), CorruptError);
  }
  {
    Bytes body = body_of(sample_request());
    body.resize(body.size() - 3);  // truncated payload blob
    EXPECT_THROW(parse_request(BytesView(body)), CorruptError);
  }
}

// ---------------------------------------------------------------------
// FairTenantQueue

TEST(FairQueueTest, RoundRobinAcrossTenants) {
  FairTenantQueue q;
  std::vector<std::string> served;
  const auto job = [&served](const std::string& who) {
    return [&served, who] { served.push_back(who); };
  };
  // Tenant A floods; B and C each file one job afterwards.
  q.push("a", job("a1"));
  q.push("a", job("a2"));
  q.push("a", job("a3"));
  q.push("b", job("b1"));
  q.push("c", job("c1"));
  for (size_t i = 0; i < 5; ++i) q.pop()();
  // One job per tenant per rotation: b and c are served before a's
  // backlog drains.
  const std::vector<std::string> expected = {"a1", "b1", "c1", "a2", "a3"};
  EXPECT_EQ(served, expected);
  EXPECT_EQ(q.size(), 0u);
}

TEST(FairQueueTest, TenantRejoinsRotationAtTheBack) {
  FairTenantQueue q;
  std::vector<std::string> served;
  const auto job = [&served](const std::string& who) {
    return [&served, who] { served.push_back(who); };
  };
  q.push("a", job("a1"));
  q.push("b", job("b1"));
  q.pop()();  // a1
  q.push("a", job("a2"));  // a re-enters behind b
  q.pop()();  // b1
  q.pop()();  // a2
  const std::vector<std::string> expected = {"a1", "b1", "a2"};
  EXPECT_EQ(served, expected);
}

TEST(FairQueueTest, PopWithoutJobIsADaemonBug) {
  FairTenantQueue q;
  EXPECT_THROW(q.pop(), Error);
}

// ---------------------------------------------------------------------
// Daemon end-to-end (real socket, shared pool)

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           (std::string("szsec_service_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            "_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    socket_ = (dir_ / "sock").string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  ServiceConfig config() const {
    ServiceConfig c;
    c.socket_path = socket_;
    c.threads = 4;
    return c;
  }

  static TenantKeyring two_tenants() {
    TenantKeyring kr;
    kr.add_key("acme", BytesView(to_bytes("acme-master-key")));
    kr.add_key("globex", BytesView(to_bytes("globex-master-key")));
    return kr;
  }

  fs::path dir_;
  std::string socket_;
};

TEST_F(ServiceTest, PingEchoesPayload) {
  ServiceDaemon daemon(config(), two_tenants());
  daemon.start();
  ServiceClient client(socket_);
  const Bytes probe = to_bytes("hello-service");
  const JobResponse resp = client.ping(BytesView(probe));
  EXPECT_EQ(resp.status, Status::kOk);
  EXPECT_EQ(resp.payload, probe);
  daemon.stop();
  EXPECT_EQ(daemon.stats().jobs_completed, 1u);
}

TEST_F(ServiceTest, CompressDecompressMatchesDirectLibraryCall) {
  ServiceDaemon daemon(config(), two_tenants());
  daemon.start();

  const std::vector<float> field = wave_field(48 * 40);
  JobRequest creq;
  creq.op = JobOp::kCompress;
  creq.tenant = "acme";
  creq.scheme = core::Scheme::kEncrHuffman;
  creq.authenticate = true;
  creq.dims = Dims{48, 40};
  creq.have_dims = true;
  creq.error_bound = 1e-3;
  creq.chunks = 4;
  creq.payload = field_bytes(field);

  ServiceClient client(socket_);
  const JobResponse cresp = client.submit(creq);
  ASSERT_EQ(cresp.status, Status::kOk) << cresp.detail;
  EXPECT_EQ(cresp.key_id, 1u);
  EXPECT_EQ(cresp.raw_bytes, creq.payload.size());
  ASSERT_FALSE(cresp.payload.empty());

  // The daemon's archive decodes through a DIRECT library call with the
  // HKDF key derived the same way — proving the service adds envelope
  // key management, not a private format.
  TenantKeyring kr = two_tenants();
  const auto dk = kr.derive_data_key("acme", cresp.key_id, 16);
  ASSERT_TRUE(dk.has_value());
  MemorySource ain{BytesView(cresp.payload)};
  MemorySink aout;
  archive::ChunkedConfig cfg;
  cfg.threads = 1;
  const auto direct =
      archive::decompress_chunked_stream(ain, aout, BytesView(dk->key), cfg);
  EXPECT_EQ(direct.dims, creq.dims);

  // Service-side decompress of the same archive is byte-identical to
  // the direct decode.
  JobRequest dreq;
  dreq.op = JobOp::kDecompress;
  dreq.tenant = "acme";
  dreq.key_id = cresp.key_id;
  dreq.payload = cresp.payload;
  const JobResponse dresp = client.submit(dreq);
  ASSERT_EQ(dresp.status, Status::kOk) << dresp.detail;
  EXPECT_EQ(dresp.payload, aout.bytes());

  // And the reconstruction respects the error bound.
  ASSERT_EQ(dresp.payload.size(), field.size() * sizeof(float));
  std::vector<float> back(field.size());
  std::memcpy(back.data(), dresp.payload.data(), dresp.payload.size());
  for (size_t i = 0; i < field.size(); ++i) {
    ASSERT_LE(std::abs(back[i] - field[i]), 1e-3) << "element " << i;
  }
  daemon.stop();
}

TEST_F(ServiceTest, CrossTenantDecryptIsRejectedTyped) {
  ServiceDaemon daemon(config(), two_tenants());
  daemon.start();
  ServiceClient client(socket_);

  const std::vector<float> field = wave_field(32 * 32);
  JobRequest creq;
  creq.op = JobOp::kCompress;
  creq.tenant = "acme";
  creq.authenticate = true;  // MAC makes the wrong key a typed failure
  creq.dims = Dims{32, 32};
  creq.have_dims = true;
  creq.error_bound = 1e-3;
  creq.payload = field_bytes(field);
  const JobResponse cresp = client.submit(creq);
  ASSERT_EQ(cresp.status, Status::kOk) << cresp.detail;

  // globex is a REGISTERED tenant — its key simply cannot open acme's
  // archive.  The failure is typed crypto, never silently wrong data.
  JobRequest dreq;
  dreq.op = JobOp::kDecompress;
  dreq.tenant = "globex";
  dreq.payload = cresp.payload;
  const JobResponse dresp = client.submit(dreq);
  EXPECT_EQ(dresp.status, Status::kCryptoError) << dresp.detail;
  EXPECT_TRUE(dresp.payload.empty());

  // An unregistered tenant is a different typed failure.
  dreq.tenant = "ghost";
  EXPECT_EQ(client.submit(dreq).status, Status::kUnknownTenant);
  daemon.stop();
}

TEST_F(ServiceTest, VerifyAndSalvageJobs) {
  ServiceDaemon daemon(config(), two_tenants());
  daemon.start();
  ServiceClient client(socket_);

  const std::vector<float> field = wave_field(40 * 20);
  JobRequest creq;
  creq.op = JobOp::kCompress;
  creq.tenant = "acme";
  creq.dims = Dims{40, 20};
  creq.have_dims = true;
  creq.error_bound = 1e-3;
  creq.chunks = 4;
  creq.payload = field_bytes(field);
  const JobResponse cresp = client.submit(creq);
  ASSERT_EQ(cresp.status, Status::kOk) << cresp.detail;

  JobRequest vreq;
  vreq.op = JobOp::kVerify;
  vreq.tenant = "acme";
  vreq.payload = cresp.payload;
  EXPECT_EQ(client.submit(vreq).status, Status::kOk);

  // Corrupt one byte mid-archive: verify reports damage (typed data
  // error), salvage still recovers the intact chunks.
  Bytes damaged = cresp.payload;
  damaged[damaged.size() / 2] ^= 0xFF;
  vreq.payload = damaged;
  const JobResponse vresp = client.submit(vreq);
  EXPECT_EQ(vresp.status, Status::kDataError) << vresp.detail;

  JobRequest sreq;
  sreq.op = JobOp::kSalvage;
  sreq.tenant = "acme";
  sreq.payload = damaged;
  const JobResponse sresp = client.submit(sreq);
  EXPECT_EQ(sresp.status, Status::kOk) << sresp.detail;
  EXPECT_EQ(sresp.payload.size(), field.size() * sizeof(float));
  daemon.stop();
}

TEST_F(ServiceTest, AdmissionControlRejectsWithBackpressure) {
  ServiceConfig cfg = config();
  cfg.admission_budget_bytes = 1024;  // tiny: one small job fills it
  ServiceDaemon daemon(cfg, two_tenants());
  daemon.start();
  ServiceClient client(socket_);

  JobRequest req;
  req.op = JobOp::kPing;
  req.payload.assign(4096, 0xAB);  // payload alone exceeds the budget
  const JobResponse resp = client.submit(req);
  EXPECT_EQ(resp.status, Status::kOverloaded) << resp.detail;

  // Within budget, the same op succeeds — backpressure, not failure.
  req.payload.assign(512, 0xAB);
  EXPECT_EQ(client.submit(req).status, Status::kOk);
  daemon.stop();
  EXPECT_EQ(daemon.stats().jobs_rejected, 1u);
  EXPECT_LE(daemon.stats().peak_in_flight_bytes, 1024u);
}

TEST_F(ServiceTest, BadRequestsGetTypedAnswersAndConnectionSurvives) {
  ServiceDaemon daemon(config(), two_tenants());
  daemon.start();
  ServiceClient client(socket_);

  JobRequest req;
  req.op = JobOp::kCompress;
  req.tenant = "acme";
  // No dims: a typed bad-request, not a dropped connection.
  const JobResponse r1 = client.submit(req);
  EXPECT_EQ(r1.status, Status::kBadRequest);

  req.dims = Dims{8, 8};
  req.have_dims = true;
  req.payload.assign(7, 0);  // size mismatch vs dims
  EXPECT_EQ(client.submit(req).status, Status::kBadRequest);

  // Encrypted compress without a tenant is refused up front.
  JobRequest anon;
  anon.op = JobOp::kCompress;
  anon.scheme = core::Scheme::kEncrHuffman;
  anon.dims = Dims{8, 8};
  anon.have_dims = true;
  anon.payload.assign(8 * 8 * 4, 0);
  EXPECT_EQ(client.submit(anon).status, Status::kBadRequest);

  // The connection still works after every rejection.
  EXPECT_EQ(client.ping().status, Status::kOk);
  daemon.stop();
}

// Running out of file descriptors is load, not a fatal error: accept()
// used to throw out of the accept thread and abort the daemon.  The
// daemon runs in a child limited to 32 descriptors, 40 idle clients
// connect (the ones it cannot accept wait in the backlog) and hang up,
// and the daemon then answers a ping and drains cleanly.
TEST_F(ServiceTest, AcceptSurvivesDescriptorExhaustion) {
  int ready[2];
  int quit[2];
  ASSERT_EQ(::pipe(ready), 0);
  ASSERT_EQ(::pipe(quit), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::close(ready[0]);
    ::close(quit[1]);
    int code = 1;
    const rlimit limit{32, 32};
    if (::setrlimit(RLIMIT_NOFILE, &limit) == 0) {
      try {
        ServiceDaemon daemon(config(), two_tenants());
        daemon.start();
        uint8_t b = 1;
        if (::write(ready[1], &b, 1) == 1 && ::read(quit[0], &b, 1) >= 0) {
          daemon.stop();
          code = 0;
        }
      } catch (...) {
      }
    }
    ::_exit(code);
  }
  ::close(ready[1]);
  ::close(quit[0]);
  uint8_t b = 0;
  ASSERT_EQ(::read(ready[0], &b, 1), 1) << "daemon child did not start";
  ::close(ready[0]);
  {
    std::vector<OwnedFd> idle;
    for (int i = 0; i < 40; ++i) idle.push_back(connect_unix(socket_));
  }
  try {
    ServiceClient client(socket_);
    EXPECT_EQ(client.ping().status, Status::kOk);
  } catch (const IoError& e) {
    ADD_FAILURE() << "ping after descriptor exhaustion: " << e.what();
  }
  ::close(quit[1]);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "daemon child ended with status " << status;
}

TEST_F(ServiceTest, GarbageBytesCloseTheConnectionOnly) {
  ServiceDaemon daemon(config(), two_tenants());
  daemon.start();
  {
    // A client speaking garbage gets disconnected...
    OwnedFd fd = connect_unix(socket_);
    FdSink sink(fd.get());
    const Bytes junk = to_bytes("this is not a frame at all........");
    sink.write(BytesView(junk));
    fd.shutdown(SHUT_WR);
    FdSource src(fd.get());
    uint8_t buf[64];
    // Daemon sends nothing back (unsynchronized stream) and closes; a
    // close with our unread garbage still queued surfaces as ECONNRESET
    // rather than clean EOF — both are the same contract here.
    try {
      while (src.read(std::span<uint8_t>(buf)) > 0) {
      }
    } catch (const IoError&) {
    }
  }
  // ...and the daemon keeps serving everyone else.
  ServiceClient client(socket_);
  EXPECT_EQ(client.ping().status, Status::kOk);
  daemon.stop();
}

TEST_F(ServiceTest, DrainAnswersTypedAndFinishesInFlight) {
  ServiceDaemon daemon(config(), two_tenants());
  daemon.start();
  ServiceClient client(socket_);
  EXPECT_EQ(client.ping().status, Status::kOk);

  daemon.request_drain();
  // An already-open connection that submits after the drain began gets
  // the typed draining status (if its read slipped in before the
  // half-close) or a clean hang-up — never a hang, never a torn frame.
  try {
    const JobResponse resp = client.ping();
    EXPECT_EQ(resp.status, Status::kDraining);
  } catch (const IoError&) {
    // Connection already half-closed by the drain: equally acceptable.
  }
  daemon.wait();

  // New connections after the drain cannot reach the daemon.
  EXPECT_THROW(ServiceClient{socket_}, IoError);
}

TEST_F(ServiceTest, ConcurrentClientsAllRoundTrip) {
  ServiceDaemon daemon(config(), two_tenants());
  daemon.start();

  constexpr size_t kClients = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (size_t t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      try {
        const std::string tenant = (t % 2 == 0) ? "acme" : "globex";
        const std::vector<float> field = wave_field(24 * 24 + t);
        JobRequest creq;
        creq.op = JobOp::kCompress;
        creq.tenant = tenant;
        creq.dims = Dims{24 * 24 + t};
        creq.have_dims = true;
        creq.error_bound = 1e-3;
        creq.chunks = 2;
        creq.payload = field_bytes(field);
        ServiceClient client(socket_);
        const JobResponse cresp = client.submit(creq);
        if (cresp.status != Status::kOk) {
          ++failures;
          return;
        }
        JobRequest dreq;
        dreq.op = JobOp::kDecompress;
        dreq.tenant = tenant;
        dreq.payload = cresp.payload;
        const JobResponse dresp = client.submit(dreq);
        if (dresp.status != Status::kOk ||
            dresp.payload.size() != field.size() * sizeof(float)) {
          ++failures;
          return;
        }
        std::vector<float> back(field.size());
        std::memcpy(back.data(), dresp.payload.data(), dresp.payload.size());
        for (size_t i = 0; i < field.size(); ++i) {
          if (std::abs(back[i] - field[i]) > 1e-3) {
            ++failures;
            return;
          }
        }
      } catch (const std::exception&) {
        ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  daemon.stop();
  EXPECT_EQ(daemon.stats().jobs_completed, kClients * 2);
}

TEST_F(ServiceTest, SecondDaemonOnLiveSocketIsRefused) {
  ServiceDaemon daemon(config(), two_tenants());
  daemon.start();
  ServiceDaemon second(config(), two_tenants());
  EXPECT_THROW(second.start(), IoError);
  daemon.stop();
}

}  // namespace
}  // namespace szsec::service
