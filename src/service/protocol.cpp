#include "service/protocol.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace szsec::service {

const char* to_string(JobOp op) {
  switch (op) {
    case JobOp::kPing:
      return "ping";
    case JobOp::kCompress:
      return "compress";
    case JobOp::kDecompress:
      return "decompress";
    case JobOp::kVerify:
      return "verify";
    case JobOp::kSalvage:
      return "salvage";
  }
  return "?";
}

const char* to_string(Status s) {
  switch (s) {
    case Status::kOk:
      return "ok";
    case Status::kDataError:
      return "data-error";
    case Status::kCryptoError:
      return "crypto-error";
    case Status::kBadRequest:
      return "bad-request";
    case Status::kOverloaded:
      return "overloaded";
    case Status::kDraining:
      return "draining";
    case Status::kUnknownTenant:
      return "unknown-tenant";
    case Status::kInternalError:
      return "internal-error";
  }
  return "?";
}

namespace {

/// First body block read_frame allocates; later blocks double it.
constexpr size_t kBodyBlock = size_t{1} << 20;

/// Prepends the frame header to a finished body.
Bytes frame(uint32_t magic, ByteWriter&& body) {
  const Bytes b = body.take();
  ByteWriter out(sizeof(uint32_t) + sizeof(uint64_t) + b.size());
  out.put_u32(magic);
  out.put_u64(b.size());
  out.put_bytes(BytesView(b));
  return out.take();
}

}  // namespace

Bytes encode_request(const JobRequest& req) {
  ByteWriter w(64 + req.payload.size());
  w.put_u8(kProtocolVersion);
  w.put_u8(static_cast<uint8_t>(req.op));
  w.put_string(req.tenant);
  w.put_varint(req.key_id);
  w.put_u8(static_cast<uint8_t>(req.scheme));
  w.put_u8(static_cast<uint8_t>(req.mode));
  w.put_u8(req.authenticate ? 1 : 0);
  w.put_u8(static_cast<uint8_t>(req.dtype));
  const size_t rank = req.have_dims ? req.dims.rank() : 0;
  w.put_u8(static_cast<uint8_t>(rank));
  for (size_t i = 0; i < rank; ++i) w.put_varint(req.dims[i]);
  w.put_u64(std::bit_cast<uint64_t>(req.error_bound));
  w.put_varint(req.chunks);
  w.put_blob(BytesView(req.payload));
  return frame(kRequestMagic, std::move(w));
}

Bytes encode_response(const JobResponse& resp) {
  ByteWriter w(64 + resp.payload.size());
  w.put_u8(kProtocolVersion);
  w.put_u8(static_cast<uint8_t>(resp.status));
  w.put_string(resp.detail);
  w.put_varint(resp.key_id);
  w.put_varint(resp.raw_bytes);
  w.put_varint(resp.archive_bytes);
  w.put_blob(BytesView(resp.payload));
  return frame(kResponseMagic, std::move(w));
}

JobRequest parse_request(BytesView body) {
  ByteReader r(body);
  const uint8_t version = r.get_u8();
  SZSEC_CHECK_FORMAT(version == kProtocolVersion,
                     "unsupported protocol version");
  JobRequest req;
  const uint8_t op = r.get_u8();
  SZSEC_CHECK_FORMAT(op <= static_cast<uint8_t>(JobOp::kSalvage),
                     "unknown job op");
  req.op = static_cast<JobOp>(op);
  req.tenant = r.get_string();
  SZSEC_CHECK_FORMAT(req.tenant.size() <= kMaxTenantBytes,
                     "tenant id too long");
  req.key_id = r.get_varint();
  const uint8_t scheme = r.get_u8();
  SZSEC_CHECK_FORMAT(
      scheme <= static_cast<uint8_t>(core::Scheme::kEncrHuffman),
      "unknown scheme");
  req.scheme = static_cast<core::Scheme>(scheme);
  const uint8_t mode = r.get_u8();
  SZSEC_CHECK_FORMAT(mode <= static_cast<uint8_t>(crypto::Mode::kEcb),
                     "unknown cipher mode");
  req.mode = static_cast<crypto::Mode>(mode);
  req.authenticate = r.get_u8() != 0;
  const uint8_t dtype = r.get_u8();
  SZSEC_CHECK_FORMAT(dtype <= 1, "unknown dtype");
  req.dtype = static_cast<sz::DType>(dtype);
  const uint8_t rank = r.get_u8();
  SZSEC_CHECK_FORMAT(rank <= Dims::kMaxRank, "bad rank");
  if (rank > 0) {
    size_t extents[Dims::kMaxRank] = {};
    for (size_t i = 0; i < rank; ++i) {
      extents[i] = static_cast<size_t>(r.get_varint());
    }
    checked_field_elements(extents, rank);  // caps + overflow guard
    req.dims = Dims(std::span<const size_t>(extents, rank));
    req.have_dims = true;
  }
  req.error_bound = std::bit_cast<double>(r.get_u64());
  req.chunks = r.get_varint();
  const BytesView payload = r.get_blob();
  req.payload.assign(payload.begin(), payload.end());
  SZSEC_CHECK_FORMAT(r.done(), "trailing bytes after request");
  return req;
}

JobResponse parse_response(BytesView body) {
  ByteReader r(body);
  const uint8_t version = r.get_u8();
  SZSEC_CHECK_FORMAT(version == kProtocolVersion,
                     "unsupported protocol version");
  JobResponse resp;
  const uint8_t status = r.get_u8();
  SZSEC_CHECK_FORMAT(
      status <= static_cast<uint8_t>(Status::kInternalError),
      "unknown status");
  resp.status = static_cast<Status>(status);
  resp.detail = r.get_string();
  resp.key_id = r.get_varint();
  resp.raw_bytes = r.get_varint();
  resp.archive_bytes = r.get_varint();
  const BytesView payload = r.get_blob();
  resp.payload.assign(payload.begin(), payload.end());
  SZSEC_CHECK_FORMAT(r.done(), "trailing bytes after response");
  return resp;
}

std::optional<Bytes> read_frame(ByteSource& in, uint32_t expected_magic,
                                uint64_t max_body_bytes, BufferPool* pool) {
  uint8_t header[sizeof(uint32_t) + sizeof(uint64_t)];
  const size_t got = read_full(in, std::span<uint8_t>(header));
  if (got == 0) return std::nullopt;  // clean hang-up between frames
  SZSEC_CHECK_FORMAT(got == sizeof(header), "stream ended mid frame header");
  uint32_t magic = 0;
  uint64_t body_len = 0;
  std::memcpy(&magic, header, sizeof(magic));
  std::memcpy(&body_len, header + sizeof(magic), sizeof(body_len));
  SZSEC_CHECK_FORMAT(magic == expected_magic, "bad frame magic");
  uint64_t cap = kMaxFrameBytes;
  if (max_body_bytes != 0 && max_body_bytes < cap) cap = max_body_bytes;
  SZSEC_CHECK_FORMAT(body_len <= cap, "frame exceeds size limit");
  // The length is trusted only as far as bytes arrive: the body grows
  // in blocks of at least kBodyBlock, each no larger than what is
  // already read, so a header that claims more than its peer sends
  // costs one block, and a frame up to one block takes one read.
  PooledBytes body(pool, static_cast<size_t>(
                             std::min<uint64_t>(body_len, kBodyBlock)));
  for (Bytes& b = body.bytes(); b.size() < body_len;) {
    const size_t old = b.size();
    b.resize(static_cast<size_t>(
        std::min<uint64_t>(body_len, old + std::max(old, kBodyBlock))));
    const std::span<uint8_t> block = std::span<uint8_t>(b).subspan(old);
    SZSEC_CHECK_FORMAT(read_full(in, block) == block.size(),
                       "stream ended mid frame body");
  }
  return body.take();
}

void write_frame(ByteSink& out, BytesView frame) {
  out.write(frame);
  out.flush();
}

}  // namespace szsec::service
