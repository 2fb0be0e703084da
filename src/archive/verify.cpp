#include "archive/verify.h"

#include <optional>

#include "archive/chunk_machine.h"
#include "core/codec.h"
#include "crypto/sha256.h"

namespace szsec::archive {

namespace {

/// Checks the encrypt-then-MAC tag of one container (v2 file or v3
/// chunk payload) against the pre-derived MAC key.  `auth_key` empty
/// means the caller had no key.  On kFailed, `detail` says why.
MacCheck check_mac(BytesView container, const core::Header& h,
                   BytesView auth_key, std::string& detail) {
  if ((h.flags & core::kFlagAuthenticated) == 0) return MacCheck::kAbsent;
  if (auth_key.empty()) return MacCheck::kNoKey;
  constexpr size_t kTag = crypto::Sha256::kDigestSize;
  if (container.size() < kTag) {
    detail = "authenticated container too short";
    return MacCheck::kFailed;
  }
  const BytesView signed_part =
      container.subspan(0, container.size() - kTag);
  const BytesView tag = container.subspan(container.size() - kTag);
  const crypto::Sha256::Digest expect =
      crypto::hmac_sha256(auth_key, signed_part);
  if (!crypto::constant_time_equal(BytesView(expect.data(), expect.size()),
                                   tag)) {
    detail = "authentication tag mismatch: container tampered with "
             "or wrong key";
    return MacCheck::kFailed;
  }
  return MacCheck::kPassed;
}

/// Verifies one v3 chunk against its index entry; mirrors the strict
/// decoder's checks (ChunkedDecoder + decode_chunk) short
/// of actually decoding, so "verify clean" and "strict decode succeeds"
/// agree on everything verify can see.
VerifyChunk verify_v3_chunk(BytesView archive, const ChunkIndex& index,
                            size_t i, BytesView auth_key,
                            std::optional<sz::DType>& dtype) {
  const ChunkEntry& e = index.entries[i];
  VerifyChunk c;
  c.chunk_id = i;
  c.offset = e.offset;
  c.frame_len = e.frame_len;
  c.row_start = e.row_start;
  c.row_extent = e.row_extent;
  // Subtractive bound: offset and frame_len come from untrusted varints
  // (frame_len is only checked > 0 at index parse, and offsets are
  // running sums of frame_lens that may themselves have wrapped), so
  // the naive `offset + frame_len > size` sum can wrap uint64_t back
  // into range and admit an out-of-bounds parse_frame.
  if (e.offset > archive.size() ||
      e.frame_len > archive.size() - e.offset) {
    c.detail = "frame extends past archive end";
    return c;
  }
  const std::optional<FrameInfo> f =
      parse_frame(archive, static_cast<size_t>(e.offset));
  if (!f) {
    c.detail = "unparseable chunk frame";
    return c;
  }
  if (f->chunk_id != i || f->row_start != e.row_start ||
      f->row_extent != e.row_extent || f->frame_len != e.frame_len) {
    c.detail = "frame disagrees with index";
    return c;
  }
  if (!f->crc_ok) {
    c.detail = "chunk CRC mismatch";
    return c;
  }
  core::Header h;
  try {
    h = core::peek_header(f->container);
  } catch (const Error& ex) {
    c.detail = ex.what();
    return c;
  }
  c.detail =
      header_mismatch(h.dims, h.dtype, f->row_extent, index.dims, dtype);
  if (!c.detail.empty()) return c;
  c.mac = check_mac(f->container, h, auth_key, c.detail);
  if (c.mac == MacCheck::kFailed) return c;
  if (!dtype.has_value()) dtype = h.dtype;
  c.ok = true;
  return c;
}

VerifyReport verify_v3(BytesView archive, BytesView auth_key) {
  VerifyReport rep;
  rep.chunked = true;
  ChunkIndex index;
  try {
    index = read_chunk_index(archive);
  } catch (const Error& ex) {
    rep.prelude_detail = ex.what();
    return rep;
  }
  rep.prelude_ok = true;
  rep.dims = index.dims;
  std::optional<sz::DType> dtype;
  for (size_t i = 0; i < index.entries.size(); ++i) {
    VerifyChunk c = verify_v3_chunk(archive, index, i, auth_key, dtype);
    if (c.ok) ++rep.chunks_ok;
    rep.chunks.push_back(std::move(c));
  }
  // Same subtractive phrasing as the per-chunk bound: with a forged
  // index the sum can wrap and report absurd trailing byte counts.
  const ChunkEntry& last = index.entries.back();
  if (last.offset <= archive.size() &&
      last.frame_len <= archive.size() - last.offset) {
    rep.trailing_bytes = archive.size() - (last.offset + last.frame_len);
  }
  return rep;
}

VerifyReport verify_v2(BytesView container, BytesView auth_key) {
  VerifyReport rep;
  rep.chunked = false;
  VerifyChunk c;
  c.frame_len = container.size();
  core::Header h;
  try {
    h = core::peek_header(container);
  } catch (const Error& ex) {
    rep.prelude_detail = ex.what();
    rep.chunks.push_back(std::move(c));
    return rep;
  }
  rep.prelude_ok = true;
  rep.dims = h.dims;
  c.row_extent = h.dims[0];
  c.mac = check_mac(container, h, auth_key, c.detail);
  c.ok = c.mac != MacCheck::kFailed;
  if (c.ok) ++rep.chunks_ok;
  // The v2 payload CRC covers the plaintext payload; without a decode
  // it stays unchecked.  Everything past header + body (+ tag) is
  // trailing slack strict decode would also ignore (for authenticated
  // containers the MAC has already vouched for the exact byte count).
  const uint64_t declared =
      core::write_header(h).size() + h.payload_size +
      ((h.flags & core::kFlagAuthenticated) != 0
           ? crypto::Sha256::kDigestSize
           : 0);
  rep.trailing_bytes =
      container.size() > declared ? container.size() - declared : 0;
  rep.chunks.push_back(std::move(c));
  return rep;
}

}  // namespace

const char* to_string(MacCheck m) {
  switch (m) {
    case MacCheck::kAbsent:
      return "absent";
    case MacCheck::kNoKey:
      return "not checked (no key)";
    case MacCheck::kPassed:
      return "passed";
    default:
      return "FAILED";
  }
}

VerifyReport verify_archive(BytesView archive, BytesView key) {
  Bytes auth_key;
  if (!key.empty()) auth_key = core::codec::derive_auth_key(key);
  uint32_t magic = 0;
  if (archive.size() >= sizeof(magic)) {
    std::memcpy(&magic, archive.data(), sizeof(magic));
  }
  return magic == kChunkedMagic ? verify_v3(archive, BytesView(auth_key))
                                : verify_v2(archive, BytesView(auth_key));
}

}  // namespace szsec::archive
