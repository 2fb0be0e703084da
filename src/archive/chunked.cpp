#include "archive/chunked.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <optional>

#include "archive/chunk_machine.h"
#include "archive/slab.h"
#include "common/crc32.h"
#include "core/codec.h"

namespace szsec::archive {

std::vector<std::unique_ptr<WorkerState>> make_worker_states(
    size_t count, BytesView key) {
  std::vector<std::unique_ptr<WorkerState>> states;
  states.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    states.push_back(std::make_unique<WorkerState>(key));
  }
  return states;
}

namespace {

using core::codec::CodecRuntime;
using core::codec::RuntimeCache;
using parallel::ChunkSchedulerConfig;
using parallel::ParallelChunkScheduler;

constexpr uint64_t kMaxExtent = uint64_t{1} << 40;
constexpr size_t kMarkerSize = sizeof(uint64_t);
/// The shortest valid prelude: magic, version, rank, one dim, count,
/// one four-varint entry, CRC.
constexpr size_t kMinPrelude = 4 + 1 + 1 + 1 + 1 + 4 + 4;

Bytes make_frame(uint64_t chunk_id, uint64_t row_start, uint64_t row_extent,
                 const Bytes& container) {
  ByteWriter w(container.size() + 32);
  w.put_u64(kResyncMarker);
  w.put_varint(chunk_id);
  w.put_varint(row_start);
  w.put_varint(row_extent);
  w.put_varint(container.size());
  w.put_u32(crc32(BytesView(container)));
  w.put_bytes(BytesView(container));
  return w.take();
}

/// Finds the next resync marker at or after `pos` (byte-wise search).
size_t find_marker(BytesView archive, size_t pos) {
  uint8_t pattern[kMarkerSize];
  std::memcpy(pattern, &kResyncMarker, kMarkerSize);
  while (pos + kMarkerSize <= archive.size()) {
    const auto* hit = static_cast<const uint8_t*>(
        std::memchr(archive.data() + pos, pattern[0], archive.size() - pos));
    if (hit == nullptr) break;
    pos = static_cast<size_t>(hit - archive.data());
    if (pos + kMarkerSize > archive.size()) break;
    if (std::memcmp(archive.data() + pos, pattern, kMarkerSize) == 0) {
      return pos;
    }
    ++pos;
  }
  return archive.size();
}

/// Splits `dims` into `chunks` chunks along the slowest dimension (0 =
/// 2x `threads`, clamped to [1, dims[0]]); extents differ by at most one.
SlabPlan plan_slabs(const Dims& dims, size_t chunks, size_t threads) {
  SlabPlan plan;
  plan.count = std::clamp<size_t>(chunks != 0 ? chunks : 2 * threads, 1,
                                  dims[0]);
  plan.plane = dims.count() / dims[0];
  const size_t base = dims[0] / plan.count;
  const size_t extra = dims[0] % plan.count;
  size_t pos = 0;
  for (size_t i = 0; i < plan.count; ++i) {
    const size_t e = base + (i < extra ? 1 : 0);
    plan.start.push_back(pos);
    plan.extent.push_back(e);
    pos += e;
  }
  return plan;
}

/// Dims of one chunk: `dims` with the slowest extent replaced.
Dims slab_dims(const Dims& dims, size_t slab_extent) {
  size_t extents[Dims::kMaxRank] = {slab_extent};
  for (size_t i = 1; i < dims.rank(); ++i) extents[i] = dims[i];
  return Dims(std::span<const size_t>(extents, dims.rank()));
}

/// The cached runtime for the scheme and cipher a chunk header claims.
const CodecRuntime& runtime_for(RuntimeCache& runtimes,
                                const core::Header& h) {
  core::CipherSpec spec{h.cipher_kind, h.cipher_mode};
  spec.authenticate = (h.flags & core::kFlagAuthenticated) != 0;
  return runtimes.get(h.params, h.scheme, spec);
}

/// Marker + varint fields + CRC: the longest possible frame header.
constexpr size_t kFrameHeadMax = kMarkerSize + 4 * 10 + sizeof(uint32_t);

struct FrameHead {
  uint64_t chunk_id = 0;
  uint64_t row_start = 0;
  uint64_t row_extent = 0;
  uint64_t container_len = 0;
  uint32_t crc = 0;
  size_t head_len = 0;  ///< marker byte 0 .. container byte 0
};

/// Parses the frame header whose marker starts `v`; nullopt when the
/// bytes are malformed or implausible.  parse_frame, the strict
/// decoder's early head check and the salvage scan all read frames
/// through this one parser.
std::optional<FrameHead> parse_frame_head(BytesView v) {
  try {
    ByteReader r(v);
    if (r.get_u64() != kResyncMarker) return std::nullopt;
    FrameHead h;
    h.chunk_id = r.get_varint();
    h.row_start = r.get_varint();
    h.row_extent = r.get_varint();
    h.container_len = r.get_varint();
    h.crc = r.get_u32();
    h.head_len = r.pos();
    if (h.chunk_id > kMaxExtent || h.row_start > kMaxExtent ||
        h.row_extent == 0 || h.row_extent > kMaxExtent) {
      return std::nullopt;
    }
    return h;
  } catch (const Error&) {
    return std::nullopt;
  }
}

/// Thrown by PreludeCursor when the buffered bytes end inside the
/// prelude; never escapes parse_prelude.
struct NeedMore {
  size_t bytes;  ///< lower bound on the missing bytes, at least 1
};

/// Reads a v3 prelude from a possibly partial prefix.  Running out of
/// bytes throws NeedMore with a lower bound on what is missing: never
/// more than the rest of a valid prelude, so a caller that asks for
/// exactly that many bytes never reads into the frames.
class PreludeCursor {
 public:
  explicit PreludeCursor(BytesView bytes) : b_(bytes) {}

  uint8_t get_u8() {
    need(1);
    return b_[pos_++];
  }
  uint32_t get_u32() {
    need(sizeof(uint32_t));
    uint32_t v;
    std::memcpy(&v, b_.data() + pos_, sizeof(v));
    pos_ += sizeof(v);
    return v;
  }
  uint64_t get_varint() {
    uint64_t v = 0;
    int shift = 0;
    while (true) {
      SZSEC_CHECK_FORMAT(shift < 64, "varint too long");
      need(1);
      const uint8_t b = b_[pos_++];
      SZSEC_CHECK_FORMAT(shift < 63 || (b & 0xFE) == 0,
                         "varint overflows 64 bits");
      v |= static_cast<uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) return v;
      shift += 7;
    }
  }
  size_t pos() const { return pos_; }
  uint32_t crc_to_here() const { return crc32(b_.subspan(0, pos_)); }
  /// Records that the prelude is at least `total` bytes long.
  void at_least(uint64_t total) { floor_ = total; }

 private:
  void need(size_t n) {
    const size_t left = b_.size() - pos_;
    if (left >= n) return;
    const uint64_t to_floor = floor_ > b_.size() ? floor_ - b_.size() : 0;
    throw NeedMore{static_cast<size_t>(std::min<uint64_t>(
        std::max<uint64_t>(n - left, to_floor), kMaxWantSpan))};
  }

  BytesView b_;
  size_t pos_ = 0;
  uint64_t floor_ = kMinPrelude;
};

/// The one v3 prelude parser.  Entry offsets stay RELATIVE to
/// body_start here; parse_prelude absolutizes them.
ChunkIndex parse_chunk_index(PreludeCursor& r) {
  SZSEC_CHECK_FORMAT(r.get_u32() == kChunkedMagic, "bad archive magic");
  SZSEC_CHECK_FORMAT(r.get_u8() == kChunkedVersion,
                     "unsupported archive version");
  ChunkIndex out;
  out.dims = read_dims(r);
  const uint64_t count = r.get_varint();
  SZSEC_CHECK_FORMAT(count >= 1 && count <= out.dims[0],
                     "implausible chunk count");
  uint64_t expect_rel = 0;
  uint64_t expect_row = 0;
  for (uint64_t i = 0; i < count; ++i) {
    // Every entry left is at least four one-byte varints, then the CRC.
    r.at_least(r.pos() + 4 * (count - i) + sizeof(uint32_t));
    ChunkEntry e;
    e.offset = r.get_varint();  // relative until body_start is known
    e.frame_len = r.get_varint();
    e.row_start = r.get_varint();
    e.row_extent = r.get_varint();
    SZSEC_CHECK_FORMAT(e.offset == expect_rel, "index offsets not dense");
    SZSEC_CHECK_FORMAT(e.frame_len > 0, "empty frame");
    // row_extent is an unbounded varint here; phrase the bound
    // subtractively so row_start + row_extent can never wrap uint64_t
    // (row_start == expect_row <= dims[0] by induction).
    SZSEC_CHECK_FORMAT(e.row_start == expect_row &&
                           e.row_extent >= 1 &&
                           e.row_extent <= out.dims[0] - e.row_start,
                       "index rows inconsistent");
    expect_rel += e.frame_len;
    expect_row += e.row_extent;
    out.entries.push_back(e);
  }
  SZSEC_CHECK_FORMAT(expect_row == out.dims[0],
                     "chunks do not cover the field");
  const uint32_t computed = r.crc_to_here();
  const uint32_t declared = r.get_u32();
  SZSEC_CHECK_FORMAT(computed == declared, "index CRC mismatch");
  out.body_start = r.pos();
  return out;
}

}  // namespace

BytesView element_bytes(const core::DecompressResult& r) {
  return r.dtype == sz::DType::kFloat32
             ? BytesView(reinterpret_cast<const uint8_t*>(r.f32.data()),
                         r.f32.size() * sizeof(float))
             : BytesView(reinterpret_cast<const uint8_t*>(r.f64.data()),
                         r.f64.size() * sizeof(double));
}

std::string header_mismatch(const Dims& chunk, sz::DType chunk_dtype,
                            uint64_t row_extent,
                            const std::optional<Dims>& field_dims,
                            std::optional<sz::DType> dtype) {
  if (chunk[0] != row_extent) return "container rows != frame rows";
  if (field_dims) {
    if (chunk.rank() != field_dims->rank()) return "rank mismatch";
    for (size_t i = 1; i < chunk.rank(); ++i) {
      if (chunk[i] != (*field_dims)[i]) return "plane dims mismatch";
    }
  }
  if (dtype && chunk_dtype != *dtype) return "container dtype mismatch";
  return {};
}

std::string decode_chunk(BytesView container, uint64_t row_extent,
                         const std::optional<Dims>& field_dims,
                         std::optional<sz::DType> dtype, WorkerState& w,
                         core::codec::DecodeOptions opts,
                         core::DecompressResult& out, bool* crypto) {
  opts.pool = &w.scratch;
  try {
    const core::Header h = core::peek_header(container);
    std::string err =
        header_mismatch(h.dims, h.dtype, row_extent, field_dims, dtype);
    const size_t into = opts.into_f32.size() + opts.into_f64.size();
    if (err.empty() && into != 0 && into != h.dims.count()) {
      err = "decoded size mismatch";
    }
    if (err.empty()) {
      out = core::codec::decode_payload(runtime_for(w.runtimes, h).config(),
                                        container, opts);
    }
    return err;
  } catch (const CryptoError& ex) {
    if (crypto != nullptr) *crypto = true;
    return ex.what();
  } catch (const Error& ex) {
    return ex.what();
  }
}

std::optional<ChunkIndex> parse_prelude(BytesView prefix, size_t* need) {
  PreludeCursor r(prefix);
  try {
    ChunkIndex out = parse_chunk_index(r);
    for (ChunkEntry& e : out.entries) e.offset += out.body_start;
    return out;
  } catch (const NeedMore& m) {
    *need = m.bytes;
    return std::nullopt;
  }
}

std::optional<FrameInfo> parse_frame(BytesView archive, size_t pos) {
  // subspan(pos) with pos past the end is UB, and callers hand us
  // offsets derived from untrusted index varints — bound it here so
  // every parse site is safe by construction.
  if (pos > archive.size()) return std::nullopt;
  const BytesView at = archive.subspan(pos);
  const std::optional<FrameHead> h = parse_frame_head(at);
  if (!h || h->container_len > at.size() - h->head_len) return std::nullopt;
  FrameInfo f;
  f.chunk_id = h->chunk_id;
  f.row_start = h->row_start;
  f.row_extent = h->row_extent;
  f.offset = pos;
  f.container = at.subspan(h->head_len, static_cast<size_t>(h->container_len));
  f.frame_len = h->head_len + f.container.size();
  f.crc_ok = crc32(f.container) == h->crc;
  return f;
}

const char* to_string(ChunkStatus s) {
  switch (s) {
    case ChunkStatus::kOk:
      return "ok";
    case ChunkStatus::kRelocated:
      return "relocated";
    case ChunkStatus::kCorrupt:
      return "corrupt";
    default:
      return "missing";
  }
}

ChunkIndex read_chunk_index(BytesView archive) {
  size_t need = 0;
  std::optional<ChunkIndex> index = parse_prelude(archive, &need);
  SZSEC_CHECK_FORMAT(index.has_value(), "truncated archive prelude");
  return std::move(*index);
}

Dims chunked_dims(BytesView archive) {
  return read_chunk_index(archive).dims;
}

std::optional<uint64_t> parse_seek_trailer(BytesView trailer,
                                           uint64_t archive_size) {
  if (trailer.size() != kSeekTrailerSize) return std::nullopt;
  ByteReader r(trailer);
  const uint32_t footer_len = r.get_u32();
  if (r.get_u32() != kSeekTrailerMagic) return std::nullopt;
  // The magic IS present: from here every inconsistency is corruption of
  // a footer that once existed, not "no footer".
  SZSEC_CHECK_FORMAT(archive_size >= kSeekTrailerSize &&
                         footer_len <= archive_size - kSeekTrailerSize,
                     "seek footer length exceeds archive");
  return footer_len;
}

SeekTable parse_seek_footer(BytesView footer, uint64_t archive_size) {
  SZSEC_CHECK_FORMAT(archive_size >= footer.size() + kSeekTrailerSize,
                     "seek footer larger than archive");
  // Frames live strictly before the footer; a footer entry pointing into
  // the footer itself (or past the end) is forged.
  const uint64_t frame_region_end =
      archive_size - kSeekTrailerSize - footer.size();
  ByteReader r(footer);
  SZSEC_CHECK_FORMAT(r.get_u32() == kSeekFooterMagic,
                     "bad seek footer magic");
  SZSEC_CHECK_FORMAT(r.get_u8() == kSeekFooterVersion,
                     "unsupported seek footer version");
  const uint8_t dtype_byte = r.get_u8();
  SZSEC_CHECK_FORMAT(dtype_byte <= 1, "bad seek footer dtype");
  SeekTable out;
  out.dims = read_dims(r);
  out.dtype = dtype_byte == 0 ? sz::DType::kFloat32 : sz::DType::kFloat64;
  out.from_footer = true;
  out.plane = out.dims.count() / out.dims[0];
  const uint64_t count = r.get_varint();
  SZSEC_CHECK_FORMAT(count >= 1 && count <= out.dims[0],
                     "implausible chunk count");
  uint64_t expect_off = 0;  // 0 = first entry (any prelude size)
  uint64_t expect_row = 0;
  for (uint64_t i = 0; i < count; ++i) {
    SeekEntry e;
    e.offset = r.get_varint();
    e.frame_len = r.get_varint();
    e.row_start = r.get_varint();
    e.row_extent = r.get_varint();
    e.elem_start = r.get_varint();
    e.elem_count = r.get_varint();
    SZSEC_CHECK_FORMAT(e.frame_len > 0, "empty frame");
    // Subtractive: offset and frame_len are untrusted varints whose sum
    // can wrap uint64_t (same idiom as the prelude index parse).
    SZSEC_CHECK_FORMAT(e.offset <= frame_region_end &&
                           e.frame_len <= frame_region_end - e.offset,
                       "seek entry extends past the frame region");
    SZSEC_CHECK_FORMAT(i == 0 || e.offset == expect_off,
                       "seek entry offsets not dense");
    SZSEC_CHECK_FORMAT(e.row_start == expect_row && e.row_extent >= 1 &&
                           e.row_extent <= out.dims[0] - e.row_start,
                       "seek entry rows inconsistent");
    // The element range is redundant with rows x plane; requiring exact
    // agreement is what catches a forged overlap/gap/overflow here (the
    // products cannot wrap: rows are bounded by dims[0] above, so both
    // sides are <= dims.count() <= kMaxElements).
    SZSEC_CHECK_FORMAT(e.elem_start == e.row_start * out.plane &&
                           e.elem_count == e.row_extent * out.plane,
                       "seek entry element range disagrees with rows");
    expect_off = e.offset + e.frame_len;
    expect_row += e.row_extent;
    out.entries.push_back(e);
  }
  SZSEC_CHECK_FORMAT(expect_row == out.dims[0],
                     "chunks do not cover the field");
  const uint32_t computed = crc32(footer.subspan(0, r.pos()));
  const uint32_t declared = r.get_u32();
  SZSEC_CHECK_FORMAT(computed == declared, "seek footer CRC mismatch");
  SZSEC_CHECK_FORMAT(r.pos() == footer.size(),
                     "seek footer has trailing bytes");
  return out;
}

uint64_t seek_footer_suffix_bytes(BytesView archive) noexcept {
  // Structural probe only: trailer framing plus the footer's leading
  // magic + version.  The salvage path calls this on damaged archives
  // where a full parse_seek_footer would rightly fail (frames dropped
  // or shifted out from under the footer's offsets), yet the footer
  // bytes themselves are still not field data and must not be counted
  // as unexplained damage.
  if (archive.size() < kSeekTrailerSize + 6) return 0;
  ByteReader t(archive.subspan(archive.size() - kSeekTrailerSize));
  uint32_t footer_len = 0;
  try {
    footer_len = t.get_u32();
    if (t.get_u32() != kSeekTrailerMagic) return 0;
  } catch (const Error&) {
    return 0;
  }
  if (footer_len < 6 ||
      footer_len > archive.size() - kSeekTrailerSize) {
    return 0;
  }
  ByteReader f(archive.subspan(
      archive.size() - kSeekTrailerSize - footer_len, footer_len));
  try {
    if (f.get_u32() != kSeekFooterMagic ||
        f.get_u8() != kSeekFooterVersion) {
      return 0;
    }
  } catch (const Error&) {
    return 0;
  }
  return footer_len + kSeekTrailerSize;
}

SeekTable seek_table_from_index(const ChunkIndex& index) {
  SeekTable out;
  out.dims = index.dims;
  out.from_footer = false;
  out.plane = index.dims.count() / index.dims[0];
  out.entries.reserve(index.entries.size());
  for (const ChunkEntry& e : index.entries) {
    out.entries.push_back(SeekEntry{e.offset, e.frame_len, e.row_start,
                                    e.row_extent, e.row_start * out.plane,
                                    e.row_extent * out.plane});
  }
  return out;
}

SeekTable read_seek_table(BytesView archive) {
  if (archive.size() >= kSeekTrailerSize) {
    const BytesView trailer =
        archive.subspan(archive.size() - kSeekTrailerSize);
    if (const std::optional<uint64_t> footer_len =
            parse_seek_trailer(trailer, archive.size())) {
      const size_t footer_start = archive.size() - kSeekTrailerSize -
                                  static_cast<size_t>(*footer_len);
      return parse_seek_footer(
          archive.subspan(footer_start,
                          static_cast<size_t>(*footer_len)),
          archive.size());
    }
  }
  return seek_table_from_index(read_chunk_index(archive));
}

// ---------------------------------------------------------------------
// Drivers

size_t ChunkMachine::feed(BytesView in) {
  size_t taken = 0;
  while (true) {
    drain();
    if (taken == in.size()) return taken;
    const std::span<uint8_t> span = want();
    if (span.empty()) return taken;
    const size_t n = std::min(span.size(), in.size() - taken);
    std::memcpy(span.data(), in.data() + taken, n);
    filled(n);
    taken += n;
  }
}

void drive(ChunkMachine& m, ByteSource& in) {
  while (true) {
    m.drain();
    const std::span<uint8_t> span = m.want();
    if (span.empty()) break;
    const size_t n = read_full(in, span);
    m.filled(n);
    if (n < span.size()) {
      m.finish();
      m.drain();
      break;
    }
  }
  if (!m.done()) throw Error("chunk machine stalled before its output");
}

// ---------------------------------------------------------------------
// Encoder

ChunkedEncoder::ChunkedEncoder(ByteSink& out, sz::DType dtype,
                               const Dims& dims, const sz::Params& params,
                               core::Scheme scheme, BytesView key,
                               const core::CipherSpec& spec,
                               const ChunkedConfig& config,
                               crypto::CtrDrbg* seed_drbg, Framing framing)
    : out_(&out),
      dtype_(dtype),
      dims_(dims),
      framing_(framing),
      seek_table_(config.seek_table && framing == Framing::kV3Chunked),
      runtime_(params, scheme, key, spec),
      spool_(framing == Framing::kV3Chunked ? config.spool
                                            : FrameSpool::Backing::kMemory),
      sched_(ChunkSchedulerConfig{config.threads, config.max_in_flight},
             [this](size_t i, Product&& p) { commit(i, std::move(p)); }) {
  plan_ = plan_slabs(dims, config.chunks, sched_.thread_count());
  // Per-chunk DRBGs are derived serially from the master BEFORE fan-out,
  // so chunk i's IV depends only on its index and the seed — the archive
  // bytes are identical for every thread count.
  crypto::CtrDrbg& master =
      seed_drbg != nullptr ? *seed_drbg : crypto::global_drbg();
  drbgs_.reserve(plan_.count);
  for (size_t i = 0; i < plan_.count; ++i) {
    drbgs_.emplace_back(BytesView(master.generate(32)));
  }
  frame_len_.assign(plan_.count, 0);
  result_.chunk_count = plan_.count;
}

bool ChunkedEncoder::input_complete() const {
  return next_ == plan_.count ||
         (next_ + 1 == plan_.count && !raw_.empty() && got_ == raw_.size());
}

std::span<uint8_t> ChunkedEncoder::want() {
  if (stage_ != Stage::kInput) return {};
  if (raw_.empty()) {
    // Raw chunk buffers are recycled: the worker releases each one after
    // encoding, so steady state allocates nothing per chunk.
    const size_t bytes =
        plan_.extent[next_] * plan_.plane * sz::dtype_size(dtype_);
    raw_ = input_pool_.acquire(bytes);
    raw_.resize(bytes);
    got_ = 0;
  }
  return std::span<uint8_t>(raw_).subspan(got_);
}

bool ChunkedEncoder::step() {
  switch (stage_) {
    case Stage::kInput: {
      if (raw_.empty() || got_ < raw_.size()) return false;
      const size_t i = next_++;
      if (next_ == plan_.count) stage_ = Stage::kCommit;
      sched_.submit([this, i, raw = std::move(raw_)](size_t,
                                                      size_t) mutable {
        const Dims slab = slab_dims(dims_, plan_.extent[i]);
        core::CompressResult r =
            dtype_ == sz::DType::kFloat32
                ? core::codec::encode_payload(
                      runtime_.config(),
                      std::span<const float>(
                          reinterpret_cast<const float*>(raw.data()),
                          raw.size() / sizeof(float)),
                      slab, &drbgs_[i])
                : core::codec::encode_payload(
                      runtime_.config(),
                      std::span<const double>(
                          reinterpret_cast<const double*>(raw.data()),
                          raw.size() / sizeof(double)),
                      slab, &drbgs_[i]);
        input_pool_.release(std::move(raw));
        return Product{framing_ == Framing::kV1Slab
                           ? std::move(r.container)
                           : make_frame(i, plan_.start[i], plan_.extent[i],
                                        r.container),
                       r.stats, std::move(r.times)};
      });
      raw_ = Bytes();
      got_ = 0;
      return true;
    }
    case Stage::kCommit:
      if (!sched_.commit_next()) seal();
      return true;
    case Stage::kFrames:
      if (!spool_.replay_block(out_)) {
        if (seek_table_) out_.write(BytesView(footer_));
        out_.flush();
        result_.archive_bytes = out_.count();
        result_.stats.container_bytes = out_.count();
        stage_ = Stage::kDone;
      }
      return true;
    case Stage::kDone:
      return false;
  }
  return false;
}

void ChunkedEncoder::finish() {
  if (!input_complete()) {
    throw IoError("input stream ended mid-field (chunk " +
                  std::to_string(next_) + ")");
  }
}

void ChunkedEncoder::commit(size_t i, Product&& p) {
  if (framing_ == Framing::kV1Slab) {
    ByteWriter w;
    if (i == 0) {
      w.put_u32(kSlabMagic);
      w.put_u8(kSlabVersion);
      w.put_u8(static_cast<uint8_t>(dims_.rank()));
      for (size_t d = 0; d < dims_.rank(); ++d) w.put_varint(dims_[d]);
      w.put_varint(plan_.count);
    }
    w.put_varint(p.frame.size());
    out_.write(BytesView(w.bytes()));
    out_.write(BytesView(p.frame));
  } else {
    frame_len_[i] = p.frame.size();
    spool_.write(BytesView(p.frame));
  }
  core::CompressStats& s = result_.stats;
  s.raw_bytes += p.stats.raw_bytes;
  s.payload_bytes += p.stats.payload_bytes;
  s.tree_bytes += p.stats.tree_bytes;
  s.codeword_bytes += p.stats.codeword_bytes;
  s.unpredictable_bytes += p.stats.unpredictable_bytes;
  s.unpredictable_count += p.stats.unpredictable_count;
  s.element_count += p.stats.element_count;
  s.encrypted_bytes += p.stats.encrypted_bytes;
  weighted_predictable_ +=
      p.stats.predictable_fraction * p.stats.element_count;
  result_.times.merge(p.times);
}

void ChunkedEncoder::seal() {
  result_.stats.predictable_fraction =
      result_.stats.element_count == 0
          ? 0
          : weighted_predictable_ / result_.stats.element_count;
  stage_ = Stage::kFrames;
  if (framing_ == Framing::kV1Slab) return;  // every slab is out already
  ByteWriter w;
  w.put_u32(kChunkedMagic);
  w.put_u8(kChunkedVersion);
  w.put_u8(static_cast<uint8_t>(dims_.rank()));
  for (size_t i = 0; i < dims_.rank(); ++i) w.put_varint(dims_[i]);
  w.put_varint(plan_.count);
  uint64_t rel = 0;
  for (size_t i = 0; i < plan_.count; ++i) {
    w.put_varint(rel);
    w.put_varint(frame_len_[i]);
    w.put_varint(plan_.start[i]);
    w.put_varint(plan_.extent[i]);
    rel += frame_len_[i];
  }
  w.put_u32(crc32(BytesView(w.bytes())));
  const Bytes prelude = w.take();
  if (seek_table_) {
    // Footer offsets are ABSOLUTE (prelude + relative frame offset), so
    // a seekable reader needs no prelude parse at all; elem ranges are
    // redundant with rows x plane by construction — the parser
    // cross-checks them, which is what makes a forged footer detectable.
    ByteWriter fw;
    fw.put_u32(kSeekFooterMagic);
    fw.put_u8(kSeekFooterVersion);
    fw.put_u8(dtype_ == sz::DType::kFloat32 ? 0 : 1);
    fw.put_u8(static_cast<uint8_t>(dims_.rank()));
    for (size_t i = 0; i < dims_.rank(); ++i) fw.put_varint(dims_[i]);
    fw.put_varint(plan_.count);
    uint64_t abs = prelude.size();
    for (size_t i = 0; i < plan_.count; ++i) {
      fw.put_varint(abs);
      fw.put_varint(frame_len_[i]);
      fw.put_varint(plan_.start[i]);
      fw.put_varint(plan_.extent[i]);
      fw.put_varint(plan_.start[i] * plan_.plane);
      fw.put_varint(plan_.extent[i] * plan_.plane);
      abs += frame_len_[i];
    }
    fw.put_u32(crc32(BytesView(fw.bytes())));
    const size_t footer_len = fw.bytes().size();
    SZSEC_REQUIRE(footer_len <= std::numeric_limits<uint32_t>::max(),
                  "seek-table footer too large");
    fw.put_u32(static_cast<uint32_t>(footer_len));
    fw.put_u32(kSeekTrailerMagic);
    footer_ = fw.take();
  }
  out_.write(BytesView(prelude));
}

ChunkedStreamResult compress_chunked_stream(
    ByteSource& in, ByteSink& out, sz::DType dtype, const Dims& dims,
    const sz::Params& params, core::Scheme scheme, BytesView key,
    const core::CipherSpec& spec, const ChunkedConfig& config,
    crypto::CtrDrbg* seed_drbg) {
  ChunkedEncoder m(out, dtype, dims, params, scheme, key, spec, config,
                   seed_drbg);
  drive(m, in);
  return m.result();
}

ChunkedCompressResult compress_chunked(std::span<const float> data,
                                       const Dims& dims,
                                       const sz::Params& params,
                                       core::Scheme scheme, BytesView key,
                                       const core::CipherSpec& spec,
                                       const ChunkedConfig& config,
                                       crypto::CtrDrbg* seed_drbg) {
  return compress_in_memory(data, dims, params, scheme, key, spec, config,
                            seed_drbg, Framing::kV3Chunked);
}

ChunkedCompressResult compress_chunked(std::span<const double> data,
                                       const Dims& dims,
                                       const sz::Params& params,
                                       core::Scheme scheme, BytesView key,
                                       const core::CipherSpec& spec,
                                       const ChunkedConfig& config,
                                       crypto::CtrDrbg* seed_drbg) {
  return compress_in_memory(data, dims, params, scheme, key, spec, config,
                            seed_drbg, Framing::kV3Chunked);
}

// ---------------------------------------------------------------------
// Strict decoder

ChunkedDecoder::ChunkedDecoder(ByteSink& out, BytesView key,
                               const ChunkedConfig& config,
                               std::optional<sz::DType> expect)
    : out_(out),
      expect_(expect),
      metrics_(config.metrics),
      prelude_need_(kMinPrelude),
      sched_(ChunkSchedulerConfig{config.threads, config.max_in_flight},
             [this](size_t i, DecodedChunk&& d) {
               commit_decoded(i, std::move(d), out_, result_, metrics_);
             }) {
  workers_ = make_worker_states(sched_.thread_count(), key);
}

bool ChunkedDecoder::frames_in() const {
  const size_t n = index_->entries.size();
  return next_ == n ||
         (next_ + 1 == n && frame_got_ == index_->entries[next_].frame_len);
}

std::span<uint8_t> ChunkedDecoder::want() {
  if (!index_) {
    // The prelude arrives in exactly the bytes the parser proved it is
    // missing, so no frame byte is ever read into this buffer.
    if (prelude_got_ == prelude_.size()) {
      prelude_.resize(prelude_got_ + prelude_need_);
    }
    return std::span<uint8_t>(prelude_).subspan(prelude_got_);
  }
  if (next_ == index_->entries.size()) return {};
  if (frame_got_ == frame_.size()) {
    // frame_len is an untrusted varint with no total size to bound it
    // against: the frame head comes alone first and must agree with the
    // index before any container byte is read, and the buffer then
    // grows by bounded blocks as bytes actually arrive — never by the
    // claimed length up front.
    const uint64_t len = index_->entries[next_].frame_len;
    const uint64_t step =
        frame_got_ == 0 ? std::min<uint64_t>(len, kFrameHeadMax)
                        : std::min<uint64_t>(len - frame_got_, kMaxWantSpan);
    if (frame_got_ == 0) {
      frame_ = frame_pool_.acquire(
          static_cast<size_t>(std::min<uint64_t>(len, kMaxWantSpan)));
    }
    frame_.resize(frame_got_ + static_cast<size_t>(step));
  }
  return std::span<uint8_t>(frame_).subspan(frame_got_);
}

void ChunkedDecoder::filled(size_t n) {
  if (index_) {
    const ChunkEntry& e = index_->entries[next_];
    const uint64_t head = std::min<uint64_t>(e.frame_len, kFrameHeadMax);
    const bool head_done = frame_got_ < head && frame_got_ + n >= head;
    frame_got_ += n;
    if (!head_done) return;
    const std::optional<FrameHead> fh =
        parse_frame_head(BytesView(frame_.data(), frame_got_));
    SZSEC_CHECK_FORMAT(fh.has_value(), "unparseable chunk frame");
    SZSEC_CHECK_FORMAT(fh->chunk_id == next_ &&
                           fh->row_start == e.row_start &&
                           fh->row_extent == e.row_extent &&
                           fh->head_len <= e.frame_len &&
                           fh->container_len == e.frame_len - fh->head_len,
                       "frame disagrees with index");
    return;
  }
  prelude_got_ += n;
  if (prelude_got_ < prelude_.size()) return;
  index_ = parse_prelude(BytesView(prelude_.data(), prelude_got_),
                         &prelude_need_);
  if (!index_) return;
  result_.dims = index_->dims;
  result_.chunk_count = index_->entries.size();
  prelude_ = Bytes();
}

bool ChunkedDecoder::step() {
  if (!index_ || done_) return false;
  if (next_ < index_->entries.size()) {
    if (frame_got_ < index_->entries[next_].frame_len) return false;
    submit_frame();
    return true;
  }
  if (sched_.commit_next()) return true;
  out_.flush();
  done_ = true;
  return true;
}

void ChunkedDecoder::finish() {
  SZSEC_CHECK_FORMAT(index_.has_value(), "truncated archive prelude");
  SZSEC_CHECK_FORMAT(frames_in(), "frame extends past archive end");
}

void ChunkedDecoder::submit_frame() {
  ++next_;
  sched_.submit([this, frame = std::move(frame_)](size_t worker,
                                                   size_t) mutable {
    // The head already agreed with the index (filled()); what is left to
    // check is the container's CRC.
    const std::optional<FrameInfo> f = parse_frame(BytesView(frame), 0);
    SZSEC_CHECK_FORMAT(f.has_value(), "unparseable chunk frame");
    SZSEC_CHECK_FORMAT(f->crc_ok, "chunk CRC mismatch");
    // Decode failures are error *values*; the commit turns them into
    // "chunk i: reason" in index order.
    DecodedChunk d;
    d.error = decode_chunk(f->container, f->row_extent, index_->dims,
                           expect_, *workers_[worker], {}, d.r, &d.crypto);
    frame_pool_.release(std::move(frame));
    return d;
  });
  frame_ = Bytes();
  frame_got_ = 0;
}

void commit_decoded(size_t i, DecodedChunk&& d, ByteSink& out,
                    ChunkedStreamDecodeResult& result,
                    PipelineMetrics* metrics) {
  if (!d.error.empty()) {
    const std::string msg = "chunk " + std::to_string(i) + ": " + d.error;
    if (d.crypto) throw CryptoError(msg);
    throw CorruptError(msg);
  }
  if (i == 0) {
    result.dtype = d.r.dtype;
  } else if (d.r.dtype != result.dtype) {
    throw CorruptError("chunk " + std::to_string(i) +
                       ": container dtype mismatch");
  }
  const BytesView bytes = element_bytes(d.r);
  out.write(bytes);
  result.elements += bytes.size() / sz::dtype_size(d.r.dtype);
  result.element_bytes += bytes.size();
  if (metrics != nullptr) metrics->merge(d.r.times);
}

ChunkedStreamDecodeResult decompress_chunked_stream(
    ByteSource& in, ByteSink& out, BytesView key,
    const ChunkedConfig& config) {
  ChunkedDecoder m(out, key, config);
  drive(m, in);
  return m.result();
}

namespace {

template <typename T>
std::vector<T> decode_field(BytesView archive, BytesView key,
                            const ChunkedConfig& config) {
  FieldSink<T> sink;
  ChunkedDecoder m(sink, key, config, dtype_of<T>());
  m.feed(archive);
  m.finish();
  m.drain();
  return std::move(sink.field);
}

}  // namespace

std::vector<float> decompress_chunked_f32(BytesView archive, BytesView key,
                                          const ChunkedConfig& config) {
  return decode_field<float>(archive, key, config);
}

std::vector<double> decompress_chunked_f64(BytesView archive, BytesView key,
                                           const ChunkedConfig& config) {
  return decode_field<double>(archive, key, config);
}

// ---------------------------------------------------------------------
// Salvager and its row sinks

namespace {

/// A scanned frame claiming a container longer than this is treated as
/// a marker false-positive — the window (and therefore RSS) never grows
/// past one such cap during salvage.  A frame whose head agrees with its
/// intact index entry is read at the index's length instead.
constexpr uint64_t kMaxStreamContainer = uint64_t{1} << 31;
/// The prelude parse stops growing the window here; a (legitimate)
/// index larger than this degrades to scan-only recovery.
constexpr size_t kMaxStreamPrelude = size_t{16} << 20;
/// Read-ahead block while hunting for the next resync marker.
constexpr size_t kScanBlock = size_t{256} << 10;
/// Fill rows go out in blocks of about this many bytes.
constexpr size_t kFillBlock = size_t{1} << 20;

/// The in-memory field sink: rows land at their row offset in any
/// order, and rows that overlap rows already placed are refused (first
/// come, first kept).  finish() takes the mean of the placed rows in row
/// order, when the fill asks for it, before filling the rest.
template <typename T>
class FieldRowSink final : public RowSink {
 public:
  explicit FieldRowSink(FallbackFill fill) : fill_(fill) {}

  std::optional<sz::DType> dtype() const override { return dtype_of<T>(); }

  std::string put(uint64_t row_start, core::DecompressResult&& chunk,
                  uint64_t field_rows, size_t plane) override {
    placed_.resize(field_rows, 0);
    field.resize(field_rows * plane);
    const auto first = placed_.begin() + static_cast<std::ptrdiff_t>(row_start);
    const auto last = first + static_cast<std::ptrdiff_t>(chunk.dims[0]);
    if (std::find(first, last, 1) != last) {
      return "rows overlap an already-recovered chunk";
    }
    std::fill(first, last, 1);
    const BytesView rows = element_bytes(chunk);
    std::memcpy(field.data() + row_start * plane, rows.data(), rows.size());
    return {};
  }

  void finish(uint64_t rows, size_t plane) override {
    placed_.resize(rows, 0);
    field.resize(rows * plane);
    T fill = fill_ == FallbackFill::kNaN ? std::numeric_limits<T>::quiet_NaN()
                                         : T{0};
    double sum = 0;
    uint64_t n = 0;
    for (uint64_t r = 0; fill_ == FallbackFill::kMean && r < rows; ++r) {
      if (placed_[r] == 0) continue;
      for (size_t i = 0; i < plane; ++i) sum += field[r * plane + i];
      n += plane;
    }
    if (n > 0) fill = static_cast<T>(sum / static_cast<double>(n));
    for (uint64_t r = 0; r < rows; ++r) {
      if (placed_[r] != 0) continue;
      std::fill_n(field.begin() + static_cast<std::ptrdiff_t>(r * plane),
                  plane, fill);
    }
  }

  std::vector<T> field;

 private:
  FallbackFill fill_;
  std::vector<uint8_t> placed_;  ///< per row: a chunk filled it
};

}  // namespace

StreamRowSink::StreamRowSink(ByteSink& out, FallbackFill fill)
    : out_(out), nan_(fill == FallbackFill::kNaN) {
  SZSEC_REQUIRE(fill != FallbackFill::kMean,
                "a stream cannot carry the mean fill: it is known only "
                "after the last recovered row; use kZeros or kNaN");
}

std::string StreamRowSink::put(uint64_t row_start,
                               core::DecompressResult&& chunk,
                               uint64_t field_rows, size_t plane) {
  if (row_start < rows_done_) {
    return "rows precede already-written rows (stream order)";
  }
  if (row_bytes_ == 0) {
    // The first chunk fixes the element type: whole rows of fill values.
    row_bytes_ = plane * sz::dtype_size(chunk.dtype);
    const size_t n = plane * std::max<size_t>(1, std::min<uint64_t>(
                                                     kFillBlock / row_bytes_,
                                                     field_rows));
    fill_.dtype = chunk.dtype;
    if (chunk.dtype == sz::DType::kFloat32) {
      fill_.f32.assign(n, nan_ ? std::numeric_limits<float>::quiet_NaN() : 0);
    } else {
      fill_.f64.assign(n, nan_ ? std::numeric_limits<double>::quiet_NaN() : 0);
    }
  }
  fill_rows_ = row_start - rows_done_;
  rows_done_ = row_start + chunk.dims[0];
  chunk_ = std::move(chunk);
  return {};
}

void StreamRowSink::finish(uint64_t rows, size_t) {
  if (row_bytes_ != 0 && rows > rows_done_) fill_rows_ = rows - rows_done_;
  flush_ = true;
}

bool StreamRowSink::step() {
  if (fill_rows_ > 0) {
    const BytesView block = element_bytes(fill_);
    const uint64_t rows =
        std::min<uint64_t>(fill_rows_, block.size() / row_bytes_);
    out_.write(block.first(static_cast<size_t>(rows) * row_bytes_));
    fill_rows_ -= rows;
  } else if (chunk_) {
    out_.write(element_bytes(*chunk_));
    chunk_.reset();
  } else if (flush_) {
    out_.flush();
    flush_ = false;
  } else {
    return false;
  }
  return true;
}

ChunkedSalvager::ChunkedSalvager(RowSink& rows, BytesView key,
                                 const SalvageOptions& opts,
                                 std::optional<uint64_t> frame_region_end)
    : rows_(rows),
      dtype_(rows.dtype()),
      region_end_(
          frame_region_end.value_or(std::numeric_limits<uint64_t>::max())),
      want_(kMinPrelude),
      sched_(ChunkSchedulerConfig{opts.threads, 0},
             [this](size_t, Decoded&& d) { commit(std::move(d)); }) {
  workers_ = make_worker_states(sched_.thread_count(), key);
}

std::span<uint8_t> ChunkedSalvager::want() {
  if (eof_ || phase_ > Phase::kScan) return {};
  if (win_.size() < have_ + want_) win_.resize(have_ + want_);
  return std::span<uint8_t>(win_).subspan(have_, want_);
}

void ChunkedSalvager::filled(size_t n) {
  have_ += n;
  if (phase_ != Phase::kPrelude) return;
  want_ -= n;
  if (want_ == 0) try_prelude();
}

void ChunkedSalvager::finish() {
  eof_ = true;
  // The parser asks for no more than the prelude still lacks, so a short
  // final span means the prelude never completed.
  if (phase_ == Phase::kPrelude) begin_scan(std::nullopt);
}

void ChunkedSalvager::drop_before(uint64_t abs) {
  const size_t n = static_cast<size_t>(std::min<uint64_t>(abs - start_, have_));
  std::memmove(win_.data(), win_.data() + n, have_ - n);
  have_ -= n;
  start_ += n;
}

void ChunkedSalvager::try_prelude() {
  // A strict prelude parse over the bytes so far: truncation asks for
  // more, genuine corruption falls through to scan-only recovery (the
  // buffered bytes stay in the window, so no frame hiding in a damaged
  // prelude is lost).
  std::optional<ChunkIndex> index;
  try {
    size_t need = 0;
    index = parse_prelude(view(), &need);
    if (!index && end() < kMaxStreamPrelude) {
      want_ = need;
      return;
    }
  } catch (const Error&) {
  }
  begin_scan(std::move(index));
}

void ChunkedSalvager::begin_scan(std::optional<ChunkIndex> index) {
  index_ = std::move(index);
  result_.report.index_intact = index_.has_value();
  if (index_) {
    field_dims_ = index_->dims;
    plane_ = index_->dims.count() / index_->dims[0];
    damaged_at_.assign(index_->entries.size(), 0);
    pos_ = index_->body_start;
    drop_before(pos_);
  }
  phase_ = Phase::kScan;
  want_ = kScanBlock;
}

ChunkedSalvager::Avail ChunkedSalvager::avail(uint64_t abs_end) {
  if (abs_end <= end()) return Avail::kYes;
  if (eof_) return Avail::kNo;
  // Consumed bytes leave the window here, once per read rather than once
  // per frame.
  drop_before(pos_);
  want_ = static_cast<size_t>(
      std::min<uint64_t>(abs_end - end(), kMaxWantSpan));
  return Avail::kSuspend;
}

bool ChunkedSalvager::step() {
  if (rows_.step()) return true;
  switch (phase_) {
    case Phase::kScan:
      return scan();
    case Phase::kCommit:
      if (!sched_.commit_next()) {
        seal();
        phase_ = Phase::kTail;
      }
      return true;
    case Phase::kTail:
      phase_ = Phase::kDone;  // the sink has written and flushed it all
      return true;
    default:
      return false;
  }
}

// Resumable: every exit for more input leaves pos_ at a marker or an
// unchecked index offset (or past bytes proven marker-free), so
// re-entering re-runs the current iteration from scratch — nothing
// before the claim has side effects but judging an index offset, which
// happens only once the bytes it needs are in.
bool ChunkedSalvager::scan() {
  const size_t entries = index_ ? index_->entries.size() : 0;
  while (true) {
    // An index offset the scan stepped over inside an accepted frame
    // held no frame of its own.
    while (check_ < entries && index_->entries[check_].offset < pos_) {
      damaged_at_[check_] = index_->entries[check_].offset < region_end_;
      ++check_;
    }
    // Stop at the next marker or the next index offset, whichever comes
    // first: an offset is checked even where no marker sits, since a
    // damaged frame there makes its chunk corrupt rather than missing.
    const uint64_t stop = check_ < entries
                              ? index_->entries[check_].offset
                              : std::numeric_limits<uint64_t>::max();
    const uint64_t at = std::min<uint64_t>(
        stop,
        start_ + find_marker(view(), static_cast<size_t>(pos_ - start_)));
    if (at >= end()) {
      if (eof_) {
        phase_ = Phase::kCommit;
        return true;
      }
      // Keep only a marker-sized tail of unmatched bytes.
      if (end() >= kMarkerSize) {
        pos_ = std::max(pos_, end() - (kMarkerSize - 1));
      }
      drop_before(pos_);
      want_ = kScanBlock;
      return false;
    }
    pos_ = at;
    const bool at_entry = at == stop;
    if (avail(pos_ + kFrameHeadMax) == Avail::kSuspend) return false;
    const BytesView here = view().subspan(static_cast<size_t>(pos_ - start_));
    if (at_entry &&
        (pos_ >= region_end_ ||
         (here.size() > sizeof(kSeekFooterMagic) &&
          std::memcmp(here.data(), &kSeekFooterMagic,
                      sizeof(kSeekFooterMagic)) == 0 &&
          here[sizeof(kSeekFooterMagic)] == kSeekFooterVersion))) {
      ++check_;  // the frame region ended before this offset
      continue;
    }
    // Past the cap a claimed length is a marker false-positive, unless
    // the intact index vouches for it at this offset.
    const std::optional<FrameHead> fh = parse_frame_head(here);
    const uint64_t indexed_len =
        at_entry ? index_->entries[check_].frame_len : 0;
    if (!fh || (fh->container_len > kMaxStreamContainer &&
                (fh->head_len > indexed_len ||
                 fh->container_len != indexed_len - fh->head_len))) {
      if (at_entry) damaged_at_[check_++] = 1;
      ++pos_;
      continue;
    }
    // The CRC-protected index is authoritative: a scanned frame may only
    // stand in for the chunk id it claims, at that id's rows.  At an
    // index offset any frame is CRC-checked, to judge the offset.
    const bool indexed =
        !index_ ||
        (fh->chunk_id < entries &&
         index_->entries[fh->chunk_id].row_start == fh->row_start &&
         index_->entries[fh->chunk_id].row_extent == fh->row_extent);
    if (!indexed && !at_entry) {
      pos_ += kMarkerSize;
      continue;
    }
    const uint64_t frame_len = fh->head_len + fh->container_len;
    const Avail frame_in = avail(pos_ + frame_len);
    if (frame_in == Avail::kSuspend) return false;
    const bool crc_ok =
        frame_in == Avail::kYes &&
        crc32(here.subspan(fh->head_len,
                           static_cast<size_t>(fh->container_len))) == fh->crc;
    if (at_entry) damaged_at_[check_++] = !crc_ok;
    if (!crc_ok || !indexed) {
      pos_ += crc_ok ? kMarkerSize : 1;  // damaged: keep scanning inside it
      continue;
    }
    // The first CRC-valid frame of a chunk id claims it; later ones
    // (duplicates, forgeries) are skipped whole.
    const bool fresh =
        claims_
            .emplace(fh->chunk_id, Claim{pos_, fh->row_start, fh->row_extent,
                                         frame_len})
            .second;
    if (fresh) {
      submit(fh->chunk_id,
             here.subspan(fh->head_len, static_cast<size_t>(fh->container_len)));
    }
    pos_ += frame_len;
    if (fresh) return true;
  }
}

void ChunkedSalvager::submit(uint64_t id, BytesView container) {
  Bytes frame = frame_pool_.acquire(container.size());
  frame.assign(container.begin(), container.end());
  // Dims and element type known now are checked before decoding; what
  // is learned later is checked again at the commit.
  sched_.submit([this, id, rows = claims_.at(id).row_extent,
                 dims = field_dims_, dtype = dtype_,
                 frame = std::move(frame)](size_t worker, size_t) mutable {
    Decoded d;
    d.id = id;
    d.error = decode_chunk(BytesView(frame), rows, dims, dtype,
                           *workers_[worker], {}, d.r);
    frame_pool_.release(std::move(frame));
    return d;
  });
}

void ChunkedSalvager::commit(Decoded&& d) {
  Claim& c = claims_.at(d.id);
  c.error = std::move(d.error);
  if (c.error.empty()) {
    c.error = header_mismatch(d.r.dims, d.r.dtype, c.row_extent,
                              field_dims_, dtype_);
  }
  if (!c.error.empty()) return;
  if (!field_dims_) {
    // Scan-only recovery: plane dims come from the first chunk; the
    // slowest extent is completed from row coverage at the end.
    field_dims_ = d.r.dims;
    plane_ = d.r.dims.count() / d.r.dims[0];
  }
  dtype_ = d.r.dtype;
  max_row_end_ = std::max(max_row_end_, c.row_start + c.row_extent);
  const uint64_t elements = d.r.dims.count();
  c.error = rows_.put(c.row_start, std::move(d.r),
                      index_ ? index_->dims[0] : max_row_end_, plane_);
  if (!c.error.empty()) return;
  c.recovered = true;
  result_.report.elements_recovered += elements;
  ++result_.report.chunks_recovered;
  frame_bytes_recovered_ += c.frame_len;
}

void ChunkedSalvager::seal() {
  SalvageReport& rep = result_.report;
  const uint64_t total = end();
  // Recovered frames, the intact prelude and a footer the driver located
  // are accounted for; every other byte was skipped.
  uint64_t accounted =
      frame_bytes_recovered_ + (region_end_ < total ? total - region_end_ : 0);
  uint64_t rows = max_row_end_;
  if (index_) {
    result_.dims = index_->dims;
    rows = index_->dims[0];
    for (size_t i = 0; i < index_->entries.size(); ++i) {
      const ChunkEntry& e = index_->entries[i];
      const auto it = claims_.find(i);
      const Claim* c = it != claims_.end() ? &it->second : nullptr;
      ChunkReport cr{i, ChunkStatus::kMissing, e.row_start, e.row_extent,
                     c != nullptr ? c->frame_len : 0, "no frame found"};
      if (c != nullptr && c->recovered) {
        cr.status = c->offset == e.offset ? ChunkStatus::kOk
                                          : ChunkStatus::kRelocated;
        cr.detail.clear();
      } else if (c != nullptr || damaged_at_[i] != 0) {
        cr.status = ChunkStatus::kCorrupt;
        cr.frame_bytes = c != nullptr ? c->frame_len : e.frame_len;
        cr.detail = c != nullptr ? c->error : "damaged frame at its offset";
      }
      rep.chunks.push_back(std::move(cr));
    }
    accounted += index_->body_start;
  } else if (field_dims_) {
    // No index: the expectation is rebuilt from the recovered frames, and
    // each row gap before one is reported as a missing chunk.
    result_.dims = slab_dims(*field_dims_, static_cast<size_t>(rows));
    uint64_t next_id = 0;
    uint64_t row = 0;
    for (const auto& [id, c] : claims_) {
      if (!c.recovered) continue;
      if (c.row_start > row) {
        rep.chunks.push_back(ChunkReport{next_id, ChunkStatus::kMissing, row,
                                         c.row_start - row, 0,
                                         "no frame found for these rows"});
      }
      rep.chunks.push_back(ChunkReport{id, ChunkStatus::kRelocated,
                                       c.row_start, c.row_extent,
                                       c.frame_len, {}});
      next_id = id + 1;
      row = c.row_start + c.row_extent;
    }
  } else {
    accounted = 0;  // not even the field's shape: every byte was skipped
  }
  rep.chunks_expected = rep.chunks.size();
  rep.elements_total = result_.dims.rank() == 0 ? 0 : result_.dims.count();
  rep.bytes_skipped = total > accounted ? total - accounted : 0;
  if (dtype_) result_.dtype = *dtype_;
  rows_.finish(rows, plane_);
}

ChunkedStreamSalvageResult salvage_chunked_stream(ByteSource& in,
                                                  ByteSink& out,
                                                  BytesView key,
                                                  const SalvageOptions& opts) {
  StreamRowSink rows(out, opts.fill);
  ChunkedSalvager m(rows, key, opts);
  drive(m, in);
  return m.result();
}

namespace {

template <typename T>
SalvageResult salvage_in_memory(BytesView archive, BytesView key,
                                const SalvageOptions& opts,
                                std::vector<T> SalvageResult::*field) {
  FieldRowSink<T> rows(opts.fill);
  ChunkedSalvager m(rows, key, opts,
                    archive.size() - seek_footer_suffix_bytes(archive));
  m.feed(archive);
  m.finish();
  m.drain();
  SalvageResult out{m.result().dims, dtype_of<T>(), {}, {},
                    m.result().report};
  out.*field = std::move(rows.field);
  return out;
}

}  // namespace

SalvageResult decompress_salvage(BytesView archive, BytesView key,
                                 const SalvageOptions& opts) {
  return salvage_in_memory(archive, key, opts, &SalvageResult::f32);
}

SalvageResult decompress_salvage_f64(BytesView archive, BytesView key,
                                     const SalvageOptions& opts) {
  return salvage_in_memory(archive, key, opts, &SalvageResult::f64);
}

}  // namespace szsec::archive
