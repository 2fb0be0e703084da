#include "archive/chunked.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <optional>

#include "archive/chunk_machine.h"
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

Dims dims_from_extents(const size_t* extents, size_t rank) {
  switch (rank) {
    case 1:
      return Dims{extents[0]};
    case 2:
      return Dims{extents[0], extents[1]};
    case 3:
      return Dims{extents[0], extents[1], extents[2]};
    default:
      return Dims{extents[0], extents[1], extents[2], extents[3]};
  }
}

/// Why a chunk container with header `h` cannot fill a frame of
/// `row_extent` rows in a field of `field_dims` (when known) and element
/// type `dtype` (when known); empty when it can.
std::string header_mismatch(const core::Header& h, uint64_t row_extent,
                            const std::optional<Dims>& field_dims,
                            std::optional<sz::DType> dtype) {
  if (h.dims[0] != row_extent) return "container rows != frame rows";
  if (field_dims) {
    if (h.dims.rank() != field_dims->rank()) return "rank mismatch";
    for (size_t i = 1; i < h.dims.rank(); ++i) {
      if (h.dims[i] != (*field_dims)[i]) return "plane dims mismatch";
    }
  }
  if (dtype && h.dtype != *dtype) return "container dtype mismatch";
  return {};
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

/// Decodes one chunk container through the shared codec path and
/// validates it against the frame's row claim (and the field's plane
/// dims when already known).  When `into` is non-empty the chunk is
/// reconstructed directly into it; otherwise `own` is resized and
/// filled.  Returns the failure reason, or empty on success.
template <typename T>
std::string try_decode_chunk(const FrameInfo& f, RuntimeCache& runtimes,
                             BufferPool* pool,
                             const std::optional<Dims>& field_dims,
                             std::span<T> into, std::vector<T>* own,
                             Dims& chunk_dims,
                             PipelineMetrics* times = nullptr) {
  try {
    const core::Header h = core::peek_header(f.container);
    std::string err =
        header_mismatch(h, f.row_extent, field_dims, dtype_of<T>());
    if (!err.empty()) return err;
    const CodecRuntime& runtime = runtime_for(runtimes, h);
    std::span<T> dst = into;
    if (dst.empty()) {
      own->resize(h.dims.count());
      dst = std::span<T>(*own);
    }
    if (dst.size() != h.dims.count()) return "decoded size mismatch";
    core::codec::DecodeOptions opts;
    opts.pool = pool;
    if constexpr (std::is_same_v<T, float>) {
      opts.into_f32 = dst;
    } else {
      opts.into_f64 = dst;
    }
    const core::DecompressResult r =
        core::codec::decode_payload(runtime.config(), f.container, opts);
    if (times != nullptr) times->merge(r.times);
    chunk_dims = h.dims;
    return {};
  } catch (const Error& e) {
    return e.what();
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
  const uint8_t rank = r.get_u8();
  SZSEC_CHECK_FORMAT(rank >= 1 && rank <= Dims::kMaxRank, "bad rank");
  size_t extents[Dims::kMaxRank] = {};
  for (size_t i = 0; i < rank; ++i) {
    const uint64_t e = r.get_varint();
    SZSEC_CHECK_FORMAT(e > 0 && e <= kMaxExtent, "bad extent");
    extents[i] = static_cast<size_t>(e);
  }
  checked_field_elements(extents, rank);
  ChunkIndex out;
  out.dims = dims_from_extents(extents, rank);
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
  const uint8_t rank = r.get_u8();
  SZSEC_CHECK_FORMAT(rank >= 1 && rank <= Dims::kMaxRank, "bad rank");
  size_t extents[Dims::kMaxRank] = {};
  for (size_t i = 0; i < rank; ++i) {
    const uint64_t e = r.get_varint();
    SZSEC_CHECK_FORMAT(e > 0 && e <= kMaxExtent, "bad extent");
    extents[i] = static_cast<size_t>(e);
  }
  checked_field_elements(extents, rank);
  SeekTable out;
  out.dims = dims_from_extents(extents, rank);
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

std::string decode_chunk_frame(const FrameInfo& frame,
                               core::codec::RuntimeCache& runtimes,
                               BufferPool* pool,
                               const std::optional<Dims>& field_dims,
                               std::span<float> into, Dims& chunk_dims,
                               PipelineMetrics* times) {
  if (into.empty()) return "empty destination span";
  return try_decode_chunk<float>(frame, runtimes, pool, field_dims, into,
                                 nullptr, chunk_dims, times);
}

std::string decode_chunk_frame(const FrameInfo& frame,
                               core::codec::RuntimeCache& runtimes,
                               BufferPool* pool,
                               const std::optional<Dims>& field_dims,
                               std::span<double> into, Dims& chunk_dims,
                               PipelineMetrics* times) {
  if (into.empty()) return "empty destination span";
  return try_decode_chunk<double>(frame, runtimes, pool, field_dims, into,
                                  nullptr, chunk_dims, times);
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
                               crypto::CtrDrbg* seed_drbg)
    : out_(&out),
      dtype_(dtype),
      dims_(dims),
      seek_table_(config.seek_table),
      runtime_(params, scheme, key, spec),
      spool_(config.spool),
      sched_(ChunkSchedulerConfig{config.threads, config.max_in_flight},
             [this](size_t i, Product&& p) { commit(i, std::move(p)); }) {
  parallel::SlabConfig scfg;
  scfg.threads = config.threads;
  scfg.slabs = config.chunks;
  plan_ = parallel::plan_slabs(dims, scfg, sched_.thread_count());
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
        const Dims slab = parallel::slab_dims(dims_, plan_.extent[i]);
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
        return Product{make_frame(i, plan_.start[i], plan_.extent[i],
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
  frame_len_[i] = p.frame.size();
  spool_.write(BytesView(p.frame));
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
  stage_ = Stage::kFrames;
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

namespace {

template <typename T>
ChunkedCompressResult compress_in_memory(std::span<const T> data,
                                         const Dims& dims,
                                         const sz::Params& params,
                                         core::Scheme scheme, BytesView key,
                                         const core::CipherSpec& spec,
                                         ChunkedConfig config,
                                         crypto::CtrDrbg* seed_drbg) {
  SZSEC_REQUIRE(data.size() == dims.count(), "data size mismatch");
  MemorySink sink;
  config.spool = FrameSpool::Backing::kMemory;
  ChunkedEncoder m(sink, dtype_of<T>(), dims, params, scheme, key, spec,
                   config, seed_drbg);
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

}  // namespace

ChunkedCompressResult compress_chunked(std::span<const float> data,
                                       const Dims& dims,
                                       const sz::Params& params,
                                       core::Scheme scheme, BytesView key,
                                       const core::CipherSpec& spec,
                                       const ChunkedConfig& config,
                                       crypto::CtrDrbg* seed_drbg) {
  return compress_in_memory(data, dims, params, scheme, key, spec, config,
                            seed_drbg);
}

ChunkedCompressResult compress_chunked(std::span<const double> data,
                                       const Dims& dims,
                                       const sz::Params& params,
                                       core::Scheme scheme, BytesView key,
                                       const core::CipherSpec& spec,
                                       const ChunkedConfig& config,
                                       crypto::CtrDrbg* seed_drbg) {
  return compress_in_memory(data, dims, params, scheme, key, spec, config,
                            seed_drbg);
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
             [this](size_t i, Decoded&& d) { commit(i, std::move(d)); }) {
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
    Decoded d;
    try {
      const core::Header h = core::peek_header(f->container);
      d.error = header_mismatch(h, f->row_extent, index_->dims, expect_);
      if (d.error.empty()) {
        WorkerState& w = *workers_[worker];
        core::codec::DecodeOptions opts;
        opts.pool = &w.scratch;
        d.r = core::codec::decode_payload(
            runtime_for(w.runtimes, h).config(), f->container, opts);
      }
    } catch (const CryptoError& ex) {
      d.crypto = true;
      d.error = ex.what();
    } catch (const Error& ex) {
      d.error = ex.what();
    }
    frame_pool_.release(std::move(frame));
    return d;
  });
  frame_ = Bytes();
  frame_got_ = 0;
}

void ChunkedDecoder::commit(size_t i, Decoded&& d) {
  if (!d.error.empty()) {
    const std::string msg = "chunk " + std::to_string(i) + ": " + d.error;
    if (d.crypto) throw CryptoError(msg);
    throw CorruptError(msg);
  }
  if (i == 0) {
    result_.dtype = d.r.dtype;
  } else if (d.r.dtype != result_.dtype) {
    throw CorruptError("chunk " + std::to_string(i) +
                       ": container dtype mismatch");
  }
  const BytesView bytes = element_bytes(d.r);
  out_.write(bytes);
  result_.elements += bytes.size() / sz::dtype_size(d.r.dtype);
  result_.element_bytes += bytes.size();
  if (metrics_ != nullptr) metrics_->merge(d.r.times);
}

ChunkedStreamDecodeResult decompress_chunked_stream(
    ByteSource& in, ByteSink& out, BytesView key,
    const ChunkedConfig& config) {
  ChunkedDecoder m(out, key, config);
  drive(m, in);
  return m.result();
}

namespace {

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
// In-memory salvage

namespace {

/// The report of a salvage without an index: every recovered chunk was
/// relocated, and each row gap before one is reported as a missing
/// chunk.  `placed` maps chunk id to a value whose get(value) has
/// row_start, row_extent and frame_len.
template <typename Map, typename Get>
void report_scan_only(const Map& placed, Get get, SalvageReport& rep) {
  uint64_t next_gap_id = 0;
  uint64_t row = 0;
  for (const auto& [id, value] : placed) {
    const auto& p = get(value);
    if (p.row_start > row) {
      rep.chunks.push_back(ChunkReport{next_gap_id, ChunkStatus::kMissing,
                                       row, p.row_start - row, 0,
                                       "no frame found for these rows"});
    }
    rep.chunks.push_back(ChunkReport{id, ChunkStatus::kRelocated,
                                     p.row_start, p.row_extent,
                                     p.frame_len, {}});
    next_gap_id = id + 1;
    row = p.row_start + p.row_extent;
  }
  rep.chunks_expected = rep.chunks.size();
}

template <typename T>
std::vector<T>& salvage_field(SalvageResult& out) {
  if constexpr (std::is_same_v<T, float>) {
    return out.f32;
  } else {
    return out.f64;
  }
}

template <typename T>
SalvageResult salvage_impl(BytesView archive, BytesView key,
                           const SalvageOptions& opts) {
  SalvageResult out;
  out.dtype = dtype_of<T>();
  std::vector<T>& field = salvage_field<T>(out);
  SalvageReport& rep = out.report;

  std::optional<ChunkIndex> index;
  try {
    index = read_chunk_index(archive);
  } catch (const Error&) {
  }
  rep.index_intact = index.has_value();

  // A trailing seek-table footer is framing, not field data: an indexed
  // offset landing in it means the frame is gone (truncated/dropped),
  // not corrupt, and its bytes are not unexplained damage.  The resync
  // scan below still covers the full archive, so a forged trailer can
  // never hide a recoverable frame.
  const uint64_t footer_suffix = seek_footer_suffix_bytes(archive);
  const uint64_t frame_region_end = archive.size() - footer_suffix;

  // Phase 1: locate a CRC-valid frame per chunk id.  With an intact
  // index, first try each chunk exactly where the index says (kOk); a
  // full resync scan then rescues chunks whose offsets no longer hold
  // (insertion, deletion, reordering) or, without an index, finds
  // everything we will ever know about.
  std::map<uint64_t, FrameInfo> found;      // id -> CRC-valid frame
  std::map<uint64_t, bool> relocated;       // id -> found via scan
  std::map<uint64_t, std::string> failure;  // id -> latest reason
  std::map<uint64_t, uint64_t> located_bad; // id -> damaged frame's length
  size_t resolved_at_index = 0;

  if (index) {
    for (size_t i = 0; i < index->entries.size(); ++i) {
      const ChunkEntry& e = index->entries[i];
      if (e.offset >= frame_region_end) {
        failure[i] = "frame offset past the frame region (truncated?)";
        continue;
      }
      const std::optional<FrameInfo> f = parse_frame(archive, e.offset);
      if (!f) {
        failure[i] = "no valid frame at indexed offset";
        located_bad[i] = e.frame_len;
        continue;
      }
      if (f->chunk_id != i || f->row_start != e.row_start ||
          f->row_extent != e.row_extent) {
        failure[i] = "frame fields disagree with index";
        // A CRC-valid frame here belongs to a *different* chunk (offsets
        // shifted by deletion/insertion) — chunk i itself may be gone,
        // so don't claim a damaged frame was located for it.
        if (!f->crc_ok) located_bad[i] = e.frame_len;
        continue;
      }
      if (!f->crc_ok) {
        failure[i] = "chunk CRC mismatch";
        located_bad[i] = e.frame_len;
        continue;
      }
      found.emplace(i, *f);
      relocated[i] = false;
      ++resolved_at_index;
    }
  }

  const bool need_scan =
      !index || resolved_at_index < index->entries.size();
  if (need_scan) {
    for (size_t pos = find_marker(archive, 0); pos < archive.size();
         pos = find_marker(archive, pos)) {
      const std::optional<FrameInfo> f = parse_frame(archive, pos);
      if (!f || !f->crc_ok) {
        ++pos;  // false positive or damaged frame: keep scanning
        continue;
      }
      if (index) {
        // The CRC-protected index is authoritative: a scanned frame may
        // only stand in for the chunk id it claims, at that id's rows.
        const bool known = f->chunk_id < index->entries.size();
        if (!known ||
            index->entries[f->chunk_id].row_start != f->row_start ||
            index->entries[f->chunk_id].row_extent != f->row_extent) {
          pos += kMarkerSize;
          continue;
        }
      }
      if (found.emplace(f->chunk_id, *f).second) {
        relocated[f->chunk_id] = true;
      }
      pos = f->offset + f->frame_len;
    }
  }

  // Phase 2: decode every located frame; learn field dims from the index
  // or from the first decodable chunk.
  std::optional<Dims> field_dims;
  if (index) field_dims = index->dims;

  struct Decoded {
    uint64_t chunk_id;
    uint64_t row_start;
    uint64_t row_extent;
    size_t frame_len;
    std::vector<T> data;
  };
  // Chunk decodes fan out across workers (each with its own runtime
  // cache + scratch pool); a corrupt chunk is an error *value*, never an
  // exception, so one bad worker result cannot abort the salvage.
  // Commits arrive in chunk-id order, keeping the report and the
  // first-come row-claiming below deterministic.
  std::vector<std::pair<uint64_t, const FrameInfo*>> jobs;
  jobs.reserve(found.size());
  for (auto& [id, f] : found) jobs.emplace_back(id, &f);

  struct SalvageDecode {
    std::string error;
    Dims chunk_dims;
    std::vector<T> data;
  };
  std::vector<Decoded> decoded;
  uint64_t max_row_end = 0;
  // With an intact index the field dims are known before fan-out and
  // every worker validates against them; scan-only recovery learns them
  // from the first decodable chunk at commit time instead (plane checks
  // for later chunks then happen in the commit).
  const std::optional<Dims> produce_dims = field_dims;
  ParallelChunkScheduler<SalvageDecode> sched(
      ChunkSchedulerConfig{opts.threads, 0}, [&](size_t j, SalvageDecode&& d) {
        const uint64_t id = jobs[j].first;
        const FrameInfo& f = *jobs[j].second;
        if (d.error.empty() && !produce_dims && field_dims) {
          if (d.chunk_dims.rank() != field_dims->rank()) {
            d.error = "rank mismatch";
          } else {
            for (size_t i = 1; i < d.chunk_dims.rank(); ++i) {
              if (d.chunk_dims[i] != (*field_dims)[i]) {
                d.error = "plane dims mismatch";
              }
            }
          }
        }
        if (!d.error.empty()) {
          failure[id] = d.error;
          return;
        }
        if (!field_dims) {
          // Scan-only recovery: plane dims come from the chunk itself;
          // the slowest extent is completed below from row coverage.
          field_dims = d.chunk_dims;
        }
        max_row_end = std::max(max_row_end, f.row_start + f.row_extent);
        decoded.push_back(Decoded{id, f.row_start, f.row_extent,
                                  f.frame_len, std::move(d.data)});
      });
  const auto workers = make_worker_states(sched.thread_count(), key);
  for (size_t j = 0; j < jobs.size(); ++j) {
    sched.submit([&, j](size_t worker, size_t) {
      SalvageDecode d;
      d.error = try_decode_chunk<T>(*jobs[j].second, workers[worker]->runtimes,
                                    &workers[worker]->scratch, produce_dims,
                                    std::span<T>{}, &d.data, d.chunk_dims);
      return d;
    });
  }
  sched.finish();

  if (!field_dims) {
    // Nothing decodable at all: report whatever we know and bail out.
    rep.chunks_expected = index ? index->entries.size() : 0;
    rep.bytes_skipped = archive.size();
    if (index) {
      rep.elements_total = index->dims.count();
      for (size_t i = 0; i < index->entries.size(); ++i) {
        const ChunkEntry& e = index->entries[i];
        const bool located = found.count(i) || located_bad.count(i);
        rep.chunks.push_back(ChunkReport{
            i, located ? ChunkStatus::kCorrupt : ChunkStatus::kMissing,
            e.row_start, e.row_extent,
            found.count(i) ? found[i].frame_len
                           : (located_bad.count(i) ? located_bad[i] : 0),
            failure.count(i) ? failure[i] : "undecodable"});
      }
      out.dims = index->dims;
      field.assign(out.dims.count(),
                   opts.fill == FallbackFill::kNaN
                       ? std::numeric_limits<T>::quiet_NaN()
                       : T{0});
    }
    return out;
  }

  const uint64_t total_rows = index ? index->dims[0] : max_row_end;
  out.dims = parallel::slab_dims(*field_dims,
                                 static_cast<size_t>(total_rows));
  const size_t plane = out.dims.count() / out.dims[0];
  rep.elements_total = out.dims.count();

  // Phase 3: assemble.  Rows are claimed first-come (decoded is in
  // chunk-id order), so a duplicated or adversarially overlapping frame
  // cannot overwrite data a legitimate chunk already recovered.
  std::vector<uint8_t> row_claimed(out.dims[0], 0);
  field.assign(out.dims.count(), T{0});
  double mean_acc = 0;
  uint64_t mean_n = 0;
  uint64_t frame_bytes_recovered = 0;
  std::map<uint64_t, Decoded*> placed;
  for (Decoded& d : decoded) {
    if (d.row_start + d.row_extent > out.dims[0]) {
      failure[d.chunk_id] = "rows outside the field";
      continue;
    }
    bool overlap = false;
    for (uint64_t rw = d.row_start; rw < d.row_start + d.row_extent; ++rw) {
      if (row_claimed[rw]) overlap = true;
    }
    if (overlap) {
      failure[d.chunk_id] = "rows overlap an already-recovered chunk";
      continue;
    }
    for (uint64_t rw = d.row_start; rw < d.row_start + d.row_extent; ++rw) {
      row_claimed[rw] = 1;
    }
    std::copy(d.data.begin(), d.data.end(),
              field.begin() +
                  static_cast<std::ptrdiff_t>(d.row_start * plane));
    for (T v : d.data) mean_acc += v;
    mean_n += d.data.size();
    frame_bytes_recovered += d.frame_len;
    placed.emplace(d.chunk_id, &d);
  }

  // Fallback fill for unclaimed rows.
  T fill = T{0};
  if (opts.fill == FallbackFill::kNaN) {
    fill = std::numeric_limits<T>::quiet_NaN();
  } else if (opts.fill == FallbackFill::kMean && mean_n > 0) {
    fill = static_cast<T>(mean_acc / static_cast<double>(mean_n));
  }
  for (size_t rw = 0; rw < out.dims[0]; ++rw) {
    if (row_claimed[rw]) continue;
    std::fill_n(field.begin() + static_cast<std::ptrdiff_t>(rw * plane),
                plane, fill);
  }

  // Phase 4: the report, one entry per expected chunk in id order.  With
  // no index the expectation is reconstructed from the recovered frames:
  // row gaps between them are attributed to missing ids.
  rep.elements_recovered = mean_n;
  rep.chunks_recovered = placed.size();
  if (index) {
    rep.chunks_expected = index->entries.size();
    for (size_t i = 0; i < index->entries.size(); ++i) {
      const ChunkEntry& e = index->entries[i];
      ChunkReport cr;
      cr.chunk_id = i;
      cr.row_start = e.row_start;
      cr.row_extent = e.row_extent;
      if (auto it = placed.find(i); it != placed.end()) {
        cr.status = relocated[i] ? ChunkStatus::kRelocated : ChunkStatus::kOk;
        cr.frame_bytes = it->second->frame_len;
      } else if (found.count(i) || located_bad.count(i)) {
        cr.status = ChunkStatus::kCorrupt;
        cr.detail = failure.count(i) ? failure[i] : "undecodable";
        cr.frame_bytes = found.count(i) ? found[i].frame_len : located_bad[i];
      } else {
        cr.status = ChunkStatus::kMissing;
        cr.detail = failure.count(i) ? failure[i] : "no frame found";
      }
      rep.chunks.push_back(std::move(cr));
    }
    const uint64_t accounted =
        frame_bytes_recovered + index->body_start + footer_suffix;
    rep.bytes_skipped =
        archive.size() > accounted ? archive.size() - accounted : 0;
  } else {
    report_scan_only(
        placed, [](const Decoded* d) -> const Decoded& { return *d; }, rep);
    const uint64_t accounted = frame_bytes_recovered + footer_suffix;
    rep.bytes_skipped =
        archive.size() > accounted ? archive.size() - accounted : 0;
  }
  return out;
}

}  // namespace

SalvageResult decompress_salvage(BytesView archive, BytesView key,
                                 const SalvageOptions& opts) {
  return salvage_impl<float>(archive, key, opts);
}

SalvageResult decompress_salvage_f64(BytesView archive, BytesView key,
                                     const SalvageOptions& opts) {
  return salvage_impl<double>(archive, key, opts);
}


// ---------------------------------------------------------------------
// Streaming salvager

namespace {

/// A scanned frame claiming a container longer than this is treated as
/// a marker false-positive — the window (and therefore RSS) never grows
/// past one such cap during salvage.
constexpr uint64_t kMaxStreamContainer = uint64_t{1} << 31;
/// The prelude parse stops growing the window here; a (legitimate)
/// index larger than this degrades to scan-only recovery.
constexpr size_t kMaxStreamPrelude = size_t{16} << 20;
/// Read-ahead block while hunting for the next resync marker.
constexpr size_t kScanBlock = size_t{256} << 10;
/// Fill rows go out in blocks of about this many bytes.
constexpr size_t kFillBlock = size_t{1} << 20;

}  // namespace

ChunkedSalvager::ChunkedSalvager(ByteSink& out, BytesView key,
                                 const SalvageOptions& opts)
    : out_(out), fill_(opts.fill), runtimes_(key), want_(kMinPrelude) {
  SZSEC_REQUIRE(opts.fill != FallbackFill::kMean,
                "streaming salvage cannot compute a mean fill in one "
                "pass; use kZeros or kNaN");
}

std::span<uint8_t> ChunkedSalvager::want() {
  if (eof_ || phase_ == Phase::kTail || phase_ == Phase::kDone) return {};
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
  if (abs <= start_) return;
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
    pos_ = index_->body_start;
    drop_before(pos_);
  }
  phase_ = Phase::kScan;
  want_ = kScanBlock;
}

ChunkedSalvager::Avail ChunkedSalvager::avail(uint64_t abs_end) {
  if (abs_end <= end()) return Avail::kYes;
  if (eof_) return Avail::kNo;
  want_ = static_cast<size_t>(
      std::min<uint64_t>(abs_end - end(), kMaxWantSpan));
  return Avail::kSuspend;
}

bool ChunkedSalvager::step() {
  if (emit_pending()) return true;
  switch (phase_) {
    case Phase::kScan:
      switch (scan()) {
        case Scan::kFrame:
          return true;
        case Scan::kNeedInput:
          return false;
        case Scan::kExhausted:
          seal_report();
          phase_ = Phase::kTail;
          return true;
      }
      return false;
    case Phase::kTail:
      out_.flush();
      phase_ = Phase::kDone;
      return true;
    default:
      return false;
  }
}

bool ChunkedSalvager::emit_pending() {
  if (fill_rows_ > 0) {
    const size_t row = plane_ * elem_size_;
    const uint64_t rows =
        std::min<uint64_t>(fill_rows_, fill_block_.size() / row);
    out_.write(BytesView(fill_block_.data(), static_cast<size_t>(rows) * row));
    fill_rows_ -= rows;
    return true;
  }
  if (chunk_pending_) {
    out_.write(element_bytes(chunk_));
    chunk_ = core::DecompressResult{};
    chunk_pending_ = false;
    return true;
  }
  return false;
}

// Resumable: every exit for more input leaves pos_ at a marker (or past
// bytes proven marker-free), so re-entering re-runs the current
// iteration from scratch — nothing before the decode has side effects.
ChunkedSalvager::Scan ChunkedSalvager::scan() {
  while (true) {
    // Hunt for the next marker, keeping only a marker-sized tail of
    // unmatched bytes.
    const size_t rel =
        find_marker(view(), static_cast<size_t>(pos_ - start_));
    if (start_ + rel >= end()) {
      if (eof_) return Scan::kExhausted;
      if (end() >= kMarkerSize) {
        pos_ = std::max(pos_, end() - (kMarkerSize - 1));
      }
      drop_before(pos_);
      want_ = kScanBlock;
      return Scan::kNeedInput;
    }
    pos_ = start_ + rel;

    if (avail(pos_ + kFrameHeadMax) == Avail::kSuspend) {
      return Scan::kNeedInput;
    }
    const std::optional<FrameHead> fh =
        parse_frame_head(view().subspan(static_cast<size_t>(pos_ - start_)));
    if (!fh || fh->container_len > kMaxStreamContainer) {
      ++pos_;
      continue;
    }
    if (index_) {
      // The CRC-protected index is authoritative: a scanned frame may
      // only stand in for the chunk id it claims, at that id's rows.
      if (fh->chunk_id >= index_->entries.size() ||
          index_->entries[fh->chunk_id].row_start != fh->row_start ||
          index_->entries[fh->chunk_id].row_extent != fh->row_extent) {
        pos_ += kMarkerSize;
        continue;
      }
    }
    const uint64_t frame_len = fh->head_len + fh->container_len;
    switch (avail(pos_ + frame_len)) {
      case Avail::kSuspend:
        return Scan::kNeedInput;
      case Avail::kNo:
        ++pos_;  // stream ends inside this frame: scan what remains
        continue;
      case Avail::kYes:
        break;
    }
    const BytesView container =
        view().subspan(static_cast<size_t>(pos_ - start_) + fh->head_len,
                       static_cast<size_t>(fh->container_len));
    if (crc32(container) != fh->crc) {
      ++pos_;  // damaged frame: keep scanning inside it
      continue;
    }
    if (placed_.count(fh->chunk_id) != 0) {
      pos_ += frame_len;  // duplicate of an already-recovered chunk
      drop_before(pos_);
      continue;
    }

    // CRC-valid frame for a new chunk: decode, then queue it for
    // in-order emission behind the fill rows of any gap before it.
    std::string err;
    core::DecompressResult dr;
    try {
      const core::Header h = core::peek_header(container);
      err = header_mismatch(
          h, fh->row_extent, field_dims_,
          have_dtype_ ? std::optional<sz::DType>(result_.dtype)
                      : std::nullopt);
      if (err.empty()) {
        core::codec::DecodeOptions dopts;
        dopts.pool = &scratch_;
        dr = core::codec::decode_payload(
            runtime_for(runtimes_, h).config(), container, dopts);
      }
    } catch (const Error& ex) {
      err = ex.what();
    }
    if (err.empty() && fh->row_start < rows_done_) {
      err = "rows precede already-emitted rows (single-pass order)";
    }
    if (!err.empty()) {
      failure_[fh->chunk_id] = err;
      pos_ += frame_len;
      drop_before(pos_);
      continue;
    }

    if (!have_dtype_) {
      result_.dtype = dr.dtype;
      elem_size_ = sz::dtype_size(dr.dtype);
      have_dtype_ = true;
      if (!field_dims_) {
        // Scan-only recovery: plane dims come from the chunk itself; the
        // slowest extent is completed from row coverage at the end.
        field_dims_ = dr.dims;
        plane_ = dr.dims.count() / dr.dims[0];
      }
      const size_t row = plane_ * elem_size_;
      const size_t rows = std::max<size_t>(
          1, std::min<size_t>(kFillBlock / row, (*field_dims_)[0]));
      fill_block_.assign(rows * row, 0);
      if (fill_ == FallbackFill::kNaN) {
        for (size_t i = 0; i < rows * plane_; ++i) {
          if (dr.dtype == sz::DType::kFloat32) {
            const float v = std::numeric_limits<float>::quiet_NaN();
            std::memcpy(fill_block_.data() + i * sizeof(v), &v, sizeof(v));
          } else {
            const double v = std::numeric_limits<double>::quiet_NaN();
            std::memcpy(fill_block_.data() + i * sizeof(v), &v, sizeof(v));
          }
        }
      }
    }
    fill_rows_ = fh->row_start - rows_done_;
    result_.report.elements_recovered +=
        element_bytes(dr).size() / elem_size_;
    rows_done_ = fh->row_start + fh->row_extent;
    frame_bytes_recovered_ += frame_len;
    const ChunkStatus status =
        index_ && pos_ == index_->entries[fh->chunk_id].offset
            ? ChunkStatus::kOk
            : ChunkStatus::kRelocated;
    placed_.emplace(fh->chunk_id, Placed{status, fh->row_start,
                                         fh->row_extent, frame_len});
    chunk_ = std::move(dr);
    chunk_pending_ = true;
    pos_ += frame_len;
    drop_before(pos_);
    return Scan::kFrame;
  }
}

void ChunkedSalvager::seal_report() {
  SalvageReport& rep = result_.report;
  if (index_) {
    if (have_dtype_ && rows_done_ < index_->dims[0]) {
      fill_rows_ = index_->dims[0] - rows_done_;
      rows_done_ = index_->dims[0];
    }
    result_.dims = index_->dims;
    rep.elements_total = index_->dims.count();
    rep.chunks_expected = index_->entries.size();
    for (size_t i = 0; i < index_->entries.size(); ++i) {
      const ChunkEntry& e = index_->entries[i];
      ChunkReport cr;
      cr.chunk_id = i;
      cr.row_start = e.row_start;
      cr.row_extent = e.row_extent;
      if (auto it = placed_.find(i); it != placed_.end()) {
        cr.status = it->second.status;
        cr.frame_bytes = it->second.frame_len;
      } else if (failure_.count(i) != 0) {
        cr.status = ChunkStatus::kCorrupt;
        cr.detail = failure_[i];
      } else {
        cr.status = ChunkStatus::kMissing;
        cr.detail = "no frame found";
      }
      rep.chunks.push_back(std::move(cr));
    }
    // Single-pass accounting: a trailing seek-table footer cannot be
    // recognized without look-ahead, so unlike the in-memory salvage its
    // bytes count as skipped here — an over-, never under-estimate.
    const uint64_t accounted = frame_bytes_recovered_ + index_->body_start;
    rep.bytes_skipped = end() > accounted ? end() - accounted : 0;
  } else {
    if (field_dims_) {
      result_.dims =
          parallel::slab_dims(*field_dims_, static_cast<size_t>(rows_done_));
      rep.elements_total = result_.dims.count();
    }
    report_scan_only(
        placed_, [](const Placed& p) -> const Placed& { return p; }, rep);
    rep.bytes_skipped =
        end() > frame_bytes_recovered_ ? end() - frame_bytes_recovered_ : 0;
  }
  rep.chunks_recovered = placed_.size();
}

ChunkedStreamSalvageResult salvage_chunked_stream(ByteSource& in,
                                                  ByteSink& out,
                                                  BytesView key,
                                                  const SalvageOptions& opts) {
  ChunkedSalvager m(out, key, opts);
  drive(m, in);
  return m.result();
}

}  // namespace szsec::archive
