#include "archive/seekable.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "archive/chunk_machine.h"
#include "core/container.h"

namespace szsec::archive {

namespace {

using parallel::ChunkSchedulerConfig;
using parallel::ParallelChunkScheduler;

/// Decodes a located frame's container straight into `into`, with the
/// strict decoder's checks against the field's dims and `T`.
template <typename T>
std::string decode_into(const FrameInfo& f, WorkerState& w,
                        const Dims& field_dims, std::span<T> into) {
  core::codec::DecodeOptions opts;
  if constexpr (std::is_same_v<T, float>) {
    opts.into_f32 = into;
  } else {
    opts.into_f64 = into;
  }
  core::DecompressResult r;
  return decode_chunk(f.container, f.row_extent, field_dims, dtype_of<T>(),
                      w, opts, r);
}

/// Copies the ROI's intersection with one decoded chunk (global rows
/// [g_lo, g_hi), already clamped to both the chunk and the ROI) from
/// the chunk's row-major elements into the ROI-major output span.  The
/// innermost axis is copied as one contiguous run per middle-axis
/// coordinate.
template <typename T>
void gather_rows(const Dims& dims, std::span<const size_t> origin,
                 std::span<const size_t> extent, uint64_t chunk_row0,
                 std::span<const T> chunk, uint64_t g_lo, uint64_t g_hi,
                 std::span<T> out) {
  const size_t r = dims.rank();
  if (r == 1) {
    std::copy_n(chunk.begin() + static_cast<size_t>(g_lo - chunk_row0),
                static_cast<size_t>(g_hi - g_lo),
                out.begin() + static_cast<size_t>(g_lo - origin[0]));
    return;
  }
  size_t fstride[Dims::kMaxRank];  // field element stride per axis
  size_t ostride[Dims::kMaxRank];  // ROI element stride per axis
  fstride[r - 1] = 1;
  ostride[r - 1] = 1;
  for (size_t i = r - 1; i-- > 0;) {
    fstride[i] = fstride[i + 1] * dims[i + 1];
    ostride[i] = ostride[i + 1] * extent[i + 1];
  }
  const size_t run = extent[r - 1];
  for (uint64_t g = g_lo; g < g_hi; ++g) {
    const size_t cbase =
        static_cast<size_t>(g - chunk_row0) * fstride[0];
    const size_t obase = static_cast<size_t>(g - origin[0]) * ostride[0];
    size_t idx[Dims::kMaxRank] = {};  // middle-axis odometer
    while (true) {
      size_t coff = cbase + origin[r - 1];
      size_t ooff = obase;
      for (size_t a = 1; a + 1 < r; ++a) {
        coff += (origin[a] + idx[a]) * fstride[a];
        ooff += idx[a] * ostride[a];
      }
      std::copy_n(chunk.begin() + coff, run, out.begin() + ooff);
      if (r == 2) break;  // no middle axes: one run per row
      size_t a = r - 2;
      while (true) {
        if (++idx[a] < extent[a]) break;
        idx[a] = 0;
        if (a == 1) break;
        --a;
      }
      if (idx[1] == 0 && a == 1) break;  // odometer wrapped around
    }
  }
}

}  // namespace

SeekableReader::SeekableReader(std::unique_ptr<ByteSource> src,
                               BytesView key, const Options& options)
    : src_(std::move(src)),
      key_(key.begin(), key.end()),
      options_(options),
      own_(std::make_unique<WorkerState>(key)) {
  // size() is the capability probe: a pipe throws the typed IoError
  // (ESPIPE) right here, before any bytes move.
  archive_size_ = src_->size();

  // Trailer first: two positioned reads resolve the whole table when
  // the footer is present.
  std::optional<uint64_t> footer_len;
  if (archive_size_ >= kSeekTrailerSize) {
    uint8_t trailer[kSeekTrailerSize];
    const size_t got = pread_full(*src_, archive_size_ - kSeekTrailerSize,
                                  std::span<uint8_t>(trailer));
    bytes_read_ += got;
    SZSEC_CHECK_FORMAT(got == kSeekTrailerSize, "truncated archive");
    footer_len = parse_seek_trailer(
        BytesView(trailer, kSeekTrailerSize), archive_size_);
  }

  if (footer_len) {
    Bytes footer(static_cast<size_t>(*footer_len));
    const uint64_t start =
        archive_size_ - kSeekTrailerSize - *footer_len;
    const size_t got = pread_full(*src_, start, std::span<uint8_t>(footer));
    bytes_read_ += got;
    SZSEC_CHECK_FORMAT(got == footer.size(), "truncated seek footer");
    table_ = parse_seek_footer(BytesView(footer), archive_size_);
    dtype_ = *table_.dtype;
  } else {
    // Footer-less archive: strict-parse the prelude index, reading
    // exactly the bytes the incremental parser proves it still lacks.
    Bytes prefix;
    size_t need = 0;
    std::optional<ChunkIndex> index = parse_prelude(prefix, &need);
    while (!index) {
      const size_t at = prefix.size();
      prefix.resize(at + need);
      const size_t got = pread_full(
          *src_, at, std::span<uint8_t>(prefix).subspan(at));
      bytes_read_ += got;
      SZSEC_CHECK_FORMAT(got == need, "truncated archive prelude");
      index = parse_prelude(prefix, &need);
    }
    table_ = seek_table_from_index(*index);
    // The index predates the footer and stores no dtype: peek the first
    // chunk's container header (frame head + container prefix).
    const SeekEntry& e0 = table_.entries.front();
    Bytes head(static_cast<size_t>(std::min<uint64_t>(e0.frame_len, 4096)));
    const size_t got =
        pread_full(*src_, e0.offset, std::span<uint8_t>(head));
    bytes_read_ += got;
    ByteReader r(BytesView(head.data(), got));
    SZSEC_CHECK_FORMAT(r.get_u64() == kResyncMarker,
                       "no frame at indexed offset");
    r.get_varint();  // chunk_id
    r.get_varint();  // row_start
    r.get_varint();  // row_extent
    r.get_varint();  // container_len
    r.get_u32();     // container_crc
    // The head window may truncate the container, so a full header
    // parse (which validates payload_size against the view) cannot run
    // here; the fixed container prefix up to the dtype byte is enough,
    // and every touched chunk revalidates its complete header when it
    // is actually decoded.
    SZSEC_CHECK_FORMAT(r.get_u32() == core::kMagic,
                       "no container at indexed offset");
    SZSEC_CHECK_FORMAT(r.get_u8() == core::kVersion,
                       "unsupported container version");
    r.get_u8();  // scheme
    r.get_u8();  // flags
    r.get_u8();  // cipher kind
    r.get_u8();  // cipher mode
    const uint8_t dt = r.get_u8();
    SZSEC_CHECK_FORMAT(dt <= 1, "unknown dtype");
    dtype_ = static_cast<sz::DType>(dt);
    table_.dtype = dtype_;
  }

  // Whichever path built the table, its frame spans must fit the actual
  // archive (a truncated footer-less file passes the prelude parse).
  for (const SeekEntry& e : table_.entries) {
    SZSEC_CHECK_FORMAT(e.offset <= archive_size_ &&
                           e.frame_len <= archive_size_ - e.offset,
                       "frame extends past archive end");
  }
}

SeekableReader::~SeekableReader() = default;

std::unique_ptr<SeekableReader> SeekableReader::open(
    std::unique_ptr<ByteSource> src, BytesView key,
    const Options& options) {
  SZSEC_REQUIRE(src != nullptr, "null source");
  return std::unique_ptr<SeekableReader>(
      new SeekableReader(std::move(src), key, options));
}

std::unique_ptr<SeekableReader> SeekableReader::open(
    const std::string& path, BytesView key, const Options& options) {
  return open(std::make_unique<FileSource>(path), key, options);
}

std::unique_ptr<SeekableReader> SeekableReader::open(
    std::FILE* file, BytesView key, const Options& options) {
  SZSEC_REQUIRE(file != nullptr, "null stream");
  return open(std::make_unique<FileSource>(file), key, options);
}

std::unique_ptr<SeekableReader> SeekableReader::open(
    BytesView archive, BytesView key, const Options& options) {
  return open(std::make_unique<MemorySource>(archive), key, options);
}

FrameInfo SeekableReader::fetch_frame(size_t i, Bytes& buf) {
  const SeekEntry& e = table_.entries[i];
  buf.resize(static_cast<size_t>(e.frame_len));
  const size_t got = pread_full(*src_, e.offset, std::span<uint8_t>(buf));
  bytes_read_ += got;
  SZSEC_CHECK_FORMAT(got == buf.size(), "frame extends past archive end");
  const std::optional<FrameInfo> f = parse_frame(BytesView(buf), 0);
  SZSEC_CHECK_FORMAT(f.has_value(), "unparseable chunk frame");
  SZSEC_CHECK_FORMAT(f->chunk_id == i && f->row_start == e.row_start &&
                         f->row_extent == e.row_extent &&
                         f->frame_len == e.frame_len,
                     "frame disagrees with seek table");
  SZSEC_CHECK_FORMAT(f->crc_ok, "chunk CRC mismatch");
  return *f;
}

template <typename T>
void SeekableReader::read_range_impl(uint64_t elem_lo, uint64_t elem_hi,
                                     std::span<T> out) {
  SZSEC_REQUIRE(dtype_ == dtype_of<T>(),
                "archive element type does not match the requested span");
  SZSEC_REQUIRE(elem_lo < elem_hi && elem_hi <= elements(),
                "element range out of bounds");
  SZSEC_REQUIRE(out.size() == elem_hi - elem_lo,
                "output span does not match the element range");

  // Chunks are sorted by elem_start and partition [0, elements()).
  const auto& entries = table_.entries;
  size_t c0 = 0;
  while (entries[c0].elem_start + entries[c0].elem_count <= elem_lo) ++c0;
  size_t c1 = c0;
  while (c1 < entries.size() && entries[c1].elem_start < elem_hi) ++c1;

  struct Decoded {
    std::string error;
    std::vector<T> partial;  ///< boundary chunks only
  };
  run_chunks<Decoded>(
      c0, c1,
      [&](size_t chunk, const FrameInfo& f, size_t, WorkerState& w) {
        // Fully covered chunks write disjoint slices of `out` directly;
        // only boundary chunks go through a temporary.
        const SeekEntry& e = entries[chunk];
        const bool full = e.elem_start >= elem_lo &&
                          e.elem_start + e.elem_count <= elem_hi;
        Decoded d;
        if (full) {
          const std::span<T> into =
              out.subspan(static_cast<size_t>(e.elem_start - elem_lo),
                          static_cast<size_t>(e.elem_count));
          d.error = decode_into(f, w, table_.dims, into);
        } else {
          d.partial.resize(static_cast<size_t>(e.elem_count));
          d.error = decode_into(f, w, table_.dims, std::span<T>(d.partial));
        }
        return d;
      },
      [&](size_t chunk, Decoded&& d) {
        if (!d.error.empty()) {
          throw CorruptError("chunk " + std::to_string(chunk) + ": " +
                             d.error);
        }
        if (d.partial.empty()) return;
        const SeekEntry& e = entries[chunk];
        const uint64_t lo = std::max(elem_lo, e.elem_start);
        const uint64_t hi = std::min(elem_hi, e.elem_start + e.elem_count);
        std::copy_n(
            d.partial.begin() + static_cast<size_t>(lo - e.elem_start),
            static_cast<size_t>(hi - lo),
            out.begin() + static_cast<size_t>(lo - elem_lo));
      });
}

template <typename T>
void SeekableReader::read_roi_impl(std::span<const size_t> origin,
                                   std::span<const size_t> extent,
                                   std::span<T> out) {
  SZSEC_REQUIRE(dtype_ == dtype_of<T>(),
                "archive element type does not match the requested span");
  const size_t r = table_.dims.rank();
  SZSEC_REQUIRE(origin.size() == r && extent.size() == r,
                "ROI rank does not match the field rank");
  uint64_t roi_elems = 1;
  for (size_t i = 0; i < r; ++i) {
    SZSEC_REQUIRE(extent[i] >= 1 && origin[i] <= table_.dims[i] &&
                      extent[i] <= table_.dims[i] - origin[i],
                  "ROI exceeds the field extents");
    roi_elems *= extent[i];  // bounded by dims.count(), cannot wrap
  }
  SZSEC_REQUIRE(out.size() == roi_elems,
                "output span does not match the ROI extents");

  const uint64_t row_lo = origin[0];
  const uint64_t row_hi = origin[0] + extent[0];
  const auto& entries = table_.entries;
  size_t c0 = 0;
  while (entries[c0].row_start + entries[c0].row_extent <= row_lo) ++c0;
  size_t c1 = c0;
  while (c1 < entries.size() && entries[c1].row_start < row_hi) ++c1;

  // Decode the whole chunk into per-worker scratch, then gather the
  // hyperslab rows it owns.  Chunks own disjoint row ranges, so the
  // gathered out regions are disjoint too — gathering on the worker is
  // safe.
  std::vector<std::vector<T>> scratch(worker_count(c1 - c0));
  run_chunks<std::string>(
      c0, c1,
      [&](size_t chunk, const FrameInfo& f, size_t worker, WorkerState& w) {
        const SeekEntry& e = entries[chunk];
        std::vector<T>& buf = scratch[worker];
        buf.resize(static_cast<size_t>(e.elem_count));
        std::string error = decode_into(f, w, table_.dims, std::span<T>(buf));
        if (error.empty()) {
          const uint64_t g_lo = std::max<uint64_t>(row_lo, e.row_start);
          const uint64_t g_hi =
              std::min<uint64_t>(row_hi, e.row_start + e.row_extent);
          gather_rows<T>(table_.dims, origin, extent, e.row_start,
                         std::span<const T>(buf), g_lo, g_hi, out);
        }
        return error;
      },
      [](size_t chunk, std::string&& error) {
        if (!error.empty()) {
          throw CorruptError("chunk " + std::to_string(chunk) + ": " + error);
        }
      });
}

size_t SeekableReader::worker_count(size_t chunks) const {
  const size_t threads = options_.threads != 0
                             ? options_.threads
                             : parallel::default_thread_count();
  return std::min(threads, chunks);
}

template <typename Result, typename Decode, typename Commit>
void SeekableReader::run_chunks(size_t c0, size_t c1, const Decode& decode,
                                const Commit& commit) {
  // Worker 0 is the reader's own state, so its key schedule persists
  // across reads; the others live for this read only.
  const size_t n = worker_count(c1 - c0);
  const auto extra = make_worker_states(n - 1, BytesView(key_));
  std::vector<WorkerState*> workers{own_.get()};
  for (const auto& w : extra) workers.push_back(w.get());
  // Frames are fetched (and validated) here, in order; the decode runs
  // on the scheduler — inline on this thread for a single-chunk read.
  ParallelChunkScheduler<Result> sched(
      ChunkSchedulerConfig{static_cast<unsigned>(n), options_.max_in_flight},
      [&](size_t j, Result&& r) { commit(c0 + j, std::move(r)); });
  for (size_t c = c0; c < c1; ++c) {
    auto buf = std::make_shared<Bytes>();
    const FrameInfo f = fetch_frame(c, *buf);
    sched.submit([&decode, &workers, c, f, buf](size_t worker, size_t) {
      return decode(c, f, worker, *workers[worker]);
    });
  }
  sched.finish();
}

void SeekableReader::read_range(uint64_t elem_lo, uint64_t elem_hi,
                                std::span<float> out) {
  read_range_impl<float>(elem_lo, elem_hi, out);
}

void SeekableReader::read_range(uint64_t elem_lo, uint64_t elem_hi,
                                std::span<double> out) {
  read_range_impl<double>(elem_lo, elem_hi, out);
}

void SeekableReader::read_roi(std::span<const size_t> origin,
                              std::span<const size_t> extent,
                              std::span<float> out) {
  read_roi_impl<float>(origin, extent, out);
}

void SeekableReader::read_roi(std::span<const size_t> origin,
                              std::span<const size_t> extent,
                              std::span<double> out) {
  read_roi_impl<double>(origin, extent, out);
}

}  // namespace szsec::archive
