#include "archive/slab.h"

#include "archive/chunk_machine.h"

namespace szsec::archive {

ChunkedCompressResult compress_slabs(std::span<const float> data,
                                     const Dims& dims,
                                     const sz::Params& params,
                                     core::Scheme scheme, BytesView key,
                                     const core::CipherSpec& spec,
                                     const ChunkedConfig& config,
                                     crypto::CtrDrbg* seed_drbg) {
  return compress_in_memory(data, dims, params, scheme, key, spec, config,
                            seed_drbg, Framing::kV1Slab);
}

ChunkedCompressResult compress_slabs(std::span<const double> data,
                                     const Dims& dims,
                                     const sz::Params& params,
                                     core::Scheme scheme, BytesView key,
                                     const core::CipherSpec& spec,
                                     const ChunkedConfig& config,
                                     crypto::CtrDrbg* seed_drbg) {
  return compress_in_memory(data, dims, params, scheme, key, spec, config,
                            seed_drbg, Framing::kV1Slab);
}

ChunkedStreamDecodeResult decompress_slabs_to(
    BytesView archive, ByteSink& out, BytesView key,
    const ChunkedConfig& config, std::optional<sz::DType> expect) {
  ByteReader r(archive);
  SZSEC_CHECK_FORMAT(r.get_u32() == kSlabMagic, "bad archive magic");
  SZSEC_CHECK_FORMAT(r.get_u8() == kSlabVersion,
                     "unsupported archive version");
  ChunkedStreamDecodeResult result;
  result.dims = read_dims(r);
  const uint64_t count = r.get_varint();
  SZSEC_CHECK_FORMAT(count >= 1 && count <= result.dims[0],
                     "implausible slab count");
  std::vector<BytesView> slabs;
  for (uint64_t i = 0; i < count; ++i) slabs.push_back(r.get_blob());
  SZSEC_CHECK_FORMAT(r.done(), "trailing bytes after archive");

  // A slab's rows are its container's slowest extent; decode_chunk
  // checks the rest of its header against the field.
  std::vector<uint64_t> rows;
  uint64_t covered = 0;
  for (const BytesView slab : slabs) {
    const core::Header h = core::peek_header(slab);
    SZSEC_CHECK_FORMAT(h.dims[0] <= result.dims[0] - covered,
                       "slab extents do not cover the field");
    covered += h.dims[0];
    rows.push_back(h.dims[0]);
    if (!expect) expect = h.dtype;
  }
  SZSEC_CHECK_FORMAT(covered == result.dims[0],
                     "slab extents do not cover the field");
  result.chunk_count = slabs.size();

  // Declared before the scheduler, whose workers use it: sched joins
  // them before `workers` dies.
  std::vector<std::unique_ptr<WorkerState>> workers;
  parallel::ParallelChunkScheduler<DecodedChunk> sched(
      parallel::ChunkSchedulerConfig{config.threads, config.max_in_flight},
      [&](size_t i, DecodedChunk&& d) {
        commit_decoded(i, std::move(d), out, result, config.metrics);
      });
  workers = make_worker_states(sched.thread_count(), key);
  for (size_t i = 0; i < slabs.size(); ++i) {
    sched.submit([&, i](size_t w, size_t) {
      DecodedChunk d;
      d.error = decode_chunk(slabs[i], rows[i], result.dims, expect,
                             *workers[w], {}, d.r, &d.crypto);
      return d;
    });
  }
  sched.finish();
  out.flush();
  return result;
}

namespace {

template <typename T>
std::vector<T> decode_field(BytesView archive, BytesView key,
                            const ChunkedConfig& config) {
  FieldSink<T> sink;
  decompress_slabs_to(archive, sink, key, config, dtype_of<T>());
  return std::move(sink.field);
}

}  // namespace

std::vector<float> decompress_slabs_f32(BytesView archive, BytesView key,
                                        const ChunkedConfig& config) {
  return decode_field<float>(archive, key, config);
}

std::vector<double> decompress_slabs_f64(BytesView archive, BytesView key,
                                         const ChunkedConfig& config) {
  return decode_field<double>(archive, key, config);
}

}  // namespace szsec::archive
