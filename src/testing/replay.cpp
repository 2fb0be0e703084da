#include "testing/replay.h"

#include <cmath>
#include <cstdlib>
#include <optional>
#include <string>
#include <typeinfo>
#include <vector>

#include "archive/chunked.h"
#include "archive/seekable.h"
#include "core/sansio.h"
#include "core/secure_compressor.h"
#include "crypto/cipher.h"
#include "huffman/huffman.h"
#include "parallel/slab.h"
#include "testing/reference_coders.h"
#include "zlite/zlite.h"

namespace szsec::testing {

Bytes replay_key(size_t n) {
  Bytes k(n);
  for (size_t i = 0; i < n; ++i) {
    k[i] = static_cast<uint8_t>(0x5A ^ (7 * i + 9));
  }
  return k;
}

void replay_decode(BytesView input) {
  core::Header h;
  try {
    h = core::peek_header(input);
  } catch (const Error&) {
    return;
  }
  core::CipherSpec spec;
  spec.kind = h.cipher_kind;
  spec.mode = h.cipher_mode;
  spec.authenticate = (h.flags & core::kFlagAuthenticated) != 0;
  const Bytes key = replay_key(crypto::cipher_key_size(h.cipher_kind));
  try {
    const core::SecureCompressor c(
        sz::Params{}, h.scheme,
        h.scheme == core::Scheme::kNone ? BytesView{} : BytesView(key), spec);
    (void)c.decompress(input);
  } catch (const Error&) {
  }
}

namespace {

// A decoder's result: its output, or its exception's type and what().
template <typename T>
struct Outcome {
  std::optional<T> value;
  std::string error;

  bool operator==(const Outcome&) const = default;
};

template <typename T, typename Fn>
Outcome<T> outcome_of(Fn&& decode) {
  try {
    return {decode(), ""};
  } catch (const Error& e) {
    return {std::nullopt, std::string(typeid(e).name()) + ": " + e.what()};
  }
}

}  // namespace

void replay_huffman(BytesView input) {
  if (input.size() < 4) return;
  const size_t count = input[0] | (size_t{input[1]} << 8);
  size_t tree_len = input[2] | (size_t{input[3]} << 8);
  const BytesView rest = input.subspan(4);
  if (tree_len > rest.size()) tree_len = rest.size();
  const BytesView tree = rest.subspan(0, tree_len);
  const BytesView bits = rest.subspan(tree_len);
  using Symbols = std::vector<uint32_t>;
  const auto got = outcome_of<Symbols>([&] {
    return huffman::decode(huffman::deserialize_table(tree, count), bits,
                           count);
  });
  // The reference lacks the used-symbol bound, so it has nothing to say
  // where the bound fired.  Nor is it asked about alphabets over 2^20:
  // its dense arrays cost memory in the alphabet on every input.
  if (got.error.find("more symbols than the stream holds") !=
      std::string::npos) {
    return;
  }
  try {
    ByteReader r(tree);
    if (r.get_varint() > (uint64_t{1} << 20)) return;
  } catch (const Error&) {
  }
  const auto want = outcome_of<Symbols>([&] {
    return reference::huffman_decode(
        reference::huffman_deserialize_table(tree), bits, count);
  });
  if (got != want) std::abort();
}

void replay_zlite(BytesView input) {
  // The library and the reference inflater must agree: the same bytes, or
  // the same exception type and message.  Abort (so the fuzzer records
  // it) if not.
  const auto plain = outcome_of<Bytes>([&] { return zlite::inflate(input); });
  if (plain != outcome_of<Bytes>([&] { return reference::inflate(input); })) {
    std::abort();
  }
  if (!plain.value) return;
  // Whatever inflates must survive our own deflate/inflate round trip
  // bit-identically.
  const Bytes re = zlite::deflate(BytesView(*plain.value));
  if (zlite::inflate(BytesView(re)) != *plain.value) std::abort();
}

void replay_chunked(BytesView input) {
  const Bytes key = replay_key(16);
  archive::ChunkedConfig cfg;
  cfg.threads = 1;
  try {
    (void)archive::read_chunk_index(input);
  } catch (const Error&) {
  }
  try {
    (void)archive::decompress_chunked_f32(input, BytesView(key), cfg);
  } catch (const Error&) {
  }
  try {
    (void)archive::decompress_chunked_f64(input, BytesView(key), cfg);
  } catch (const Error&) {
  }
  archive::SalvageOptions opts;
  opts.threads = 1;
  try {
    (void)archive::decompress_salvage(input, BytesView(key), opts);
  } catch (const Error&) {
  }
  // Seek-table surface: footer/trailer parse, then a random-access open
  // plus a one-element read at each end.  Anything other than a typed
  // Error on arbitrary bytes is a finding.
  try {
    (void)archive::read_seek_table(input);
  } catch (const Error&) {
  }
  try {
    archive::SeekableOptions sopt;
    sopt.threads = 1;
    const auto reader =
        archive::SeekableReader::open(input, BytesView(key), sopt);
    const uint64_t n = reader->elements();
    if (n > 0) {
      if (reader->dtype() == sz::DType::kFloat32) {
        std::vector<float> out(1);
        reader->read_range(0, 1, std::span<float>(out));
        reader->read_range(n - 1, n, std::span<float>(out));
      } else {
        std::vector<double> out(1);
        reader->read_range(0, 1, std::span<double>(out));
        reader->read_range(n - 1, n, std::span<double>(out));
      }
    }
  } catch (const Error&) {
  }
}

namespace {

/// The fixed field and archives replay_sansio runs against.
struct SansIoFixture {
  static constexpr uint64_t kSeed = 0x5A0517;
  Dims dims{6, 8, 10};
  sz::Params params;
  Bytes key = replay_key(16);
  std::vector<float> field;
  Bytes raw;          ///< the field's bytes
  Bytes archive[3];   ///< one-shot encodes, by sansio::Container
  Bytes decoded[3];   ///< one-shot decodes of those archives

  SansIoFixture() {
    params.abs_error_bound = 1e-3;
    field.resize(dims.count());
    for (size_t i = 0; i < field.size(); ++i) {
      field[i] = static_cast<float>(std::sin(0.1 * static_cast<double>(i))) *
                 10.0f;
    }
    const auto* p = reinterpret_cast<const uint8_t*>(field.data());
    raw.assign(p, p + field.size() * sizeof(float));
    const std::span<const float> f(field);
    const core::Scheme scheme = core::Scheme::kEncrHuffman;
    {
      crypto::CtrDrbg drbg(kSeed);
      const core::codec::CodecRuntime rt(params, scheme, key, {});
      archive[0] = core::codec::encode_payload(rt.config(), f, dims, &drbg)
                       .container;
      decoded[0] = as_bytes(core::codec::decode_payload(rt.config(),
                                                        archive[0])
                                .f32);
    }
    {
      crypto::CtrDrbg drbg(kSeed);
      archive::ChunkedConfig cc;
      cc.threads = 1;
      cc.chunks = 3;
      archive[1] = archive::compress_chunked(f, dims, params, scheme, key,
                                             {}, cc, &drbg)
                       .archive;
      decoded[1] = as_bytes(archive::decompress_chunked_f32(archive[1], key));
    }
    {
      crypto::CtrDrbg drbg(kSeed);
      parallel::SlabConfig sc;
      sc.threads = 1;
      sc.slabs = 3;
      archive[2] = parallel::compress_slabs(f, dims, params, scheme, key,
                                            {}, sc, &drbg)
                       .archive;
      decoded[2] = as_bytes(parallel::decompress_slabs_f32(archive[2], key));
    }
  }

  static Bytes as_bytes(const std::vector<float>& v) {
    const auto* p = reinterpret_cast<const uint8_t*>(v.data());
    return Bytes(p, p + v.size() * sizeof(float));
  }
};

size_t schedule_size(uint8_t code, bool first_pass) {
  const size_t n = code < 128 ? code : size_t{1} << (code & 15);
  return n == 0 && !first_pass ? 1 : n;
}

}  // namespace

void replay_sansio(BytesView input) {
  if (input.empty()) return;
  static const SansIoFixture fx;
  const uint8_t mode = input[0];
  const bool decode = (mode & 1) != 0;
  const int kind = (mode >> 1) & 3;
  const auto container = static_cast<sansio::Container>(kind == 3 ? 1 : kind);
  const bool salvage = decode && container == sansio::Container::kV3Chunked &&
                       (mode & 8) != 0;
  const bool mutate = (mode & 16) != 0;
  const unsigned threads = (mode & 32) != 0 ? 2 : 1;
  BytesView rest = input.subspan(1);

  const size_t c = static_cast<size_t>(container);
  Bytes data = decode ? fx.archive[c] : fx.raw;
  if (mutate) {
    if (rest.size() < 3) return;
    const uint8_t mask = rest[0];
    const size_t at = (rest[1] | (size_t{rest[2]} << 8)) % data.size();
    rest = rest.subspan(3);
    if (mask == 0) {
      data.resize(at);
    } else {
      data[at] ^= mask;
    }
  }
  const Bytes& want = decode ? fx.decoded[c] : fx.archive[c];
  const size_t pairs = rest.size() / 2;

  std::unique_ptr<sansio::Context> ctx;
  Bytes got;
  try {
    if (decode) {
      sansio::DecoderConfig dc;
      dc.key = fx.key;
      dc.threads = threads;
      dc.salvage = salvage;
      ctx = sansio::Context::decoder(dc);
    } else {
      sansio::EncoderConfig ec;
      ec.params = fx.params;
      ec.scheme = core::Scheme::kEncrHuffman;
      ec.key = fx.key;
      ec.dims = fx.dims;
      ec.container = container;
      ec.chunks = 3;
      ec.threads = threads;
      ec.drbg_seed = SansIoFixture::kSeed;
      ctx = sansio::Context::encoder(ec);
    }
    // Each iteration feeds, pulls or finishes, and after the first pass
    // every size is at least 1, so the run ends well within this bound.
    const size_t limit = 2 * pairs + 4 * (data.size() + want.size()) + 64;
    Bytes buf;
    size_t fed = 0;
    bool finished = false;
    for (size_t step = 0;; ++step) {
      if (step > limit) std::abort();  // no progress: a hang
      const sansio::Status st = ctx->status();
      if (st == sansio::Status::kDone) break;
      const bool first = step < pairs;
      const size_t feed_n =
          pairs == 0 ? 4096 : schedule_size(rest[2 * (step % pairs)], first);
      const size_t pull_n =
          pairs == 0 ? 4096
                     : schedule_size(rest[2 * (step % pairs) + 1], first);
      if (st == sansio::Status::kHaveOutput) {
        buf.resize(pull_n);
        size_t produced = 0;
        ctx->pull(std::span<uint8_t>(buf), produced);
        if (produced > pull_n) std::abort();
        got.insert(got.end(), buf.begin(),
                   buf.begin() + static_cast<std::ptrdiff_t>(produced));
      } else if (fed < data.size()) {
        size_t consumed = 0;
        ctx->feed(BytesView(data).subspan(
                      fed, std::min(feed_n, data.size() - fed)),
                  consumed);
        if (consumed > feed_n) std::abort();
        fed += consumed;
      } else if (!finished) {
        finished = true;
        ctx->finish();
      } else {
        std::abort();  // wants input after finish()
      }
    }
  } catch (const sansio::StateError&) {
    std::abort();  // the schedule never misuses the machine
  } catch (const Error&) {
    if (!mutate) std::abort();  // intact input must round-trip
    return;
  } catch (...) {
    std::abort();  // untyped exception
  }
  const bool truncated = mutate && data.size() < (decode ? fx.archive[c]
                                                         : fx.raw)
                                                     .size();
  if (!decode && truncated) std::abort();  // an incomplete field encoded
  if (!mutate && got != want) std::abort();
}

void replay_family(const std::string& family, BytesView input) {
  if (family == "decode") {
    replay_decode(input);
  } else if (family == "huffman") {
    replay_huffman(input);
  } else if (family == "zlite") {
    replay_zlite(input);
  } else if (family == "chunked") {
    replay_chunked(input);
  } else if (family == "sansio") {
    replay_sansio(input);
  } else {
    replay_decode(input);
    replay_huffman(input);
    replay_zlite(input);
    replay_chunked(input);
    replay_sansio(input);
  }
}

}  // namespace szsec::testing
