#include "testing/generator.h"

#include <bit>
#include <sstream>

#include "crypto/cipher.h"
#include "data/fieldgen.h"

namespace szsec::testing {

const char* field_kind_name(FieldKind k) {
  switch (k) {
    case FieldKind::kConstant:
      return "constant";
    case FieldKind::kRamp:
      return "ramp";
    case FieldKind::kSmooth:
      return "smooth";
    case FieldKind::kTurbulent:
      return "turbulent";
    case FieldKind::kNonFiniteLaced:
      return "nonfinite";
    case FieldKind::kTiny:
      return "tiny";
  }
  return "?";
}

namespace {

/// Extents chosen to hit boundary structure: non-power-of-two sizes,
/// extents below/at/above the prediction block side, and a 1-extent
/// degenerate axis.  Kept small so one oracle run over hundreds of
/// samples stays in CI budget.
size_t sample_extent(PropRng& rng) {
  return static_cast<size_t>(
      rng.pick<int>({1, 2, 3, 5, 6, 7, 9, 11, 13, 17, 24, 31}));
}

Dims sample_dims(PropRng& rng, FieldKind kind) {
  if (kind == FieldKind::kTiny) {
    return Dims{static_cast<size_t>(rng.range(1, 8))};
  }
  const int rank = static_cast<int>(rng.range(1, 4));
  size_t e[4];
  // Cap total elements so a whole suite of samples stays fast; resample
  // any axis that would push the field past the budget.
  const size_t budget = 20000;
  size_t total = 1;
  for (int i = 0; i < rank; ++i) {
    size_t x = sample_extent(rng);
    // x == 1 always fits (total <= budget is a loop invariant), so
    // halving to 1 terminates.
    while (x > 1 && total * x > budget) x /= 2;
    e[i] = x;
    total *= x;
  }
  return Dims(std::span<const size_t>(e, static_cast<size_t>(rank)));
}

}  // namespace

SampledConfig sample_config(PropRng& rng) {
  SampledConfig c;
  c.seed = rng.fork_seed();

  c.field = rng.pick<FieldKind>(
      {FieldKind::kConstant, FieldKind::kRamp, FieldKind::kSmooth,
       FieldKind::kSmooth, FieldKind::kTurbulent, FieldKind::kNonFiniteLaced,
       FieldKind::kTiny});
  c.dims = sample_dims(rng, c.field);
  c.dtype = rng.chance(0.5) ? sz::DType::kFloat32 : sz::DType::kFloat64;

  c.scheme = rng.pick<core::Scheme>(
      {core::Scheme::kNone, core::Scheme::kCmprEncr, core::Scheme::kEncrQuant,
       core::Scheme::kEncrHuffman});
  if (c.scheme != core::Scheme::kNone) {
    c.spec.kind = rng.pick<crypto::CipherKind>(
        {crypto::CipherKind::kAes128, crypto::CipherKind::kAes128,
         crypto::CipherKind::kAes192, crypto::CipherKind::kAes256,
         crypto::CipherKind::kDes, crypto::CipherKind::kTripleDes,
         crypto::CipherKind::kChaCha20});
    c.spec.mode = rng.pick<crypto::Mode>(
        {crypto::Mode::kCbc, crypto::Mode::kCbc, crypto::Mode::kCtr,
         crypto::Mode::kCtr, crypto::Mode::kEcb});
    c.spec.authenticate = rng.chance(0.25);
    c.key = rng.bytes(crypto::cipher_key_size(c.spec.kind));
  }

  c.params.abs_error_bound = rng.log_uniform(1e-6, 1e-1);
  // REL mode resolves against the data's range at compression time; an
  // infinite range (Inf-laced fields) makes the bound ill-defined, so
  // the sampler only pairs kRel with finite field kinds.
  if (c.field != FieldKind::kNonFiniteLaced && rng.chance(0.2)) {
    c.params.eb_mode = sz::ErrorBoundMode::kRel;
    c.params.rel_error_bound = rng.log_uniform(1e-5, 1e-2);
  }
  c.params.quant_bins = static_cast<uint32_t>(
      rng.pick<int>({16, 64, 1024, 65536}));
  c.params.block_side = static_cast<uint32_t>(rng.pick<int>({2, 4, 6, 8}));
  c.params.predictor = rng.chance(0.3) ? sz::Predictor::kInterpolation
                                       : sz::Predictor::kBlockHybrid;
  c.params.use_regression = rng.chance(0.7);
  c.params.use_mean_predictor = rng.chance(0.7);
  c.params.lossless_level = rng.pick<zlite::Level>(
      {zlite::Level::kStored, zlite::Level::kFast, zlite::Level::kDefault,
       zlite::Level::kAuto});

  c.chunks = static_cast<size_t>(
      rng.range(1, static_cast<int64_t>(std::min<size_t>(c.dims[0], 5))));
  c.threads = static_cast<unsigned>(rng.range(1, 4));
  return c;
}

namespace {

/// Field synthesis shared by both dtypes: the f64 variant adds sub-eb
/// jitter below f32 precision so double-specific mantissa handling is
/// actually exercised rather than round-tripping f32-representable
/// values.
std::vector<float> synthesize_base(const SampledConfig& cfg) {
  PropRng rng(cfg.seed);
  const size_t n = cfg.dims.count();
  std::vector<float> f;
  switch (cfg.field) {
    case FieldKind::kConstant: {
      const float v = static_cast<float>(
          rng.pick<double>({0.0, 1.5, -7.25e5, 1e-20}));
      f.assign(n, v);
      break;
    }
    case FieldKind::kRamp: {
      const double step =
          cfg.params.abs_error_bound * rng.pick<double>({0.1, 1.0, 10.0});
      const double base = rng.real01() * 100.0 - 50.0;
      f.resize(n);
      for (size_t i = 0; i < n; ++i) {
        f[i] = static_cast<float>(base + step * static_cast<double>(i));
      }
      break;
    }
    case FieldKind::kSmooth:
    case FieldKind::kNonFiniteLaced:
      f = data::smooth_noise(cfg.dims, cfg.seed, 2);
      break;
    case FieldKind::kTurbulent:
    case FieldKind::kTiny:
      f = data::white_noise(cfg.dims, cfg.seed);
      break;
  }
  // Vary the dynamic range (error bounds interact with magnitude).
  const double scale = rng.pick<double>({1.0, 1.0, 1e3, 1e-3});
  if (scale != 1.0) {
    for (float& v : f) v = static_cast<float>(v * scale);
  }
  if (cfg.field == FieldKind::kNonFiniteLaced) {
    const size_t lace = 1 + rng.below(std::max<size_t>(n / 16, 1));
    for (size_t i = 0; i < lace; ++i) {
      const size_t at = rng.below(n);
      f[at] = rng.pick<float>(
          {std::numeric_limits<float>::quiet_NaN(),
           std::numeric_limits<float>::infinity(),
           -std::numeric_limits<float>::infinity()});
    }
  }
  return f;
}

}  // namespace

std::vector<float> synthesize_f32(const SampledConfig& cfg) {
  return synthesize_base(cfg);
}

std::vector<double> synthesize_f64(const SampledConfig& cfg) {
  const std::vector<float> base = synthesize_base(cfg);
  PropRng rng(cfg.seed ^ 0x9E3779B97F4A7C15ull);
  std::vector<double> f(base.size());
  const double jitter = cfg.params.abs_error_bound * 1e-4;
  for (size_t i = 0; i < base.size(); ++i) {
    const double v = static_cast<double>(base[i]);
    f[i] = std::isfinite(v) ? v + (rng.real01() - 0.5) * jitter : v;
  }
  return f;
}

std::string SampledConfig::describe() const {
  std::ostringstream os;
  os << "seed=0x" << std::hex << seed << std::dec
     << " scheme=" << core::scheme_name(scheme)
     << " dtype=f" << (dtype == sz::DType::kFloat32 ? 32 : 64)
     << " field=" << field_kind_name(field) << " dims=" << dims.to_string();
  if (scheme != core::Scheme::kNone) {
    os << " cipher=" << crypto::cipher_name(spec.kind) << "/"
       << crypto::mode_name(spec.mode) << " auth=" << spec.authenticate;
  }
  os << " eb=" << params.abs_error_bound;
  if (params.eb_mode == sz::ErrorBoundMode::kRel) {
    os << " rel=" << params.rel_error_bound;
  }
  os << " bins=" << params.quant_bins << " side=" << params.block_side
     << " pred="
     << (params.predictor == sz::Predictor::kInterpolation ? "interp"
                                                           : "hybrid")
     << " reg=" << params.use_regression
     << " mean=" << params.use_mean_predictor
     << " level=" << static_cast<int>(params.lossless_level)
     << " chunks=" << chunks << " threads=" << threads;
  return os.str();
}

}  // namespace szsec::testing
