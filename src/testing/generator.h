// Configuration- and field-space sampling for the property suite.
//
// One SampledConfig is a full point in the codec's configuration space:
// scheme x dtype x cipher/mode/auth x compression parameters x container
// kind knobs (chunk/slab count, threads) x a synthetic input field.  The
// sampler is total — every value it produces is a *valid* configuration
// the library documents as supported — so any failure the oracle reports
// against a sample is a genuine bug, not a bad test case.
//
// Determinism contract: sample_config(rng) consumes only PropRng draws,
// and the synthesized field depends only on SampledConfig::seed, so a
// failing sample is reproduced by re-running with the same master seed
// (or directly from the one-line describe() string, which embeds it).
#pragma once

#include <string>
#include <vector>

#include "core/codec.h"
#include "testing/rng.h"

namespace szsec::testing {

/// Shape of the synthetic input field.
enum class FieldKind : uint8_t {
  kConstant,        ///< one value everywhere (degenerate Huffman alphabet)
  kRamp,            ///< linear ramp (maximally predictable)
  kSmooth,          ///< box-blurred noise (SDRBench-like, the common case)
  kTurbulent,       ///< white noise (worst case: mostly unpredictable)
  kNonFiniteLaced,  ///< smooth field with NaN/±Inf injected at random sites
  kTiny,            ///< 1..8 elements (boundary sizes)
};

const char* field_kind_name(FieldKind k);

/// One sampled point in the codec configuration space.
struct SampledConfig {
  uint64_t seed = 0;  ///< sub-seed driving field synthesis + IV DRBGs
  sz::Params params;
  core::Scheme scheme = core::Scheme::kNone;
  core::CipherSpec spec;
  sz::DType dtype = sz::DType::kFloat32;
  FieldKind field = FieldKind::kSmooth;
  Dims dims;
  Bytes key;        ///< sized for spec.kind; empty for Scheme::kNone
  size_t chunks = 1;   ///< v3 chunk count == v1 slab count for differentials
  unsigned threads = 2;  ///< parallel decode/encode worker count to test

  /// One line with everything needed to reproduce the sample by hand.
  std::string describe() const;
};

/// Draws a complete valid configuration.  Guarantees:
///  * key length matches crypto::cipher_key_size(spec.kind),
///  * REL error-bound mode is only sampled for finite field kinds,
///  * chunks <= dims[0] so chunk planning never degenerates.
SampledConfig sample_config(PropRng& rng);

/// Synthesizes the input field for `cfg` (f32 variant; call the one
/// matching cfg.dtype).  Deterministic in cfg.seed/cfg.field/cfg.dims.
std::vector<float> synthesize_f32(const SampledConfig& cfg);
std::vector<double> synthesize_f64(const SampledConfig& cfg);

}  // namespace szsec::testing
