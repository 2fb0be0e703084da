// Compression parameters for the SZ-1.4-style pipeline.
#pragma once

#include <cstdint>

#include "zlite/zlite.h"

namespace szsec::sz {

/// Element type of the field being compressed.
enum class DType : uint8_t {
  kFloat32 = 0,
  kFloat64 = 1,
};

inline size_t dtype_size(DType t) { return t == DType::kFloat32 ? 4 : 8; }

/// Per-block predictor, selected by sampling (paper Section II-A).
enum class PredictorMode : uint8_t {
  kLorenzo = 0,     ///< classic Lorenzo (reconstructed-neighbour stencil)
  kMean = 1,        ///< mean-integrated Lorenzo's dense-mean constant
  kRegression = 2,  ///< per-block linear regression
};

/// How the error bound is interpreted (SZ's ABS and REL modes; the paper
/// evaluates ABS only).
enum class ErrorBoundMode : uint8_t {
  kAbs = 0,  ///< abs_error_bound is the bound directly
  kRel = 1,  ///< bound = rel_error_bound * (max(data) - min(data))
};

/// Which prediction design drives stages 1+2.
enum class Predictor : uint8_t {
  /// SZ-1.4/SZ-2 style: per-block best of Lorenzo / mean / regression
  /// (the paper's configuration).
  kBlockHybrid = 0,
  /// SZ3-style multi-level cubic interpolation (see sz/interpolation.h).
  kInterpolation = 1,
};

/// Tunables of the lossy pipeline.  Defaults mirror SZ's absolute-error
/// mode configuration used in the paper.
struct Params {
  /// Absolute error bound: every reconstructed value differs from the
  /// original by at most this much.  (Ignored when eb_mode == kRel.)
  double abs_error_bound = 1e-4;

  /// Value-range-relative bound, resolved to an absolute bound against
  /// the data's range at compression time when eb_mode == kRel.
  double rel_error_bound = 1e-3;
  ErrorBoundMode eb_mode = ErrorBoundMode::kAbs;

  /// Number of linear-scale quantization bins (even).  Bin 0 is reserved
  /// as the "unpredictable" marker; predictable codes are centred at
  /// quant_bins/2.  SZ's default radius of 32768 corresponds to 65536.
  uint32_t quant_bins = 65536;

  /// Side length of prediction blocks (3D).  2D uses 2x this, 1D 4x.
  uint32_t block_side = 6;

  /// Prediction design (kBlockHybrid reproduces the paper).
  Predictor predictor = Predictor::kBlockHybrid;

  /// Enable the per-block linear-regression candidate.
  bool use_regression = true;

  /// Enable the mean-integrated (dense-mean) candidate.
  bool use_mean_predictor = true;

  /// Effort level of the stage-4 lossless pass.  kAuto stores payloads
  /// that deflate cannot shrink (zlite::resolve_level) and records the
  /// level it applied in the container header.
  zlite::Level lossless_level = zlite::Level::kAuto;
};

}  // namespace szsec::sz
