#pragma once

#include <cstdint>

#include "common/result.h"
#include "ml/dataset.h"

namespace bcfl::data {

/// Per-sample random translation of a digit in pixels, in
/// [-kDigitsMaxShift, kDigitsMaxShift].
inline constexpr int kDigitsMaxShift = 1;
/// Std-dev of per-pixel intensity jitter (before clamping to [0, 16]).
inline constexpr double kDigitsPixelJitter = 1.5;
/// Probability of dropping a pen stroke pixel to half intensity,
/// simulating handwriting variability.
inline constexpr double kDigitsStrokeDropout = 0.08;

/// Configuration for the synthetic handwritten-digits generator.
struct DigitsConfig {
  /// Total instances — matches the UCI Optical Recognition of Handwritten
  /// Digits dataset used in the paper (5620 instances).
  size_t num_instances = 5620;
  /// RNG seed; the whole dataset is a pure function of this seed.
  uint64_t seed = 42;
};

/// Deterministic stand-in for the UCI digits dataset (substitution
/// documented in DESIGN.md).
///
/// Ten hand-authored 8x8 glyph templates (one per digit class) are
/// perturbed per sample with translation, stroke dropout and Gaussian
/// pixel jitter, then clamped to the UCI value range [0, 16]. The result
/// matches the original dataset's shape exactly: 64 attributes, 10
/// near-balanced classes, and a smooth accuracy-vs-noise profile, which
/// is all the paper's experiments rely on.
class DigitsGenerator {
 public:
  explicit DigitsGenerator(DigitsConfig config = {}) : config_(config) {}

  /// Generates the full dataset. Classes are assigned round-robin so
  /// counts differ by at most one.
  ml::Dataset Generate() const;

  /// The clean 8x8 template for `digit` (row-major, values 0..16).
  /// Exposed for tests and visualisation. `digit` must be in [0, 10).
  static Result<std::vector<double>> Template(int digit);

  static constexpr size_t kImageSize = 8;
  static constexpr size_t kNumFeatures = kImageSize * kImageSize;
  static constexpr int kNumClasses = 10;
  static constexpr double kMaxIntensity = 16.0;

 private:
  DigitsConfig config_;
};

/// Renders one 64-value sample as ASCII art (8 lines), for examples and
/// debugging.
std::string RenderDigit(const double* pixels);

}  // namespace bcfl::data
