#include "data/digits.h"

#include <algorithm>
#include <array>
#include <string>

namespace bcfl::data {

namespace {

// Hand-authored 8x8 glyphs. Characters map to pen intensity:
// ' ' = 0, '.' = 4, '+' = 8, '*' = 12, '#' = 16.
// The glyphs are deliberately distinct in stroke topology so that a
// linear classifier separates clean samples well and degrades smoothly
// as Gaussian noise is added — mirroring the UCI digits behaviour.
constexpr std::array<std::array<const char*, 8>, 10> kGlyphs = {{
    // 0
    {{"  .##.  ",
      " #*..*# ",
      " #.  .# ",
      "#.    .#",
      "#.    .#",
      " #.  .# ",
      " #*..*# ",
      "  .##.  "}},
    // 1
    {{"   .#   ",
      "  .##   ",
      " #.##   ",
      "   ##   ",
      "   ##   ",
      "   ##   ",
      "   ##   ",
      " ###### "}},
    // 2
    {{"  .###. ",
      " #.  .# ",
      "     .# ",
      "    .#. ",
      "   .#.  ",
      "  .#.   ",
      " .#.    ",
      " ###### "}},
    // 3
    {{" .####. ",
      "     .# ",
      "     .# ",
      "  .###. ",
      "     .# ",
      "     .# ",
      " #.  .# ",
      " .####. "}},
    // 4
    {{"    .## ",
      "   .#.# ",
      "  .#. # ",
      " .#.  # ",
      " ###### ",
      "      # ",
      "      # ",
      "      # "}},
    // 5
    {{" ###### ",
      " #.     ",
      " #.     ",
      " #####. ",
      "     .# ",
      "     .# ",
      " #.  .# ",
      " .####. "}},
    // 6
    {{"  .###. ",
      " #.     ",
      "#.      ",
      "#.###.  ",
      "##.  .# ",
      "#.    # ",
      " #.  .# ",
      " .####. "}},
    // 7
    {{" ###### ",
      "     .# ",
      "     #. ",
      "    .#  ",
      "    #.  ",
      "   .#   ",
      "   #.   ",
      "   #    "}},
    // 8
    {{" .####. ",
      " #.  .# ",
      " #.  .# ",
      " .####. ",
      " #.  .# ",
      " #.  .# ",
      " #.  .# ",
      " .####. "}},
    // 9
    {{" .####. ",
      " #.  .# ",
      " #.   # ",
      " .#####.",
      "      .#",
      "      .#",
      "     .# ",
      " .###.  "}},
}};

double CharToIntensity(char c) {
  switch (c) {
    case ' ':
      return 0.0;
    case '.':
      return 4.0;
    case '+':
      return 8.0;
    case '*':
      return 12.0;
    case '#':
      return 16.0;
    default:
      return 0.0;
  }
}

}  // namespace

Result<std::vector<double>> DigitsGenerator::Template(int digit) {
  if (digit < 0 || digit >= kNumClasses) {
    return Status::InvalidArgument("digit must be in [0, 10)");
  }
  std::vector<double> out(kNumFeatures, 0.0);
  const auto& glyph = kGlyphs[static_cast<size_t>(digit)];
  for (size_t r = 0; r < kImageSize; ++r) {
    for (size_t c = 0; c < kImageSize; ++c) {
      out[r * kImageSize + c] = CharToIntensity(glyph[r][c]);
    }
  }
  return out;
}

ml::Dataset DigitsGenerator::Generate() const {
  Xoshiro256 rng(config_.seed);

  // Pre-render the clean templates.
  std::array<std::vector<double>, kNumClasses> templates;
  for (int d = 0; d < kNumClasses; ++d) {
    templates[static_cast<size_t>(d)] = Template(d).value();
  }

  ml::Matrix features(config_.num_instances, kNumFeatures);
  std::vector<int> labels(config_.num_instances);

  for (size_t i = 0; i < config_.num_instances; ++i) {
    int digit = static_cast<int>(i % kNumClasses);
    labels[i] = digit;
    const std::vector<double>& tpl = templates[static_cast<size_t>(digit)];

    // Random translation within +-kDigitsMaxShift per axis.
    int span = 2 * kDigitsMaxShift + 1;
    int dr = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(span))) -
             kDigitsMaxShift;
    int dc = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(span))) -
             kDigitsMaxShift;

    double* row = features.Row(i);
    for (size_t r = 0; r < kImageSize; ++r) {
      for (size_t c = 0; c < kImageSize; ++c) {
        int src_r = static_cast<int>(r) - dr;
        int src_c = static_cast<int>(c) - dc;
        double v = 0.0;
        if (src_r >= 0 && src_r < static_cast<int>(kImageSize) &&
            src_c >= 0 && src_c < static_cast<int>(kImageSize)) {
          v = tpl[static_cast<size_t>(src_r) * kImageSize +
                  static_cast<size_t>(src_c)];
        }
        // Stroke dropout: weaken a pen pixel occasionally.
        if (v > 0.0 && rng.NextDouble() < kDigitsStrokeDropout) {
          v *= 0.5;
        }
        v += rng.NextGaussian(0.0, kDigitsPixelJitter);
        row[r * kImageSize + c] = std::clamp(v, 0.0, kMaxIntensity);
      }
    }
  }

  return ml::Dataset(std::move(features), std::move(labels), kNumClasses);
}

std::string RenderDigit(const double* pixels) {
  static constexpr const char* kShades = " .:-=+*#%@";
  std::string out;
  out.reserve(DigitsGenerator::kImageSize *
              (DigitsGenerator::kImageSize + 1));
  for (size_t r = 0; r < DigitsGenerator::kImageSize; ++r) {
    for (size_t c = 0; c < DigitsGenerator::kImageSize; ++c) {
      double v = pixels[r * DigitsGenerator::kImageSize + c];
      int shade = static_cast<int>(
          std::clamp(v / DigitsGenerator::kMaxIntensity, 0.0, 1.0) * 9.0);
      out.push_back(kShades[shade]);
    }
    out.push_back('\n');
  }
  return out;
}

}  // namespace bcfl::data
