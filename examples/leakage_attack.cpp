// Why the paper masks updates at all: the "deep leakage from gradients"
// motivation ([6], Sect. III-A). A curious on-chain observer who sees a
// data owner's *unmasked* model update can reconstruct the owner's
// private training images; the same observer staring at the masked
// update recovers only noise.
//
//   $ ./examples/leakage_attack
//
// Renders the victim's private digit, the attacker's reconstruction from
// the raw update, and the "reconstruction" from the masked update.

#include <algorithm>
#include <cstdio>

#include "data/digits.h"
#include "ml/logistic_regression.h"
#include "privacy/leakage.h"
#include "secureagg/fixed_point.h"
#include "secureagg/mask.h"

using namespace bcfl;

namespace {

/// Normalises an attack reconstruction to the digit intensity range for
/// rendering (the attack recovers the image up to a positive scale).
std::vector<double> NormaliseForDisplay(const std::vector<double>& image) {
  double lo = *std::min_element(image.begin(), image.end());
  double hi = *std::max_element(image.begin(), image.end());
  std::vector<double> out(image.size());
  double span = hi > lo ? hi - lo : 1.0;
  for (size_t i = 0; i < image.size(); ++i) {
    out[i] = (image[i] - lo) / span * 16.0;
  }
  return out;
}

void SideBySide(const std::string& left, const std::string& mid,
                const std::string& right) {
  std::printf("%-14s %-14s %-14s\n", "private", "from raw", "from masked");
  size_t li = 0, mi = 0, ri = 0;
  for (int row = 0; row < 8; ++row) {
    std::string l = left.substr(li, 8);
    std::string m = mid.substr(mi, 8);
    std::string r = right.substr(ri, 8);
    std::printf("%-14s %-14s %-14s\n", l.c_str(), m.c_str(), r.c_str());
    li += 9;
    mi += 9;
    ri += 9;
  }
}

}  // namespace

int main() {
  const int kVictimDigit = 5;

  // The victim: a data owner whose local dataset is a single example.
  auto tpl = data::DigitsGenerator::Template(kVictimDigit).value();
  ml::Matrix x(1, 64);
  for (size_t f = 0; f < 64; ++f) x.At(0, f) = tpl[f];
  ml::Dataset victim_data(std::move(x), {kVictimDigit}, 10);

  // The victim performs one local step from the public global model
  // (zero weights at round 0) and shares the update.
  ml::LogisticRegressionConfig config;
  config.learning_rate = 0.5;
  config.l2_penalty = 0.0;
  ml::LogisticRegression model(64, 10, config);
  ml::Matrix w_before = model.weights();
  if (!model.TrainEpochs(victim_data, 1).ok()) return 1;
  ml::Matrix w_after = model.weights();

  // --- Attack 1: the raw (unmasked) update. ---------------------------
  auto g = privacy::RecoverClassGradient(w_before, w_after,
                                         config.learning_rate,
                                         config.l2_penalty);
  if (!g.ok()) return 1;
  auto images = privacy::ExtractClassImages(*g);
  auto corr_raw =
      privacy::ImageCorrelation(images[kVictimDigit], tpl).ValueOr(0.0);

  // --- Attack 2: the masked update (what the blockchain stores). ------
  secureagg::FixedPointCodec codec(24);
  auto encoded = codec.EncodeMatrix(w_after);
  std::array<uint8_t, 32> pair_key{};
  pair_key[0] = 99;
  std::vector<uint64_t> mask;
  secureagg::ExpandMaskInto(pair_key, 0, encoded.size(), &mask);
  for (size_t i = 0; i < encoded.size(); ++i) encoded[i] += mask[i];
  auto masked_after =
      codec.DecodeMatrix(encoded, w_after.rows(), w_after.cols()).value();
  auto g_masked = privacy::RecoverClassGradient(
      w_before, masked_after, config.learning_rate, config.l2_penalty);
  auto masked_images = privacy::ExtractClassImages(*g_masked);
  auto corr_masked =
      privacy::ImageCorrelation(masked_images[kVictimDigit], tpl)
          .ValueOr(0.0);

  std::printf("Gradient-leakage attack against a single-example owner "
              "(digit %d)\n\n",
              kVictimDigit);
  std::vector<double> raw_display = NormaliseForDisplay(images[kVictimDigit]);
  std::vector<double> masked_display =
      NormaliseForDisplay(masked_images[kVictimDigit]);
  SideBySide(data::RenderDigit(tpl.data()),
             data::RenderDigit(raw_display.data()),
             data::RenderDigit(masked_display.data()));

  std::printf("\ncorrelation with the private image:\n");
  std::printf("  raw update    : %+.4f  (private data fully leaked)\n",
              corr_raw);
  std::printf("  masked update : %+.4f  (secure aggregation blocks the "
              "attack)\n",
              corr_masked);
  return 0;
}
