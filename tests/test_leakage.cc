#include "privacy/leakage.h"

#include <gtest/gtest.h>

#include "data/digits.h"
#include "ml/logistic_regression.h"
#include "secureagg/fixed_point.h"
#include "secureagg/mask.h"

namespace bcfl::privacy {
namespace {

/// One-step local update from the zero model on `data`; returns
/// (w_before, w_after, lr, l2).
struct Update {
  ml::Matrix before;
  ml::Matrix after;
  double lr;
  double l2;
};

Update OneStepUpdate(const ml::Dataset& data) {
  ml::LogisticRegressionConfig config;
  config.learning_rate = 0.5;
  config.l2_penalty = 0.0;  // Zero start: the reg term vanishes anyway.
  ml::LogisticRegression model(data.num_features(), data.num_classes(),
                               config);
  Update u;
  u.before = model.weights();
  EXPECT_TRUE(model.TrainEpochs(data, 1).ok());
  u.after = model.weights();
  u.lr = config.learning_rate;
  u.l2 = config.l2_penalty;
  return u;
}

TEST(LeakageTest, RecoversSingleVictimExample) {
  // A data owner with ONE example: the update's class column IS the
  // example (up to scale) — the strongest form of the [6] attack.
  auto tpl = data::DigitsGenerator::Template(7).value();
  ml::Matrix x(1, 64);
  for (size_t f = 0; f < 64; ++f) x.At(0, f) = tpl[f];
  ml::Dataset victim(std::move(x), {7}, 10);

  Update u = OneStepUpdate(victim);
  auto g = RecoverClassGradient(u.before, u.after, u.lr, u.l2);
  ASSERT_TRUE(g.ok());
  auto images = ExtractClassImages(*g);
  ASSERT_EQ(images.size(), 10u);

  // The victim's class column correlates almost perfectly with the
  // private example; other classes' columns are its negative (scaled).
  auto corr = ImageCorrelation(images[7], tpl);
  ASSERT_TRUE(corr.ok());
  EXPECT_GT(*corr, 0.99);
}

TEST(LeakageTest, RecoversClassMeansFromBatchUpdate) {
  // A full local dataset: each class column approximates that class's
  // mean image (minus the dataset mean).
  data::DigitsConfig config;
  config.num_instances = 300;
  config.seed = 5;
  ml::Dataset data = data::DigitsGenerator(config).Generate();

  Update u = OneStepUpdate(data);
  auto g = RecoverClassGradient(u.before, u.after, u.lr, u.l2);
  ASSERT_TRUE(g.ok());
  auto images = ExtractClassImages(*g);

  // The theory: from W0 = 0 (uniform softmax) and one full-batch step,
  // column c equals (n_c/n) * mean_c - (1/C) * overall_mean — the
  // *empirical* class mean minus the dataset mean, exactly. Compute
  // those private quantities from the victim's data and verify the
  // attacker's reconstruction recovers each almost perfectly.
  std::vector<std::vector<double>> deviations(10,
                                              std::vector<double>(64, 0.0));
  std::vector<double> overall(64, 0.0);
  std::vector<size_t> counts(10, 0);
  for (size_t i = 0; i < data.num_examples(); ++i) {
    size_t c = static_cast<size_t>(data.labels()[i]);
    counts[c]++;
    for (size_t f = 0; f < 64; ++f) {
      deviations[c][f] += data.features().At(i, f);
      overall[f] += data.features().At(i, f) /
                    static_cast<double>(data.num_examples());
    }
  }
  for (size_t c = 0; c < 10; ++c) {
    for (size_t f = 0; f < 64; ++f) {
      deviations[c][f] =
          deviations[c][f] / static_cast<double>(counts[c]) - overall[f];
    }
  }

  for (size_t c = 0; c < 10; ++c) {
    double own = *ImageCorrelation(images[c], deviations[c]);
    EXPECT_GT(own, 0.95) << "class " << c;
    for (size_t other = 0; other < 10; ++other) {
      if (other == c) continue;
      double cross = *ImageCorrelation(images[c], deviations[other]);
      EXPECT_GT(own, cross) << "class " << c << " vs " << other;
    }
  }
}

TEST(LeakageTest, MaskedUpdateDefeatsTheAttack) {
  // The same update, observed as secure aggregation would expose it to
  // a curious on-chain observer (one masked submission out of a pair):
  // decode and attack — the reconstruction must carry no signal.
  auto tpl = data::DigitsGenerator::Template(3).value();
  ml::Matrix x(1, 64);
  for (size_t f = 0; f < 64; ++f) x.At(0, f) = tpl[f];
  ml::Dataset victim(std::move(x), {3}, 10);
  Update u = OneStepUpdate(victim);

  // Mask with a pairwise mask (what actually sits on chain).
  secureagg::FixedPointCodec codec(24);
  auto encoded = codec.EncodeMatrix(u.after);
  std::array<uint8_t, 32> pair_key{};
  pair_key[0] = 42;
  std::vector<uint64_t> mask;
  secureagg::ExpandMaskInto(pair_key, 0, encoded.size(), &mask);
  for (size_t i = 0; i < encoded.size(); ++i) encoded[i] += mask[i];
  auto masked_after =
      codec.DecodeMatrix(encoded, u.after.rows(), u.after.cols()).value();

  auto g = RecoverClassGradient(u.before, masked_after, u.lr, u.l2);
  ASSERT_TRUE(g.ok());
  auto images = ExtractClassImages(*g);
  auto corr = ImageCorrelation(images[3], tpl);
  ASSERT_TRUE(corr.ok());
  EXPECT_LT(std::abs(*corr), 0.3);
}

TEST(LeakageTest, RecoverValidatesArguments) {
  ml::Matrix a(3, 2), b(2, 3);
  EXPECT_FALSE(RecoverClassGradient(a, b, 0.1, 0.0).ok());
  EXPECT_FALSE(RecoverClassGradient(a, a, 0.0, 0.0).ok());
}

TEST(LeakageTest, ExtractHandlesDegenerateShapes) {
  EXPECT_TRUE(ExtractClassImages(ml::Matrix(1, 5)).empty());
  auto images = ExtractClassImages(ml::Matrix(3, 2));
  ASSERT_EQ(images.size(), 2u);
  EXPECT_EQ(images[0].size(), 2u);
}

TEST(ImageCorrelationTest, Basics) {
  EXPECT_NEAR(*ImageCorrelation({1, 2, 3}, {2, 4, 6}), 1.0, 1e-12);
  EXPECT_NEAR(*ImageCorrelation({1, 2, 3}, {3, 2, 1}), -1.0, 1e-12);
  EXPECT_FALSE(ImageCorrelation({}, {}).ok());
  EXPECT_FALSE(ImageCorrelation({1, 1}, {1, 2}).ok());  // Flat image.
}

}  // namespace
}  // namespace bcfl::privacy
