#pragma once

// Shared experiment workload for the paper-reproduction benches: the
// Sect. V setup — synthetic digits (5620 x 64, 10 classes), 8:2 split,
// 9 data owners with the N(0, sigma*i) quality gradient, logistic
// regression + FedAvg.

#include <cstdio>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "data/digits.h"
#include "data/noise.h"
#include "data/partition.h"
#include "fl/trainer.h"
#include "shapley/native_sv.h"
#include "shapley/utility.h"

namespace bcfl::bench {

struct Workload {
  ml::Dataset test_set;
  std::unique_ptr<fl::FederatedTrainer> trainer;

  static constexpr size_t kOwners = 9;
  static constexpr size_t kRounds = 10;
  static constexpr size_t kLocalEpochs = 5;

  /// Builds the paper's workload for a given data-quality sigma.
  /// `rounds` overrides the default FL round count (0 = kRounds) —
  /// contribution-evaluation experiments average GroupSV over the
  /// per-round groupings, so more rounds give a smoother estimate.
  static Workload Make(double sigma, uint64_t seed = 42,
                       size_t instances = 5620, size_t rounds = 0) {
    data::DigitsConfig digits;
    digits.num_instances = instances;
    digits.seed = seed;
    ml::Dataset full = data::DigitsGenerator(digits).Generate();
    Xoshiro256 rng(seed);
    auto split = full.TrainTestSplit(0.8, &rng).value();
    auto parts =
        data::PartitionUniform(split.first, kOwners, &rng).value();
    data::ApplyQualityGradient(&parts, sigma, seed + 1);

    ml::LogisticRegressionConfig lr;
    lr.learning_rate = 0.05;
    lr.epochs = kLocalEpochs;
    std::vector<fl::FlClient> clients;
    clients.reserve(kOwners);
    for (size_t i = 0; i < kOwners; ++i) {
      clients.emplace_back(static_cast<fl::OwnerId>(i), std::move(parts[i]),
                           lr);
    }
    fl::FlConfig fl_config;
    fl_config.rounds = rounds != 0 ? rounds : kRounds;
    fl_config.local = lr;

    Workload w;
    w.test_set = std::move(split.second);
    w.trainer = std::make_unique<fl::FederatedTrainer>(std::move(clients),
                                                       fl_config);
    return w;
  }

  /// Ground-truth native SV (Eq. 1) over 2^9 retrained coalition models,
  /// exactly as the paper's Sect. V-B-1. `epochs` is the per-coalition
  /// training budget.
  shapley::NativeShapleyResult GroundTruth(ThreadPool* pool,
                                           size_t epochs = 20) const {
    shapley::TestAccuracyUtility utility(test_set);
    shapley::NativeShapleyConfig config;
    config.epochs = epochs;
    config.pool = pool;
    shapley::NativeShapley shapley(trainer.get(), &utility, config);
    return shapley.Compute().value();
  }
};

inline void PrintRule(int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

}  // namespace bcfl::bench
