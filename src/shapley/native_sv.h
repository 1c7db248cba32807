#pragma once

#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "fl/trainer.h"
#include "shapley/utility.h"

namespace bcfl::shapley {

struct NativeShapleyConfig {
  /// Training epochs per coalition model (0 = trainer default).
  size_t epochs = 0;
  /// Optional worker pool parallelising coalition training and utility
  /// evaluation. SV outputs are bit-identical for every pool size:
  /// coalition training is RNG-free (zero-initialised full-batch descent
  /// for a fixed epoch count), so each coalition model depends only on
  /// its member set, and every parallel stage writes to index-addressed
  /// slots — scheduling order never reaches the arithmetic.
  ThreadPool* pool = nullptr;
};

/// Result of a native SV computation.
struct NativeShapleyResult {
  std::vector<double> values;          ///< One SV per owner.
  std::vector<double> utility_table;   ///< u(S) for every mask, 2^n entries.
};

/// Native Shapley value over data owners (Eq. 1 of the paper).
///
/// Each coalition's model is retrained centrally on the union of the
/// coalition's data — the paper's ground truth ("we build 2^n models
/// based on the data coalitions"), at 2^n trainings.
///
/// This is the transparency *baseline*: it needs every coalition's model,
/// which is impossible on masked updates — exactly the incompatibility
/// GroupSV resolves. The library keeps it for ground truth (Fig. 1), for
/// the accuracy comparison (Fig. 2) and the runtime comparison (Table I).
class NativeShapley {
 public:
  NativeShapley(const fl::FederatedTrainer* trainer, UtilityFunction* utility,
                NativeShapleyConfig config = {});

  /// Computes SVs for all owners.
  Result<NativeShapleyResult> Compute() const;

 private:
  const fl::FederatedTrainer* trainer_;
  UtilityFunction* utility_;
  NativeShapleyConfig config_;
};

}  // namespace bcfl::shapley
