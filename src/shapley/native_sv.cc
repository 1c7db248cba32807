#include "shapley/native_sv.h"

#include "obs/metrics.h"
#include "obs/trace.h"
#include "shapley/coalition_engine.h"
#include "shapley/shapley_math.h"

namespace bcfl::shapley {

NativeShapley::NativeShapley(const fl::FederatedTrainer* trainer,
                             UtilityFunction* utility,
                             NativeShapleyConfig config)
    : trainer_(trainer), utility_(utility), config_(config) {}

Result<NativeShapleyResult> NativeShapley::Compute() const {
  const size_t n = trainer_->num_clients();
  if (n == 0 || n > 20) {
    return Status::InvalidArgument("owner count must be in [1, 20]");
  }
  const uint64_t full = 1ULL << n;

  CoalitionEngineConfig engine_config;
  engine_config.pool = config_.pool;
  CoalitionEngine engine(utility_, engine_config);
  NativeShapleyResult result;

  // Stage 1: retrain one coalition model per mask. Training dominates,
  // so dispatch with grain 1 for the best load balance; slots are
  // index-addressed and training is RNG-free, keeping the output
  // bit-identical for any pool size.
  static auto& retrains = obs::MetricsRegistry::Global().GetCounter(
      "shapley.native.coalition_retrains");
  retrains.Add(full);
  std::vector<ml::Matrix> models(full);
  std::vector<Status> statuses(full, Status::OK());
  {
    obs::ScopedSpan retrain_span(obs::Tracer::Global(), "coalition_retrain",
                                 "shapley");
    auto build_model = [&](size_t mask) {
      std::vector<size_t> members;
      for (size_t i = 0; i < n; ++i) {
        if (mask & (1ULL << i)) members.push_back(i);
      }
      auto model = trainer_->TrainCentralized(members, config_.epochs);
      if (model.ok()) {
        models[mask] = std::move(model).value();
      } else {
        statuses[mask] = model.status();
      }
    };
    if (config_.pool != nullptr) {
      config_.pool->ParallelFor(full, build_model, /*grain=*/1);
    } else {
      for (uint64_t mask = 0; mask < full; ++mask) {
        build_model(static_cast<size_t>(mask));
      }
    }
  }
  for (const Status& s : statuses) {
    BCFL_RETURN_IF_ERROR(s);
  }

  // Stage 2: utility of every coalition model, in parallel. Utilities
  // are required to be thread-safe (see UtilityFunction); results land
  // in index-addressed slots, so the table is deterministic.
  BCFL_ASSIGN_OR_RETURN(result.utility_table,
                        engine.EvaluateModelTable(models));

  // Stage 3: Eq. 1.
  BCFL_ASSIGN_OR_RETURN(result.values,
                        ExactShapleyFromTable(n, result.utility_table));
  return result;
}

}  // namespace bcfl::shapley
