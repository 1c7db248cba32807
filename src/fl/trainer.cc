#include "fl/trainer.h"

#include <atomic>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace bcfl::fl {

FederatedTrainer::FederatedTrainer(std::vector<FlClient> clients,
                                   FlConfig config)
    : clients_(std::move(clients)), config_(config) {}

Result<FlRunResult> FederatedTrainer::Run(ThreadPool* pool) const {
  if (clients_.empty()) {
    return Status::FailedPrecondition("no clients registered");
  }
  size_t features = clients_[0].data().num_features();
  int classes = clients_[0].data().num_classes();
  ml::LogisticRegression init(features, classes, config_.local);
  return RunFrom(init.weights(), pool);
}

Result<FlRunResult> FederatedTrainer::RunFrom(const ml::Matrix& initial,
                                              ThreadPool* pool) const {
  if (clients_.empty()) {
    return Status::FailedPrecondition("no clients registered");
  }
  if (pool == nullptr) pool = config_.pool;
  FlRunResult result;
  result.global_weights = initial;
  result.per_round_locals.reserve(config_.rounds);
  result.per_round_globals.reserve(config_.rounds);

  static auto& local_updates =
      obs::MetricsRegistry::Global().GetCounter("fl.local_updates");

  for (size_t round = 0; round < config_.rounds; ++round) {
    obs::ScopedSpan round_span(obs::Tracer::Global(), "fl_round", "fl");
    std::vector<ml::Matrix> locals(clients_.size());
    std::vector<Status> statuses(clients_.size(), Status::OK());
    auto train_one = [&](size_t i) {
      auto update = clients_[i].LocalUpdate(result.global_weights);
      if (update.ok()) {
        locals[i] = std::move(update).value();
      } else {
        statuses[i] = update.status();
      }
    };
    {
      obs::ScopedSpan span(obs::Tracer::Global(), "fedavg_train", "fl");
      if (pool != nullptr) {
        pool->ParallelFor(clients_.size(), train_one);
      } else {
        for (size_t i = 0; i < clients_.size(); ++i) train_one(i);
      }
    }
    local_updates.Add(clients_.size());
    for (const Status& s : statuses) {
      BCFL_RETURN_IF_ERROR(s);
    }

    obs::ScopedSpan agg_span(obs::Tracer::Global(), "aggregate", "fl");
    Result<ml::Matrix> aggregated = Status::Internal("unset");
    if (config_.weighted_aggregation) {
      std::vector<size_t> counts(clients_.size());
      for (size_t i = 0; i < clients_.size(); ++i) {
        counts[i] = clients_[i].num_examples();
      }
      aggregated = FedAvgWeighted(locals, counts);
    } else {
      aggregated = FedAvg(locals);
    }
    if (!aggregated.ok()) return aggregated.status();

    result.global_weights = std::move(aggregated).value();
    result.per_round_locals.push_back(std::move(locals));
    result.per_round_globals.push_back(result.global_weights);
  }
  return result;
}

Result<ml::Matrix> FederatedTrainer::TrainCentralized(
    const std::vector<size_t>& client_idx, size_t total_epochs) const {
  static auto& retrains =
      obs::MetricsRegistry::Global().GetCounter("fl.centralized_retrains");
  retrains.Add();
  if (client_idx.empty()) {
    // The empty coalition: the untrained (zero-weight) model.
    if (clients_.empty()) {
      return Status::FailedPrecondition("no clients registered");
    }
    ml::LogisticRegression init(clients_[0].data().num_features(),
                                clients_[0].data().num_classes(),
                                config_.local);
    return init.weights();
  }
  std::vector<const ml::Dataset*> parts;
  parts.reserve(client_idx.size());
  for (size_t idx : client_idx) {
    if (idx >= clients_.size()) {
      return Status::OutOfRange("client index out of range");
    }
    parts.push_back(&clients_[idx].data());
  }
  BCFL_ASSIGN_OR_RETURN(ml::Dataset merged, ml::Dataset::Concatenate(parts));
  ml::LogisticRegression model(merged.num_features(), merged.num_classes(),
                               config_.local);
  size_t epochs = total_epochs != 0
                      ? total_epochs
                      : config_.rounds * config_.local.epochs;
  BCFL_RETURN_IF_ERROR(model.TrainEpochs(merged, epochs));
  return model.weights();
}

}  // namespace bcfl::fl
