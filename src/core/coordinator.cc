#include "core/coordinator.h"

#include <cstdio>
#include <filesystem>

#include "common/fsync_util.h"
#include "core/reward_contract.h"
#include "core/session_summary.h"
#include "core/slash_contract.h"
#include "data/noise.h"
#include "data/partition.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace bcfl::core {

namespace {

// Replay-nonce layout. Every transaction a sender signs must carry a
// distinct nonce at any roster size, so the space is partitioned by
// method instead of relying on small fixed offsets: block 0 (below the
// per-round stride) holds the administrative transactions, and round r
// owns [(r+1)*stride, (r+2)*stride) with one submit slot, one recover
// slot and one slash slot per owner.
constexpr uint64_t kSetupNonce = 0;
constexpr uint64_t kFundNonce = 1;
constexpr uint64_t kDistributeNonce = 2;
constexpr uint64_t kClaimNonceBase = 3;

uint64_t RoundNonceStride(uint64_t num_owners) {
  return 3 * num_owners + kClaimNonceBase;
}

uint64_t SubmitNonce(uint64_t round, uint32_t owner, uint64_t num_owners) {
  return (round + 1) * RoundNonceStride(num_owners) + owner;
}

uint64_t RecoverNonce(uint64_t round, uint32_t owner, uint64_t num_owners) {
  return (round + 1) * RoundNonceStride(num_owners) + num_owners + owner;
}

uint64_t SlashNonce(uint64_t round, uint32_t offender, uint64_t num_owners) {
  return (round + 1) * RoundNonceStride(num_owners) + 2 * num_owners +
         offender;
}

}  // namespace

Result<std::unique_ptr<BcflCoordinator>> BcflCoordinator::Create(
    BcflConfig config) {
  if (config.num_owners < 2) {
    return Status::InvalidArgument("need at least two data owners");
  }
  if (config.num_miners < 1) {
    return Status::InvalidArgument("need at least one miner");
  }
  auto coord = std::unique_ptr<BcflCoordinator>(new BcflCoordinator());
  coord->config_ = config;
  coord->rng_ = std::make_unique<Xoshiro256>(config.seed);
  Xoshiro256& rng = *coord->rng_;

  // --- Data: synthesize, split 8:2, partition, quality gradient. -------
  ml::Dataset full =
      data::DigitsGenerator(
          {.num_instances = config.digits.num_instances, .seed = config.seed})
          .Generate();
  BCFL_ASSIGN_OR_RETURN(auto split, full.TrainTestSplit(0.8, &rng));
  ml::Dataset train = std::move(split.first);
  coord->test_set_ = std::move(split.second);
  BCFL_ASSIGN_OR_RETURN(
      std::vector<ml::Dataset> parts,
      data::PartitionUniform(train, config.num_owners, &rng));
  BCFL_RETURN_IF_ERROR(
      data::ApplyQualityGradient(&parts, config.sigma, config.seed + 1));

  // --- Owner-side state: FL clients, DH participants, signing keys. ----
  crypto::DiffieHellman dh;
  coord->clients_.reserve(config.num_owners);
  for (uint32_t i = 0; i < config.num_owners; ++i) {
    coord->clients_.emplace_back(i, std::move(parts[i]), config.local);
    // Paper-faithful pairwise-only masking: all owners participate in
    // every round (Sect. III), so no self masks are needed on chain.
    coord->participants_.push_back(
        std::make_unique<secureagg::SecureAggParticipant>(
            i, dh, &rng, /*use_self_mask=*/false));
    coord->schnorr_keys_.push_back(coord->schnorr_.GenerateKeyPair(&rng));
  }
  // Pairwise key agreement from the broadcast public keys.
  for (auto& p : coord->participants_) {
    for (const auto& q : coord->participants_) {
      if (p->id() == q->id()) continue;
      BCFL_RETURN_IF_ERROR(p->RegisterPeer(q->id(), q->public_key()));
    }
  }

  // Recovery material: each owner Shamir-shares its DH private key over
  // the roster, so a threshold of survivors can reveal a dropped owner's
  // key to the on-chain `recover` method (Bonawitz et al.).
  // ShareSecrets rejects a threshold above the roster.
  coord->threshold_ = crypto::ResolveThreshold(config.secure_agg_threshold,
                                               config.num_owners);
  coord->dh_shares_.reserve(config.num_owners);
  coord->dh_commitments_.reserve(config.num_owners);
  for (auto& p : coord->participants_) {
    BCFL_ASSIGN_OR_RETURN(
        secureagg::RecoveryShares shares,
        p->ShareSecrets(coord->threshold_, config.num_owners, &rng));
    coord->dh_shares_.push_back(std::move(shares.dh_private_shares));
    coord->dh_commitments_.push_back(std::move(shares.dh_commitment));
  }

  // --- Agreed parameters. ----------------------------------------------
  SetupParams params;
  params.num_owners = config.num_owners;
  params.rounds = config.rounds;
  params.num_groups = config.num_groups;
  params.seed_e = config.seed_e;
  params.fixed_point_bits = config.fixed_point_bits;
  params.weight_rows =
      static_cast<uint32_t>(coord->clients_[0].data().num_features() + 1);
  params.weight_cols =
      static_cast<uint32_t>(coord->clients_[0].data().num_classes());
  for (uint32_t i = 0; i < config.num_owners; ++i) {
    params.schnorr_public_keys.push_back(
        coord->schnorr_keys_[i].public_key);
    params.dh_public_keys.push_back(coord->participants_[i]->public_key());
    params.vss_commitments.push_back(coord->dh_commitments_[i].Serialize());
  }
  // The agreed byzantine-hardening knobs ride in the setup transaction so
  // every miner verifies slash evidence against the same parameters.
  params.shamir_threshold = static_cast<uint32_t>(coord->threshold_);
  params.update_norm_bound = config.update_norm_bound;
  BCFL_RETURN_IF_ERROR(params.Validate());
  coord->params_ = params;

  // --- The session's one pool: owner fan-out, proposal validation and
  // the FlContract's coalition scoring. ------------------------------
  const size_t threads = config.pool_threads != 0
                             ? config.pool_threads
                             : ThreadPool::DefaultThreads();
  coord->pool_ = std::make_unique<ThreadPool>(threads);

  // --- Chain: contract host, consensus engine, setup transaction. ------
  coord->host_ = std::make_shared<chain::ContractHost>(coord->schnorr_);
  auto fl_contract =
      std::make_shared<FlContract>(coord->test_set_, coord->pool_.get());
  BCFL_RETURN_IF_ERROR(coord->host_->Register(fl_contract));
  BCFL_RETURN_IF_ERROR(
      coord->host_->Register(std::make_shared<RewardContract>()));
  BCFL_RETURN_IF_ERROR(
      coord->host_->Register(std::make_shared<SlashContract>(fl_contract)));
  coord->engine_ = std::make_unique<chain::ConsensusEngine>(
      config.num_miners, coord->host_, config.consensus, coord->pool_.get());

  // Chaos wiring: a validated plan becomes the injector consulted by the
  // network filter, the consensus engine and the round driver below.
  if (!config.fault_plan.empty()) {
    BCFL_RETURN_IF_ERROR(config.fault_plan.Validate(
        config.num_owners, static_cast<uint32_t>(config.num_miners),
        coord->threshold_));
    coord->injector_ = std::make_unique<fault::FaultInjector>(
        config.fault_plan, config.num_owners,
        static_cast<uint32_t>(config.num_miners));
    coord->engine_->set_fault_injector(coord->injector_.get());
  }

  const chain::Transaction setup_tx = chain::Transaction::Sign(
      {.contract = "bcfl",
       .method = "setup",
       .payload = params.Serialize(),
       .nonce = kSetupNonce},
      coord->schnorr_, coord->schnorr_keys_[0], &rng);
  BCFL_RETURN_IF_ERROR(coord->engine_->SubmitTransaction(setup_tx));
  BCFL_ASSIGN_OR_RETURN(auto commits, coord->engine_->RunUntilDrained());
  if (commits.empty() || !commits.back().committed) {
    return Status::Internal("setup transaction failed to commit");
  }

  // --- Round engine: owner fan-out machinery on the same pool. ---------
  RoundEngine::Deps deps;
  deps.clients = &coord->clients_;
  deps.participants = &coord->participants_;
  deps.injector = coord->injector_.get();
  deps.retired = &coord->retired_;
  deps.fixed_point_bits = static_cast<int>(config.fixed_point_bits);
  coord->round_engine_ =
      std::make_unique<RoundEngine>(deps, coord->pool_.get());
  return coord;
}

std::vector<ml::Dataset> BcflCoordinator::OwnerDatasets() const {
  std::vector<ml::Dataset> out;
  out.reserve(clients_.size());
  for (const auto& client : clients_) out.push_back(client.data());
  return out;
}

Status BcflCoordinator::InstallMinerBehavior(size_t miner_idx,
                                             chain::MinerBehavior behavior) {
  if (miner_idx >= engine_->num_miners()) {
    return Status::OutOfRange("no such miner");
  }
  engine_->miner(miner_idx).set_behavior(std::move(behavior));
  return Status::OK();
}

uint64_t BcflCoordinator::ConfigFingerprint() const {
  ByteWriter writer;
  writer.WriteU32(config_.num_owners);
  writer.WriteU64(config_.num_miners);
  writer.WriteU32(config_.rounds);
  writer.WriteU32(config_.num_groups);
  writer.WriteU64(config_.seed);
  writer.WriteU64(config_.seed_e);
  writer.WriteU32(config_.fixed_point_bits);
  writer.WriteDouble(config_.sigma);
  writer.WriteDouble(config_.local.learning_rate);
  writer.WriteU64(config_.local.epochs);
  writer.WriteDouble(config_.local.l2_penalty);
  writer.WriteU64(config_.digits.num_instances);
  // Constants that were knobs: a binary built with other values must not
  // resume this session.
  writer.WriteU32(static_cast<uint32_t>(data::kDigitsMaxShift));
  writer.WriteDouble(data::kDigitsPixelJitter);
  writer.WriteDouble(data::kDigitsStrokeDropout);
  writer.WriteU64(config_.consensus.leader_seed);
  writer.WriteU64(config_.consensus.max_txs_per_block);
  writer.WriteU32(config_.consensus.max_retries);
  writer.WriteU64(chain::kViewChangeTimeoutUs);
  writer.WriteU64(config_.consensus.network.min_latency_us);
  writer.WriteU64(config_.consensus.network.max_latency_us);
  writer.WriteDouble(config_.consensus.network.drop_probability);
  writer.WriteU64(config_.consensus.network.seed);
  writer.WriteU64(config_.reward_pool);
  writer.WriteString(config_.fault_plan.ToString());
  writer.WriteU64(config_.secure_agg_threshold);
  writer.WriteDouble(config_.update_norm_bound);
  writer.WriteU64(kSubmitDeadlineUs);
  writer.WriteU64(kSubmitBackoffUs);
  writer.WriteU32(kMaxSubmitAttempts);
  const crypto::Digest digest = crypto::Sha256::Hash(writer.buffer());
  uint64_t fingerprint = 0;
  for (int i = 0; i < 8; ++i) {
    fingerprint |= static_cast<uint64_t>(digest[i]) << (8 * i);
  }
  return fingerprint;
}

Status BcflCoordinator::AttachPersistence(const PersistenceOptions& options) {
  if (persistence_attached_) {
    return Status::FailedPrecondition("persistence already attached");
  }
  if (options.state_dir.empty()) {
    return Status::InvalidArgument("persistence needs a state dir");
  }
  persist_ = options;
  if (persist_.checkpoint_every == 0) persist_.checkpoint_every = 1;
  std::error_code ec;
  std::filesystem::create_directories(persist_.state_dir, ec);
  if (ec) {
    return Status::Internal("cannot create state dir " + persist_.state_dir +
                            ": " + ec.message());
  }
  checkpoint_path_ = persist_.state_dir + "/checkpoint.bckp";
  kill_journal_path_ = persist_.state_dir + "/kill_journal";
  BCFL_ASSIGN_OR_RETURN(
      chain::BlockLog log,
      chain::BlockLog::Open(persist_.state_dir + "/blocks.log"));
  block_log_ = std::make_unique<chain::BlockLog>(std::move(log));

  Status st = persist_.resume ? RestoreFromState() : InitFreshState();
  if (!st.ok()) {
    block_log_.reset();
    return st;
  }
  // Durability before acknowledgement: from here on every committed block
  // is fsynced to the log inside the commit, or the commit fails closed.
  engine_->set_commit_sink([this](const chain::Block& block) {
    return block_log_->Append(block);
  });
  persistence_attached_ = true;
  return Status::OK();
}

Status BcflCoordinator::InitFreshState() {
  if (block_log_->tip_height() > 0) {
    return Status::FailedPrecondition(
        "state dir already holds a session (block log tip " +
        std::to_string(block_log_->tip_height()) +
        "); pass resume to continue it");
  }
  (void)block_log_->TakeRecoveredBlocks();
  // Create() already committed the setup block(s) through live consensus;
  // backfill them so the log holds every non-genesis block.
  const chain::Blockchain& chain = engine_->CanonicalChain();
  for (uint64_t h = 1; h <= chain.Height(); ++h) {
    BCFL_ASSIGN_OR_RETURN(chain::Block block, chain.GetBlock(h));
    BCFL_RETURN_IF_ERROR(block_log_->Append(block));
  }
  // Initial checkpoint: a kill at round 0 must already leave a resumable
  // state dir behind.
  return WriteCheckpoint(0);
}

Status BcflCoordinator::RestoreFromState() {
  static auto& replays = obs::MetricsRegistry::Global().GetCounter(
      "core.resume.blocks_replayed");
  obs::ScopedSpan span(obs::Tracer::Global(), "resume_restore", "core");
  BCFL_ASSIGN_OR_RETURN(SessionCheckpoint cp, LoadCheckpoint(checkpoint_path_));
  if (cp.config_fingerprint != ConfigFingerprint()) {
    return Status::FailedPrecondition(
        "checkpoint was taken under a different configuration — refusing "
        "to resume");
  }
  std::vector<chain::Block> logged = block_log_->TakeRecoveredBlocks();
  if (block_log_->tip_height() < cp.tip_height) {
    return Status::Corruption(
        "block log tip " + std::to_string(block_log_->tip_height()) +
        " is behind checkpoint tip " + std::to_string(cp.tip_height) +
        " — the log lost acknowledged blocks");
  }
  // Blocks past the checkpoint are re-created bit-identically by the
  // resumed rounds; drop them instead of replaying protocol state the
  // checkpoint knows nothing about.
  BCFL_RETURN_IF_ERROR(block_log_->TruncateToHeight(cp.tip_height));
  logged.resize(cp.tip_height);

  // Create() re-committed the setup block through live consensus. The
  // log's copy must match it byte for byte, or this state dir belongs to
  // a different session than the supplied configuration.
  const chain::Blockchain& live = engine_->CanonicalChain();
  if (live.Height() < 1 || logged.empty()) {
    return Status::Corruption("no setup block to verify the state dir by");
  }
  BCFL_ASSIGN_OR_RETURN(chain::Block setup_block, live.GetBlock(1));
  if (setup_block.Serialize() != logged[0].Serialize()) {
    return Status::Corruption(
        "logged setup block does not match this configuration's setup — "
        "wrong state dir?");
  }
  for (size_t i = 1; i < logged.size(); ++i) {
    BCFL_RETURN_IF_ERROR(
        engine_->ReplayCommittedBlock(logged[i], cp.miner_heights));
    replays.Add();
  }
  const chain::Blockchain& replayed = engine_->CanonicalChain();
  if (replayed.Height() != cp.tip_height ||
      replayed.Tip().header.Hash() != cp.tip_hash) {
    return Status::Corruption(
        "replayed chain tip diverges from the checkpoint tip");
  }

  // The replayed chain holds every on-chain result of the rounds before
  // the checkpoint; it must have completed exactly those rounds.
  BCFL_ASSIGN_OR_RETURN(BcflRunResult on_chain,
                        ReadRunResult(replayed, engine_->CanonicalState()));
  if (on_chain.per_round_sv.size() != cp.next_round) {
    return Status::Corruption(
        "replayed chain completed " +
        std::to_string(on_chain.per_round_sv.size()) +
        " rounds, but the checkpoint resumes at round " +
        std::to_string(cp.next_round));
  }

  rng_->RestoreState(cp.session_rng);
  BCFL_RETURN_IF_ERROR(
      engine_->mutable_network().RestoreResumeState(cp.network));
  retired_ = std::move(on_chain.retired_at);
  restored_sv_history_ = std::move(on_chain.per_round_sv);
  round_accuracies_ = std::move(cp.round_accuracies);
  submission_retries_ = static_cast<size_t>(cp.submission_retries);
  start_round_ = cp.next_round;
  return DisarmJournaledKills();
}

Status BcflCoordinator::WriteCheckpoint(uint64_t next_round) {
  static auto& checkpoints = obs::MetricsRegistry::Global().GetCounter(
      "core.checkpoints_written");
  obs::ScopedSpan span(obs::Tracer::Global(), "checkpoint", "core");
  SessionCheckpoint cp;
  cp.config_fingerprint = ConfigFingerprint();
  cp.next_round = next_round;
  cp.session_rng = rng_->SaveState();
  cp.network = engine_->mutable_network().SaveResumeState();
  const chain::Blockchain& chain = engine_->CanonicalChain();
  cp.tip_height = chain.Height();
  cp.tip_hash = chain.Tip().header.Hash();
  cp.miner_heights = engine_->MinerHeights();
  cp.round_accuracies = round_accuracies_;
  cp.submission_retries = submission_retries_;
  BCFL_RETURN_IF_ERROR(SaveCheckpoint(cp, checkpoint_path_));
  checkpoints.Add();
  return Status::OK();
}

Status BcflCoordinator::JournalKill(uint64_t round) {
  std::FILE* file = std::fopen(kill_journal_path_.c_str(), "a");
  if (file == nullptr) {
    return Status::Internal("cannot open kill journal " + kill_journal_path_);
  }
  std::fprintf(file, "%llu\n", static_cast<unsigned long long>(round));
  Status sync = FlushAndSync(file);
  std::fclose(file);
  BCFL_RETURN_IF_ERROR(sync.WithContext("journaling kill"));
  return SyncParentDir(kill_journal_path_);
}

Status BcflCoordinator::DisarmJournaledKills() {
  std::FILE* file = std::fopen(kill_journal_path_.c_str(), "r");
  if (file == nullptr) return Status::OK();  // No kill has fired yet.
  unsigned long long round = 0;
  while (std::fscanf(file, "%llu", &round) == 1) {
    if (injector_ != nullptr) {
      injector_->DisarmKill(static_cast<uint64_t>(round));
    }
  }
  std::fclose(file);
  return Status::OK();
}

Result<uint32_t> BcflCoordinator::FindReporter(
    const std::set<uint32_t>& excluded) const {
  for (uint32_t j = 0; j < config_.num_owners; ++j) {
    if (excluded.count(j) > 0 || retired_.count(j) > 0) continue;
    if (injector_ != nullptr && injector_->OwnerOffline(j)) continue;
    return j;
  }
  return Status::FailedPrecondition(
      "no online owner left to sign an accusation or a recovery");
}

Status BcflCoordinator::SubmitSlash(uint64_t round, uint32_t offender,
                                    uint32_t reporter, const Bytes& payload,
                                    const char* what) {
  static auto& slashes =
      obs::MetricsRegistry::Global().GetCounter("fl.slashes");
  const chain::Transaction tx = chain::Transaction::Sign(
      {.contract = "slash",
       .method = "slash",
       .payload = payload,
       .nonce = SlashNonce(round, offender, config_.num_owners)},
      schnorr_, schnorr_keys_[reporter], rng_.get());
  BCFL_RETURN_IF_ERROR(engine_->SubmitTransaction(tx));
  slashes.Add();
  // A conviction retires the offender exactly like a recovery: its key is
  // public now, so it can never safely mask again.
  retired_[offender] = round;
  if (injector_ != nullptr) {
    injector_->RecordExecuted(round, "slashed owner " +
                                         std::to_string(offender) + " (" +
                                         what + "); retired, reward burned");
  }
  return Status::OK();
}

Status BcflCoordinator::SlashEquivocator(uint32_t owner, uint64_t round,
                                         const Bytes& payload) {
  // The owner signed two well-formed submissions for the same round slot;
  // either alone would be valid, together they convict. The second is a
  // tampered twin of the first (one masked word flipped) — any two
  // differing payloads equivocate.
  const chain::Transaction first = chain::Transaction::Sign(
      {.contract = "bcfl",
       .method = "submit_update",
       .payload = payload,
       .nonce = SubmitNonce(round, owner, config_.num_owners)},
      schnorr_, schnorr_keys_[owner], rng_.get());

  chain::TxBody twin = first.body();
  twin.payload.back() ^= 1;
  const chain::Transaction second = chain::Transaction::Sign(
      std::move(twin), schnorr_, schnorr_keys_[owner], rng_.get());

  BCFL_ASSIGN_OR_RETURN(uint32_t reporter, FindReporter({owner}));
  const Bytes evidence = SlashContract::EncodeEquivocation(
      round, owner, participants_[owner]->private_key(), first, second);
  return SubmitSlash(round, owner, reporter, evidence, "equivocation");
}

Result<bool> BcflCoordinator::SubmitPreparedWithRetries(
    uint32_t owner, uint64_t round, const Bytes& payload,
    uint64_t deadline_us) {
  static auto& retries_counter =
      obs::MetricsRegistry::Global().GetCounter("fl.submission_retries");
  net::SimulatedNetwork& network = engine_->mutable_network();
  uint64_t extra = injector_ != nullptr ? injector_->OwnerExtraDelayUs(owner)
                                        : 0;
  if (extra > 0) network.AdvanceClock(extra);
  uint64_t backoff = kSubmitBackoffUs;
  for (uint32_t attempt = 0; attempt < kMaxSubmitAttempts; ++attempt) {
    if (network.clock().NowMicros() > deadline_us) break;
    if (injector_ != nullptr && injector_->DropSubmissionAttempt(owner)) {
      retries_counter.Add();
      submission_retries_++;
      network.AdvanceClock(backoff);
      backoff *= 2;
      continue;
    }
    const chain::Transaction tx = chain::Transaction::Sign(
        {.contract = "bcfl",
         .method = "submit_update",
         .payload = payload,
         .nonce = SubmitNonce(round, owner, config_.num_owners)},
        schnorr_, schnorr_keys_[owner], rng_.get());
    BCFL_RETURN_IF_ERROR(engine_->SubmitTransaction(tx));
    return true;
  }
  return false;  // Deadline missed: the owner counts as dropped.
}

Status BcflCoordinator::RecoverMissingOwners(
    uint64_t round, const std::set<uint32_t>& missing) {
  if (missing.empty()) return Status::OK();
  static auto& dropouts_detected =
      obs::MetricsRegistry::Global().GetCounter("fl.dropouts_detected");
  static auto& recoveries =
      obs::MetricsRegistry::Global().GetCounter("fl.recoveries");
  obs::ScopedSpan span(obs::Tracer::Global(), "recover_phase", "fl");

  // The lowest online survivor signs the recovery transactions (any
  // registered owner may; the reveal is collective, not one's secret).
  BCFL_ASSIGN_OR_RETURN(const uint32_t reporter, FindReporter(missing));

  // Reconstruct every missing owner's key from the shares of the
  // surviving holders — online, un-retired, not themselves missing.
  //
  // VSS (PR 9): every revealed share is Feldman-verified against the
  // dealer's setup commitment before it may enter the reconstruction. A
  // share that fails is skipped — the next surviving holder serves, so
  // the accepted holder sequence is exactly the one a run where the
  // forger had crashed would use — and the forger is accused below with
  // the signed forged share as on-chain evidence. Below the threshold the
  // reveal fails closed: never a wrong key, only no key.
  BCFL_ASSIGN_OR_RETURN(
      const crypto::ShamirSecretSharing scheme,
      crypto::ShamirSecretSharing::Create(threshold_, config_.num_owners));
  struct BadShare {
    uint32_t dealer;
    crypto::ShamirShare share;
  };
  std::map<uint32_t, BadShare> forgers;  // First forged reveal per holder.
  std::vector<uint32_t> targets(missing.begin(), missing.end());
  std::vector<crypto::UInt256> dh_keys;
  dh_keys.reserve(targets.size());
  for (uint32_t u : targets) {
    dropouts_detected.Add();
    std::vector<uint32_t> holders;
    std::vector<crypto::ShamirShare> candidates;
    for (uint32_t holder = 0; holder < config_.num_owners; ++holder) {
      if (missing.count(holder) > 0 || retired_.count(holder) > 0) continue;
      if (injector_ != nullptr && injector_->OwnerOffline(holder)) continue;
      crypto::ShamirShare share = dh_shares_[u][holder];
      if (injector_ != nullptr && injector_->OwnerForgesShare(holder)) {
        // The byzantine holder reveals a perturbed share (still in-field,
        // still in its own slot — only verifiable against the dealer's
        // commitment, not by inspection).
        for (uint64_t& value : share.values) {
          value = crypto::ShamirSecretSharing::FieldAdd(value, 1);
        }
      }
      holders.push_back(holder);
      candidates.push_back(std::move(share));
    }
    auto reveal = scheme.RevealVerified(candidates, dh_commitments_[u], 32);
    if (!reveal.ok()) {
      return reveal.status().WithContext("revealing owner " +
                                         std::to_string(u) + "'s key");
    }
    for (size_t k : reveal->rejected) {
      forgers.emplace(holders[k], BadShare{u, std::move(candidates[k])});
    }
    BCFL_ASSIGN_OR_RETURN(crypto::UInt256 dh_key,
                          crypto::UInt256::FromBytes(reveal->secret));
    dh_keys.push_back(dh_key);
  }

  // Accusations first: each forger signed its reveal (a holder
  // authenticates the share it hands over), which is exactly what pins
  // the forgery on it — the slash contract re-verifies the signature and
  // re-runs the failing Feldman check on every miner. Slash transactions
  // go in ahead of the recoveries so the conviction (which strikes the
  // forger's submitted update) executes before the recovery that would
  // otherwise complete the round with the forger still counted.
  for (auto& [forger, bad] : forgers) {
    if (retired_.count(forger) > 0) continue;  // Already convicted.
    const crypto::SchnorrSignature reveal_sig = schnorr_.Sign(
        schnorr_keys_[forger],
        SlashContract::BadShareMessage(round, bad.dealer, bad.share),
        rng_.get());
    const Bytes evidence = SlashContract::EncodeBadShare(
        round, forger, participants_[forger]->private_key(), bad.dealer,
        bad.share, reveal_sig);
    BCFL_RETURN_IF_ERROR(
        SubmitSlash(round, forger, reporter, evidence, "bad share"));
  }

  // Replay the recovery transactions in ascending owner order — the same
  // signing (RNG) and submission sequence as recovering one at a time.
  for (size_t k = 0; k < targets.size(); ++k) {
    const uint32_t u = targets[k];
    const crypto::UInt256& dh_key = dh_keys[k];
    const chain::Transaction tx = chain::Transaction::Sign(
        {.contract = "bcfl",
         .method = "recover",
         .payload = FlContract::EncodeRecover(round, u, dh_key),
         .nonce = RecoverNonce(round, u, config_.num_owners)},
        schnorr_, schnorr_keys_[reporter], rng_.get());
    BCFL_RETURN_IF_ERROR(engine_->SubmitTransaction(tx));
    recoveries.Add();
    retired_[u] = round;
    if (injector_ != nullptr) {
      injector_->RecordExecuted(round, "recovered owner " + std::to_string(u) +
                                           "; retired from the session");
    }
  }
  return Status::OK();
}

Status BcflCoordinator::AuditFlaggedGroups(uint64_t round) {
  static auto& audits =
      obs::MetricsRegistry::Global().GetCounter("fl.norm_audits");
  const chain::ContractState& state = engine_->CanonicalState();
  const auto flagged = state.KeysWithPrefix(keys::FlaggedPrefix(round));
  if (flagged.empty()) return Status::OK();
  audits.Add();
  obs::ScopedSpan span(obs::Tracer::Global(), "norm_audit", "fl");

  BCFL_ASSIGN_OR_RETURN(std::vector<std::vector<size_t>> groups,
                        params_.RoundGroups(round));
  for (const auto& key : flagged) {
    BCFL_ASSIGN_OR_RETURN(const uint32_t group_index,
                          keys::TrailingIndex(key));
    if (group_index >= groups.size()) {
      return Status::Internal("flag marker for unknown group");
    }
    // Audit each submitter of the flagged group: unmask its on-chain
    // submission and measure (the driver models the mask-opening audit —
    // an honest member proves innocence by opening its own masks, while
    // the offender's refusal triggers the threshold reveal of its key).
    for (size_t member : groups[group_index]) {
      const uint32_t suspect = static_cast<uint32_t>(member);
      if (retired_.count(suspect) > 0) continue;
      if (!state.Has(keys::Update(round, suspect))) continue;
      BCFL_ASSIGN_OR_RETURN(
          double norm,
          SlashContract::UnmaskedUpdateNorm(
              params_, round, suspect,
              participants_[suspect]->private_key(), state));
      if (norm <= config_.update_norm_bound) continue;
      BCFL_ASSIGN_OR_RETURN(uint32_t reporter, FindReporter({suspect}));
      const Bytes evidence = SlashContract::EncodeNormViolation(
          round, suspect, participants_[suspect]->private_key());
      BCFL_RETURN_IF_ERROR(SubmitSlash(round, suspect, reporter, evidence,
                                       "norm violation"));
    }
  }
  return Status::OK();
}

Result<BcflRunResult> BcflCoordinator::Run() {
  static auto& rounds_counter =
      obs::MetricsRegistry::Global().GetCounter("fl.rounds");
  static auto& accuracy_gauge =
      obs::MetricsRegistry::Global().GetGauge("fl.round_accuracy");
  const size_t n = config_.num_owners;
  // The chain's latest model: zero before round 0, the replayed chain's
  // after a resume. Everything else below is unchanged, which is exactly
  // why a resumed continuation is bit-identical.
  BCFL_ASSIGN_OR_RETURN(
      BcflRunResult start,
      ReadRunResult(engine_->CanonicalChain(), engine_->CanonicalState()));
  ml::Matrix global = std::move(start.global_weights);

  // Ledger probes: a record's phases are the round's growth of the live
  // latency histograms the exposition endpoint serves, keyed by their
  // names, so a ledger line, a /metrics scrape and trace.json tell one
  // story in one vocabulary.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter& sig_hits = registry.GetCounter("chain.sigcache.hits");
  obs::Counter& sig_misses = registry.GetCounter("chain.sigcache.misses");
  // Held back for the final round when a reward phase follows, so the
  // reward phase lands on that round's (still one-per-round) record.
  obs::RoundRecord pending_final_record;
  bool have_pending_final_record = false;

  for (uint64_t round = start_round_; round < config_.rounds; ++round) {
    obs::ScopedSpan round_span(obs::Tracer::Global(), "round", "fl");
    rounds_counter.Add();
    if (injector_ != nullptr) injector_->BeginRound(round);
    // Process-kill fault (PR 10): fires at the start of its round, after
    // journaling itself so a resumed process disarms it instead of
    // refiring. bcfl_sim's handler hard-exits here; in-process callers
    // (tests) get FailedPrecondition and resume from the state dir.
    if (injector_ != nullptr && injector_->KillScheduled(round)) {
      was_killed_ = true;
      killed_round_ = round;
      if (persistence_attached_) {
        BCFL_RETURN_IF_ERROR(JournalKill(round));
      }
      injector_->RecordExecuted(
          round, "kill: coordinator process dies at round start");
      if (kill_handler_) kill_handler_(round);
      return Status::FailedPrecondition("killed by fault plan at round " +
                                        std::to_string(round));
    }
    const obs::MetricsSnapshot phases0 =
        ledger_ != nullptr ? registry.Snapshot() : obs::MetricsSnapshot{};
    const uint64_t sig_hits0 = sig_hits.Value();
    const uint64_t sig_misses0 = sig_misses.Value();
    const size_t fault_log0 =
        injector_ != nullptr ? injector_->executed_log().size() : 0;
    // Owners derive the round's grouping locally from the agreed seed.
    // Retired owners stay in the grouping (survivors keep masking against
    // them; the contract cancels those masks from the on-chain keys).
    BCFL_ASSIGN_OR_RETURN(std::vector<std::vector<size_t>> groups,
                          params_.RoundGroups(round));

    // Local training + masked submissions with a per-round deadline.
    // Owners that are retired, offline, or miss the deadline after the
    // retry budget are collected for the recovery phase.
    const uint64_t deadline_us =
        engine_->mutable_network().clock().NowMicros() + kSubmitDeadlineUs;
    std::set<uint32_t> missing;
    {
      // Fan the per-owner work (train, encode, mask, payload) across the
      // pool, then replay submissions in canonical owner order on this
      // thread. Training and masking touch neither the simulated clock
      // nor the session RNG, so the replayed protocol-event sequence —
      // clock advances, injector drop draws, signing nonces, chain
      // submissions — does not depend on the pool size.
      obs::ScopedSpan span(obs::Tracer::Global(), "train", "fl");
      BCFL_RETURN_IF_ERROR(round_engine_->PrepareOwners(round, global, groups,
                                                        &round_scratch_));
      obs::ScopedSpan admission_span(obs::Tracer::Global(), "tx_admission",
                                     "fl");
      for (uint32_t i = 0; i < n; ++i) {
        if (retired_.count(i) > 0) continue;
        if (injector_ != nullptr && injector_->OwnerOffline(i)) {
          missing.insert(i);
          continue;
        }
        // Equivocation is caught at admission (PR 9): the owner produced
        // two conflicting signed submissions, so neither is admitted and
        // the accusation carries both — the owner never lands an update,
        // exactly like a crash, and needs no recovery (the slash reveals
        // its key).
        if (injector_ != nullptr && injector_->OwnerEquivocates(i)) {
          BCFL_RETURN_IF_ERROR(
              SlashEquivocator(i, round, round_scratch_.slots[i].payload));
          continue;
        }
        BCFL_ASSIGN_OR_RETURN(
            bool submitted,
            SubmitPreparedWithRetries(i, round,
                                      round_scratch_.slots[i].payload,
                                      deadline_us));
        if (!submitted) missing.insert(i);
      }
    }
    // Consensus drains the submissions; if owners missed the deadline the
    // survivors then drive the on-chain Shamir recovery, which completes
    // the round with the dropped owners scored zero.
    BCFL_ASSIGN_OR_RETURN(auto commits, engine_->RunUntilDrained());
    BCFL_RETURN_IF_ERROR(RecoverMissingOwners(round, missing));
    if (!missing.empty()) {
      BCFL_ASSIGN_OR_RETURN(auto recovery_commits, engine_->RunUntilDrained());
      commits.insert(commits.end(), recovery_commits.begin(),
                     recovery_commits.end());
    }
    // Norm-gate audit (PR 9): a round held open by `flagged/` markers
    // means some group's decoded aggregate broke the agreed bound. The
    // audit convicts the violating submitters; their slashes convert them
    // into this round's dropouts and the re-evaluation completes clean.
    if (config_.update_norm_bound > 0 &&
        !engine_->CanonicalState().Has(keys::RoundComplete(round))) {
      BCFL_RETURN_IF_ERROR(AuditFlaggedGroups(round));
      BCFL_ASSIGN_OR_RETURN(auto audit_commits, engine_->RunUntilDrained());
      commits.insert(commits.end(), audit_commits.begin(),
                     audit_commits.end());
    }
    for (const auto& commit : commits) {
      if (!commit.committed) {
        return Status::Internal("consensus failed during round " +
                                std::to_string(round));
      }
    }

    const chain::ContractState& state = engine_->CanonicalState();
    if (!state.Has(keys::RoundComplete(round))) {
      return Status::Internal("round " + std::to_string(round) +
                              " did not complete on chain");
    }

    // Download the new global model (Sect. IV-B bullet 2).
    BCFL_ASSIGN_OR_RETURN(global,
                          GetMatrix(state, keys::GlobalModel(round)));

    double acc = 0.0;
    {
      obs::ScopedSpan eval_span(obs::Tracer::Global(), "eval", "fl");
      BCFL_ASSIGN_OR_RETURN(ml::LogisticRegression model,
                            ml::LogisticRegression::FromWeights(global));
      BCFL_ASSIGN_OR_RETURN(acc, model.Accuracy(test_set_));
    }
    accuracy_gauge.Set(acc);
    round_accuracies_.push_back(acc);

    if (ledger_ != nullptr) {
      obs::RoundRecord record;
      record.round = round;
      obs::AddPhaseDeltas(phases0, registry.Snapshot(), &record.phase_us);
      const uint64_t hits = sig_hits.Value() - sig_hits0;
      const uint64_t misses = sig_misses.Value() - sig_misses0;
      record.sig_cache_lookups = hits + misses;
      record.sig_cache_hit_rate =
          record.sig_cache_lookups > 0
              ? static_cast<double>(hits) /
                    static_cast<double>(record.sig_cache_lookups)
              : 0.0;
      if (injector_ != nullptr) {
        const auto& log = injector_->executed_log();
        for (size_t k = fault_log0; k < log.size(); ++k) {
          record.fault_events.push_back(
              "round " + std::to_string(log[k].round) + ": " + log[k].what);
        }
      }
      record.dropouts.assign(missing.begin(), missing.end());
      BCFL_ASSIGN_OR_RETURN(const auto convicted, GetConvictionRounds(state));
      for (const auto& [owner, retired_round] : retired_) {
        if (retired_round != round) continue;
        (convicted.count(owner) > 0 ? record.slashed : record.recovered)
            .push_back(owner);
      }
      record.sv.resize(n);
      for (uint32_t i = 0; i < n; ++i) {
        BCFL_ASSIGN_OR_RETURN(record.sv[i],
                              GetDouble(state, keys::RoundSv(round, i)));
      }
      record.accuracy = acc;
      record.blocks_committed = commits.size();
      for (const auto& commit : commits) {
        BCFL_ASSIGN_OR_RETURN(
            const chain::Block block,
            engine_->CanonicalChain().GetBlock(commit.height));
        record.transactions += block.txs.size();
        for (const chain::Transaction& tx : block.txs) {
          if (tx.contract() == "slash") record.accusations++;
        }
      }
      if (round + 1 == config_.rounds && config_.reward_pool > 0) {
        pending_final_record = std::move(record);
        have_pending_final_record = true;
      } else {
        BCFL_RETURN_IF_ERROR(ledger_->Append(record));
      }
    }

    // Session checkpoint (PR 10): taken at the round boundary, after the
    // ledger record landed. The final round is never checkpointed — a
    // completed session has nothing left to resume.
    if (persistence_attached_ && round + 1 < config_.rounds &&
        (round + 1) % persist_.checkpoint_every == 0) {
      BCFL_RETURN_IF_ERROR(
          WriteCheckpoint(round + 1)
              .WithContext("checkpoint after round " + std::to_string(round)));
    }
  }

  // Optional incentive phase: fund -> distribute -> per-owner claims,
  // all as on-chain transactions. The held-back final record gets it as a
  // second window, which leaves out the final round span's own close.
  const obs::MetricsSnapshot reward0 = have_pending_final_record
                                           ? registry.Snapshot()
                                           : obs::MetricsSnapshot{};
  if (config_.reward_pool > 0) {
    obs::ScopedSpan reward_span(obs::Tracer::Global(), "reward_phase", "fl");
    BCFL_RETURN_IF_ERROR(engine_->SubmitTransaction(chain::Transaction::Sign(
        {.contract = "reward",
         .method = "fund",
         .payload = RewardContract::EncodeFund(config_.reward_pool),
         .nonce = kFundNonce},
        schnorr_, schnorr_keys_[0], rng_.get())));
    BCFL_RETURN_IF_ERROR(engine_->SubmitTransaction(chain::Transaction::Sign(
        {.contract = "reward",
         .method = "distribute",
         .nonce = kDistributeNonce},
        schnorr_, schnorr_keys_[0], rng_.get())));

    for (uint32_t i = 0; i < n; ++i) {
      if (retired_.count(i) > 0) continue;  // Retired owners cannot claim.
      BCFL_RETURN_IF_ERROR(engine_->SubmitTransaction(chain::Transaction::Sign(
          {.contract = "reward",
           .method = "claim",
           .payload = RewardContract::EncodeClaim(i),
           .nonce = kClaimNonceBase + i},
          schnorr_, schnorr_keys_[i], rng_.get())));
    }
    BCFL_ASSIGN_OR_RETURN(auto commits, engine_->RunUntilDrained());
    pending_final_record.blocks_committed += commits.size();
    for (const auto& commit : commits) {
      if (!commit.committed) {
        return Status::Internal("reward phase failed to commit");
      }
      pending_final_record.transactions += commit.num_txs;
    }
  }
  if (have_pending_final_record) {
    obs::AddPhaseDeltas(reward0, registry.Snapshot(),
                        &pending_final_record.phase_us);
    BCFL_RETURN_IF_ERROR(ledger_->Append(pending_final_record));
  }

  // Everything the chain records is read back from it, once.
  BCFL_ASSIGN_OR_RETURN(
      BcflRunResult result,
      ReadRunResult(engine_->CanonicalChain(), engine_->CanonicalState()));
  result.round_accuracies = round_accuracies_;
  result.submission_retries = submission_retries_;
  return result;
}

}  // namespace bcfl::core
