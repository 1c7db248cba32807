#pragma once

// Frozen test vectors for the round path: the `session_summary` JSON (see
// core/session_summary.h) that the retired serial round loop — train owner
// i, submit owner i, then owner i+1 — produced on three small sessions,
// captured once before that loop was deleted. The fan-out engine must
// reproduce them at every pool size, so a change that keeps pool-size
// invariance but alters what lands on chain (submission or signing order,
// a byzantine perturbation, the recovery path) still fails. The fourth,
// kBadShareRewardSession, was captured later from the fan-out engine to pin
// the conviction, reward and claim records. Each vector names the test and
// config it was captured on; a vector only applies to exactly that config.

namespace bcfl::core::frozen {

/// RoundEngineTest.ChainContentIsPoolSizeInvariant: EngineConfig() in
/// test_round_engine.cc, no faults.
inline constexpr char kCleanSession[] =
    R"({"chain_tip_height":3,"chain_tip_hash":)"
    R"("e6924ea8fa6d9a13b092a4b8a43556888b251c6b4946187deba35b911c2055ee",)"
    R"("blocks_committed":2,"transactions":8,"recover_transactions":0,)"
    R"("submission_retries":0,"slash_transactions":0,"sv_digest":)"
    R"("44d45744c16675599d59b9f84794d44f61de4a2e004b0576bd372d18b16bc438",)"
    R"("weights_digest":)"
    R"("71a1f3dc4fd017611e1fd8eb53bdcdb700f7511cae7975dc4370ad8cbd6b68a1",)"
    R"("accuracy_digest":)"
    R"("795544dc1b21bb173baf1c0e98e4e47de3296ac85eb2265fee3ac624cdd5d0ef"})";

/// DropoutRecoveryTest.FaultedRunIsPoolSizeInvariant: FaultableConfig() in
/// test_dropout_recovery.cc with "crash owner 2 @1; drop-submit owner 1
/// @2 x2".
inline constexpr char kFaultedSession[] =
    R"({"chain_tip_height":5,"chain_tip_hash":)"
    R"("9acd8bc4f0565871b5ac27217bf49d611991ecedc5c5986bd4153ea90a78386f",)"
    R"("blocks_committed":4,"transactions":11,"recover_transactions":1,)"
    R"("submission_retries":2,"slash_transactions":0,"sv_digest":)"
    R"("c0949e37e8f32ac15e70c8d92f4ef3effa72cd36a41cd3584f0d565356bdd445",)"
    R"("weights_digest":)"
    R"("0c57d0b2d4a0a10e16da20508f6ce0fea8e0645d1f5050423e5ab4ec24f12b7c",)"
    R"("accuracy_digest":)"
    R"("3792258969c1f7f8f82be853ed88e02d79ee7e419ebc31adf64ffdf5b72534d2"})";

/// ByzantineTest.MixedByzantinePlanIsPoolSizeInvariant: ByzantineConfig()
/// in test_byzantine.cc with "equivocate-submit owner 2 @1; poison-update
/// owner 4 @2 *50".
inline constexpr char kByzantineSession[] =
    R"({"chain_tip_height":5,"chain_tip_hash":)"
    R"("1f1058702af885727f7709b27f9f8bfce5b006757870f6bbdc62576b675219f6",)"
    R"("blocks_committed":4,"transactions":18,"recover_transactions":0,)"
    R"("submission_retries":0,"slash_transactions":2,"sv_digest":)"
    R"("c85c1888c3c9814f2a291f68fd0019806eb933db79996017ae2e2275e8bb3fb9",)"
    R"("weights_digest":)"
    R"("2a8c0e32af95397f43b69b59520e92c7573121129b35e272bb7c7792f6b41e17",)"
    R"("accuracy_digest":)"
    R"("29a230ad271ab810bb6ceddda1a67a3391360a3ca2e616ef3c51074cc2616eb2"})";

/// ByzantineTest.BadShareRewardSessionIsPoolSizeInvariant: ByzantineConfig()
/// in test_byzantine.cc with reward_pool = 1'000'000 and "crash owner 1
/// @1; bad-share owner 3 @1" — a bad-share conviction, a reward
/// distribution with a burn, and the survivors' claims.
inline constexpr char kBadShareRewardSession[] =
    R"({"chain_tip_height":6,"chain_tip_hash":)"
    R"("33b0dd53b7579d6994043d7d72a35d3a6d571f31ee5bcc25e3e81981bda759d4",)"
    R"("blocks_committed":5,"transactions":23,"recover_transactions":1,)"
    R"("submission_retries":0,"slash_transactions":1,"sv_digest":)"
    R"("ca7bbb78ae82f75b5b212de88c046f939125bbf9a4412bb39e411953b0df5801",)"
    R"("weights_digest":)"
    R"("d425685c224fc307c8bc14782e93c5434d75ab3933b3af4293511677879ead83",)"
    R"("accuracy_digest":)"
    R"("8b952552019c69b71f78016dc09d89f23d9595c2e5e2aff3004fb481c91912eb"})";

}  // namespace bcfl::core::frozen
