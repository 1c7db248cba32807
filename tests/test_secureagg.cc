#include "secureagg/session.h"

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "secureagg/mask.h"

namespace bcfl::secureagg {
namespace {

std::vector<double> RandomUpdate(size_t len, Xoshiro256* rng) {
  std::vector<double> out(len);
  for (auto& v : out) v = rng->NextGaussian(0.0, 1.0);
  return out;
}

std::vector<double> PlainMean(const std::vector<std::vector<double>>& updates,
                              const std::vector<OwnerId>& members) {
  std::vector<double> mean(updates[0].size(), 0.0);
  for (OwnerId id : members) {
    for (size_t i = 0; i < mean.size(); ++i) mean[i] += updates[id][i];
  }
  for (auto& v : mean) v /= static_cast<double>(members.size());
  return mean;
}

TEST(MaskTest, DeterministicAndRoundSeparated) {
  std::array<uint8_t, 32> key{};
  key[0] = 7;
  std::vector<uint64_t> m1, m2, m3;
  ExpandMaskInto(key, 3, 10, &m1);
  ExpandMaskInto(key, 3, 10, &m2);
  ExpandMaskInto(key, 4, 10, &m3);
  EXPECT_EQ(m1.size(), 10u);
  EXPECT_EQ(m1, m2);
  EXPECT_NE(m1, m3);
  std::vector<uint64_t> self;
  ExpandSelfMaskInto(key, 3, 10, &self);
  EXPECT_NE(m1, self);  // Domain separation.
}

TEST(ParticipantTest, PairKeysAgree) {
  crypto::DiffieHellman dh;
  Xoshiro256 rng(1);
  SecureAggParticipant a(0, dh, &rng), b(1, dh, &rng);
  ASSERT_TRUE(a.RegisterPeer(1, b.public_key()).ok());
  ASSERT_TRUE(b.RegisterPeer(0, a.public_key()).ok());
  auto ka = a.PairKey(1);
  auto kb = b.PairKey(0);
  ASSERT_TRUE(ka.ok());
  ASSERT_TRUE(kb.ok());
  EXPECT_EQ(*ka, *kb);
}

TEST(ParticipantTest, RejectsSelfAndBadKeys) {
  crypto::DiffieHellman dh;
  Xoshiro256 rng(2);
  SecureAggParticipant a(0, dh, &rng);
  EXPECT_TRUE(a.RegisterPeer(0, crypto::UInt256(5)).IsInvalidArgument());
  EXPECT_TRUE(
      a.RegisterPeer(1, crypto::UInt256(0)).IsInvalidArgument());
}

TEST(ParticipantTest, MaskUpdateRequiresMembershipAndKeys) {
  crypto::DiffieHellman dh;
  Xoshiro256 rng(3);
  SecureAggParticipant a(0, dh, &rng);
  std::vector<uint64_t> update(4, 1);
  // Not in group.
  EXPECT_TRUE(a.MaskUpdate(0, {1, 2}, update).status().IsInvalidArgument());
  // In group but peer 1 unregistered.
  EXPECT_TRUE(
      a.MaskUpdate(0, {0, 1}, update).status().IsFailedPrecondition());
}

TEST(PairwiseMaskingTest, MasksCancelExactlyWithinGroup) {
  // Paper-faithful pairwise-only masking: the ring sum of all masked
  // updates equals the ring sum of the plain updates bit-for-bit.
  crypto::DiffieHellman dh;
  Xoshiro256 rng(4);
  constexpr size_t kN = 5;
  constexpr size_t kLen = 64;
  std::vector<std::unique_ptr<SecureAggParticipant>> parts;
  for (size_t i = 0; i < kN; ++i) {
    parts.push_back(std::make_unique<SecureAggParticipant>(
        static_cast<OwnerId>(i), dh, &rng, /*use_self_mask=*/false));
  }
  for (auto& p : parts) {
    for (auto& q : parts) {
      if (p->id() != q->id()) {
        ASSERT_TRUE(p->RegisterPeer(q->id(), q->public_key()).ok());
      }
    }
  }
  std::vector<OwnerId> group = {0, 1, 2, 3, 4};
  std::vector<uint64_t> plain_sum(kLen, 0), masked_sum(kLen, 0);
  for (size_t i = 0; i < kN; ++i) {
    std::vector<uint64_t> update(kLen);
    for (auto& v : update) v = rng.Next();
    auto masked = parts[i]->MaskUpdate(7, group, update);
    ASSERT_TRUE(masked.ok());
    // An individual masked update must differ from the plain one.
    EXPECT_NE(*masked, update);
    for (size_t k = 0; k < kLen; ++k) {
      plain_sum[k] += update[k];
      masked_sum[k] += (*masked)[k];
    }
  }
  EXPECT_EQ(masked_sum, plain_sum);
}

TEST(PairwiseMaskingTest, FailedMaskLeavesOutputUntouched) {
  // The roster is checked before `out` is written, so a failed call never
  // leaves the owner's unmasked update in the caller's buffer.
  crypto::DiffieHellman dh;
  Xoshiro256 rng(12);
  SecureAggParticipant a(0, dh, &rng);
  SecureAggParticipant b(1, dh, &rng);
  ASSERT_TRUE(a.RegisterPeer(1, b.public_key()).ok());
  const std::vector<uint64_t> update(4, 1);
  const std::vector<uint64_t> sentinel(4, 0xA5A5A5A5A5A5A5A5ULL);
  std::vector<uint64_t> out = sentinel;
  MaskScratch scratch;
  // Owner 2 never registered its key with owner 0.
  Status status = a.MaskUpdateInto(0, {0, 1, 2}, update, &scratch, &out);
  EXPECT_TRUE(status.IsFailedPrecondition()) << status.ToString();
  EXPECT_EQ(out, sentinel);
}

TEST(PairwiseMaskingTest, SubgroupMasksCancelOnlyWithinThatGroup) {
  crypto::DiffieHellman dh;
  Xoshiro256 rng(5);
  std::vector<std::unique_ptr<SecureAggParticipant>> parts;
  for (size_t i = 0; i < 4; ++i) {
    parts.push_back(std::make_unique<SecureAggParticipant>(
        static_cast<OwnerId>(i), dh, &rng, false));
  }
  for (auto& p : parts) {
    for (auto& q : parts) {
      if (p->id() != q->id()) {
        ASSERT_TRUE(p->RegisterPeer(q->id(), q->public_key()).ok());
      }
    }
  }
  // Groups {0,1} and {2,3}: each pair cancels independently.
  std::vector<uint64_t> u(8, 100);
  auto m0 = parts[0]->MaskUpdate(1, {0, 1}, u);
  auto m1 = parts[1]->MaskUpdate(1, {0, 1}, u);
  ASSERT_TRUE(m0.ok());
  ASSERT_TRUE(m1.ok());
  for (size_t k = 0; k < 8; ++k) {
    EXPECT_EQ((*m0)[k] + (*m1)[k], 200u);
  }
}

/// Five key-registered participants without self masks, and the
/// aggregator over their public-key roster.
struct Roster {
  std::vector<std::unique_ptr<SecureAggParticipant>> parts;
  std::unique_ptr<SecureAggregator> aggregator;

  explicit Roster(uint64_t seed) {
    crypto::DiffieHellman dh;
    Xoshiro256 rng(seed);
    std::map<OwnerId, crypto::UInt256> public_keys;
    for (OwnerId i = 0; i < 5; ++i) {
      parts.push_back(std::make_unique<SecureAggParticipant>(
          i, dh, &rng, /*use_self_mask=*/false));
      public_keys[i] = parts.back()->public_key();
    }
    for (auto& p : parts) {
      for (const auto& [peer, pub] : public_keys) {
        if (peer == p->id()) continue;
        EXPECT_TRUE(p->RegisterPeer(peer, pub).ok());
      }
    }
    aggregator = std::make_unique<SecureAggregator>(dh.params(),
                                                    std::move(public_keys));
  }
};

TEST(AggregatorTest, UnmaskOwnerInvertsMaskUpdate) {
  Roster roster(41);
  Xoshiro256 rng(42);
  // Listed out of id order: the sign of each pair mask follows the ids,
  // not the roster position.
  const std::vector<OwnerId> group = {3, 1, 4};
  // The lowest, a middle and the highest id of the group: each adds some
  // pair masks, subtracts others, or both.
  for (OwnerId owner : {1u, 3u, 4u}) {
    std::vector<uint64_t> encoded(37);
    for (auto& v : encoded) v = rng.Next();
    auto masked = roster.parts[owner]->MaskUpdate(9, group, encoded);
    ASSERT_TRUE(masked.ok());
    ASSERT_NE(*masked, encoded);
    auto unmasked = roster.aggregator->UnmaskOwner(
        9, owner, roster.parts[owner]->private_key(), group, *masked);
    ASSERT_TRUE(unmasked.ok()) << unmasked.status().ToString();
    EXPECT_EQ(*unmasked, encoded) << "owner " << owner;
  }
  // An owner outside the group has no masks in it to strip.
  EXPECT_TRUE(roster.aggregator
                  ->UnmaskOwner(9, 0, roster.parts[0]->private_key(), group,
                                std::vector<uint64_t>(37, 0))
                  .status()
                  .IsInvalidArgument());
}

TEST(AggregatorTest, VerifyRevealedKeyMatchesTheRoster) {
  Roster roster(43);
  EXPECT_TRUE(roster.aggregator
                  ->VerifyRevealedKey(2, roster.parts[2]->private_key())
                  .ok());
  EXPECT_TRUE(roster.aggregator
                  ->VerifyRevealedKey(2, roster.parts[3]->private_key())
                  .IsPermissionDenied());
  EXPECT_TRUE(roster.aggregator
                  ->VerifyRevealedKey(5, roster.parts[2]->private_key())
                  .IsNotFound());
}

TEST(SessionTest, AggregateEqualsPlainMean) {
  auto session = SecureAggSession::Create(6, {});
  ASSERT_TRUE(session.ok());
  Xoshiro256 rng(6);
  std::vector<std::vector<double>> updates;
  for (int i = 0; i < 6; ++i) updates.push_back(RandomUpdate(32, &rng));

  std::vector<OwnerId> group = {0, 1, 2, 3, 4, 5};
  std::map<OwnerId, std::vector<uint64_t>> submissions;
  for (OwnerId id : group) {
    auto masked = session->Submit(id, 0, group, updates[id]);
    ASSERT_TRUE(masked.ok());
    submissions[id] = *masked;
  }
  auto mean = session->AggregateGroupMean(0, group, submissions);
  ASSERT_TRUE(mean.ok());
  auto expected = PlainMean(updates, group);
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR((*mean)[i], expected[i], 1e-5);
  }
}

TEST(SessionTest, PerGroupAggregationMatchesGroupMeans) {
  auto session = SecureAggSession::Create(6, {});
  ASSERT_TRUE(session.ok());
  Xoshiro256 rng(7);
  std::vector<std::vector<double>> updates;
  for (int i = 0; i < 6; ++i) updates.push_back(RandomUpdate(16, &rng));

  std::vector<std::vector<OwnerId>> groups = {{0, 2, 4}, {1, 3, 5}};
  for (const auto& group : groups) {
    std::map<OwnerId, std::vector<uint64_t>> submissions;
    for (OwnerId id : group) {
      auto masked = session->Submit(id, 2, group, updates[id]);
      ASSERT_TRUE(masked.ok());
      submissions[id] = *masked;
    }
    auto mean = session->AggregateGroupMean(2, group, submissions);
    ASSERT_TRUE(mean.ok());
    auto expected = PlainMean(updates, group);
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_NEAR((*mean)[i], expected[i], 1e-5);
    }
  }
}

TEST(SessionTest, DropoutRecoveryRecoversGroupMean) {
  SessionConfig config;
  config.use_self_masks = true;
  auto session = SecureAggSession::Create(5, config);
  ASSERT_TRUE(session.ok());
  Xoshiro256 rng(8);
  std::vector<std::vector<double>> updates;
  for (int i = 0; i < 5; ++i) updates.push_back(RandomUpdate(16, &rng));

  // Owner 3 masks but never submits (drops after masking others' view).
  std::vector<OwnerId> group = {0, 1, 2, 3, 4};
  std::map<OwnerId, std::vector<uint64_t>> submissions;
  for (OwnerId id : group) {
    if (id == 3) continue;
    auto masked = session->Submit(id, 1, group, updates[id]);
    ASSERT_TRUE(masked.ok());
    submissions[id] = *masked;
  }
  auto mean = session->AggregateGroupMean(1, group, submissions, {3});
  ASSERT_TRUE(mean.ok());
  auto expected = PlainMean(updates, {0, 1, 2, 4});
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR((*mean)[i], expected[i], 1e-5);
  }
}

TEST(SessionTest, RecoveryFailsClosedDespiteEarlierCachedReveal) {
  // A reveal that succeeded with a small dropout set caches the secret;
  // a later reveal whose dropout set leaves fewer than `threshold` live
  // share-holders must still fail closed, not answer from the cache.
  SessionConfig config;
  config.use_self_masks = false;
  auto session = SecureAggSession::Create(5, config);  // threshold = 3
  ASSERT_TRUE(session.ok());
  Xoshiro256 rng(11);
  std::vector<OwnerId> all = {0, 1, 2, 3, 4};
  std::map<OwnerId, std::vector<uint64_t>> submissions;
  for (OwnerId id : all) {
    if (id == 3) continue;
    auto masked = session->Submit(id, 1, all, RandomUpdate(8, &rng));
    ASSERT_TRUE(masked.ok());
    submissions[id] = *masked;
  }
  // Four share-holders survive (>= threshold): owner 3's key is revealed
  // and cached.
  ASSERT_TRUE(session->AggregateGroupMean(1, all, submissions, {3}).ok());

  // Next round only owner 0 is still online — one share-holder is below
  // the threshold, so recovering owner 3 again must fail.
  std::vector<OwnerId> pair = {0, 3};
  std::map<OwnerId, std::vector<uint64_t>> late;
  auto masked = session->Submit(0, 2, pair, RandomUpdate(8, &rng));
  ASSERT_TRUE(masked.ok());
  late[0] = *masked;
  EXPECT_FALSE(session->AggregateGroupMean(2, pair, late, {1, 2, 3, 4}).ok());
}

TEST(SessionTest, MissingRecoveryMaterialFailsLoudly) {
  // Pairwise-only session, dropped member, no recovery material -> the
  // aggregator must error rather than emit a silently corrupt sum.
  SessionConfig config;
  config.use_self_masks = false;
  auto session = SecureAggSession::Create(3, config);
  ASSERT_TRUE(session.ok());
  Xoshiro256 rng(9);
  std::vector<OwnerId> group = {0, 1, 2};
  std::map<OwnerId, std::vector<uint64_t>> submissions;
  for (OwnerId id : {0u, 1u}) {
    auto masked = session->Submit(id, 0, group, RandomUpdate(8, &rng));
    ASSERT_TRUE(masked.ok());
    submissions[id] = *masked;
  }
  // Without declaring the dropout, sums are garbage but the protocol
  // cannot detect it; declaring it without shares is an error. Here the
  // session *has* shares (Create distributes them), so recovery works;
  // verify instead that an unknown dropped id fails.
  auto bad = session->AggregateGroupMean(0, group, submissions, {7});
  EXPECT_FALSE(bad.ok());
}

TEST(SessionTest, SelfMasksRequireUnmaskingInfo) {
  // With self masks on, a raw ring sum (without seed reveal) differs
  // from the plain sum — the property that protects survivors.
  SessionConfig config;
  config.use_self_masks = true;
  auto session = SecureAggSession::Create(3, config);
  ASSERT_TRUE(session.ok());
  Xoshiro256 rng(10);
  std::vector<std::vector<double>> updates;
  for (int i = 0; i < 3; ++i) updates.push_back(RandomUpdate(8, &rng));

  std::vector<OwnerId> group = {0, 1, 2};
  FixedPointCodec codec(config.fixed_point_bits);
  std::vector<uint64_t> masked_sum(8, 0), plain_sum(8, 0);
  for (OwnerId id : group) {
    auto masked = session->Submit(id, 0, group, updates[id]);
    ASSERT_TRUE(masked.ok());
    auto plain = codec.EncodeVector(updates[id]);
    for (size_t k = 0; k < 8; ++k) {
      masked_sum[k] += (*masked)[k];
      plain_sum[k] += plain[k];
    }
  }
  EXPECT_NE(masked_sum, plain_sum);
}

TEST(SessionTest, DropoutAndRecoveryCountersCountUniqueOwners) {
  auto& dropouts =
      obs::MetricsRegistry::Global().GetCounter("secureagg.dropouts");
  auto& recoveries =
      obs::MetricsRegistry::Global().GetCounter("secureagg.recoveries");
  const uint64_t dropouts_before = dropouts.Value();
  const uint64_t recoveries_before = recoveries.Value();

  SessionConfig config;
  config.use_self_masks = true;
  auto session = SecureAggSession::Create(5, config);
  ASSERT_TRUE(session.ok());
  Xoshiro256 rng(12);
  std::vector<std::vector<double>> updates;
  for (int i = 0; i < 5; ++i) updates.push_back(RandomUpdate(16, &rng));

  std::vector<OwnerId> group = {0, 1, 2, 3, 4};
  std::map<OwnerId, std::vector<uint64_t>> submissions;
  for (OwnerId id : group) {
    if (id == 3) continue;
    auto masked = session->Submit(id, 1, group, updates[id]);
    ASSERT_TRUE(masked.ok());
    submissions[id] = *masked;
  }
  ASSERT_TRUE(session->AggregateGroupMean(1, group, submissions, {3}).ok());
  EXPECT_EQ(dropouts.Value() - dropouts_before, 1u);
  EXPECT_EQ(recoveries.Value() - recoveries_before, 1u);

  // Double recovery: aggregating the same round again (a retry) reuses
  // the cached reconstruction — same mean, no double-counting.
  auto again = session->AggregateGroupMean(1, group, submissions, {3});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(dropouts.Value() - dropouts_before, 1u);
  EXPECT_EQ(recoveries.Value() - recoveries_before, 1u);
  auto expected = PlainMean(updates, {0, 1, 2, 4});
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR((*again)[i], expected[i], 1e-5);
  }
}

TEST(SessionTest, TwoDropoutsCountTwice) {
  auto& dropouts =
      obs::MetricsRegistry::Global().GetCounter("secureagg.dropouts");
  const uint64_t before = dropouts.Value();
  SessionConfig config;
  config.use_self_masks = true;
  auto session = SecureAggSession::Create(6, config);
  ASSERT_TRUE(session.ok());
  Xoshiro256 rng(13);
  std::vector<OwnerId> group = {0, 1, 2, 3, 4, 5};
  std::map<OwnerId, std::vector<uint64_t>> submissions;
  for (OwnerId id : {0u, 1u, 3u, 5u}) {
    auto masked = session->Submit(id, 0, group, RandomUpdate(8, &rng));
    ASSERT_TRUE(masked.ok());
    submissions[id] = *masked;
  }
  ASSERT_TRUE(
      session->AggregateGroupMean(0, group, submissions, {2, 4}).ok());
  EXPECT_EQ(dropouts.Value() - before, 2u);
}

TEST(SessionTest, CreateRejectsDegenerateConfigs) {
  EXPECT_FALSE(SecureAggSession::Create(1, {}).ok());
  SessionConfig bad;
  bad.threshold = 10;
  EXPECT_FALSE(SecureAggSession::Create(3, bad).ok());
}

class SecureAggPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SecureAggPropertyTest, MeanMatchesPlainAcrossSeedsAndRounds) {
  SessionConfig config;
  config.seed = GetParam();
  auto session = SecureAggSession::Create(4, config);
  ASSERT_TRUE(session.ok());
  Xoshiro256 rng(GetParam() * 31 + 1);
  for (uint64_t round = 0; round < 3; ++round) {
    std::vector<std::vector<double>> updates;
    for (int i = 0; i < 4; ++i) updates.push_back(RandomUpdate(24, &rng));
    std::vector<OwnerId> group = {0, 1, 2, 3};
    std::map<OwnerId, std::vector<uint64_t>> submissions;
    for (OwnerId id : group) {
      auto masked = session->Submit(id, round, group, updates[id]);
      ASSERT_TRUE(masked.ok());
      submissions[id] = *masked;
    }
    auto mean = session->AggregateGroupMean(round, group, submissions);
    ASSERT_TRUE(mean.ok());
    auto expected = PlainMean(updates, group);
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_NEAR((*mean)[i], expected[i], 1e-5);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SecureAggPropertyTest,
                         ::testing::Values(1, 13, 77, 2026));

}  // namespace
}  // namespace bcfl::secureagg
