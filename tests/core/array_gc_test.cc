/**
 * Unit tests for the array-level GC scheduler (grant policies, token
 * pacing, grant-order determinism across engine-thread counts) and the
 * rotating-parity layer (layout, parity writes, degraded reads, the
 * parity-group audit).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/array.hh"
#include "core/array_gc.hh"
#include "core/gc.hh"
#include "sim/audit.hh"
#include "sim/registry.hh"
#include "sim/rng.hh"

namespace dssd
{
namespace
{

SsdConfig
testConfig(ArchKind arch)
{
    SsdConfig c = makeConfig(arch);
    c.geom.channels = 4;
    c.geom.ways = 2;
    c.geom.diesPerWay = 1;
    c.geom.planesPerDie = 2;
    c.geom.blocksPerPlane = 16;
    c.geom.pagesPerBlock = 8;
    c.writeBuffer.capacityPages = 64;
    return c;
}

TEST(ArrayGcPolicyTest, NamesRoundTrip)
{
    for (ArrayGcPolicy p :
         {ArrayGcPolicy::Uncoordinated, ArrayGcPolicy::Staggered,
          ArrayGcPolicy::TokenBucket, ArrayGcPolicy::GlobalGreedy}) {
        auto parsed = parseArrayGcPolicy(arrayGcPolicyName(p));
        ASSERT_TRUE(parsed.has_value()) << arrayGcPolicyName(p);
        EXPECT_EQ(*parsed, p);
    }
    EXPECT_FALSE(parseArrayGcPolicy("nonsense").has_value());
}

/** Bare scheduler on a bare engine; deliveries recorded in order. */
struct SchedFixture
{
    Engine e;
    std::vector<unsigned> delivered;
    std::vector<Tick> deliveredAt;
    std::unique_ptr<ArrayGcScheduler> s;

    explicit SchedFixture(const ArrayGcParams &p, unsigned shards = 4)
    {
        s = std::make_unique<ArrayGcScheduler>(
            e, p, shards, [this](unsigned shard) {
                delivered.push_back(shard);
                deliveredAt.push_back(e.now());
            });
    }
};

TEST(ArrayGcSchedulerTest, UncoordinatedGrantsEveryRequestAtOnce)
{
    ArrayGcParams p;
    p.policy = ArrayGcPolicy::Uncoordinated;
    SchedFixture f(p);
    for (unsigned s = 0; s < 4; ++s)
        f.s->requestGrant(s, 1);
    EXPECT_EQ(f.delivered, (std::vector<unsigned>{0, 1, 2, 3}));
    EXPECT_EQ(f.s->activeGrants(), 4u);
    EXPECT_EQ(f.s->waits(), 0u);
    for (unsigned s = 0; s < 4; ++s)
        EXPECT_TRUE(f.s->granted(s)) << s;
}

TEST(ArrayGcSchedulerTest, StaggeredRotatesFifoUnderTheCap)
{
    ArrayGcParams p;
    p.policy = ArrayGcPolicy::Staggered;
    p.maxConcurrent = 1;
    SchedFixture f(p);
    for (unsigned s = 0; s < 4; ++s)
        f.s->requestGrant(s, 1);
    EXPECT_EQ(f.delivered, (std::vector<unsigned>{0}));
    EXPECT_EQ(f.s->waits(), 3u);
    EXPECT_TRUE(f.s->granted(0));
    EXPECT_FALSE(f.s->granted(1));

    f.s->releaseGrant(0, 10, 1);
    EXPECT_EQ(f.delivered, (std::vector<unsigned>{0, 1}));
    f.s->releaseGrant(1, 10, 1);
    f.s->releaseGrant(2, 10, 1);
    EXPECT_EQ(f.s->grantLog(), (std::vector<unsigned>{0, 1, 2, 3}));
    EXPECT_EQ(f.s->releases(), 3u);
    EXPECT_EQ(f.s->activeGrants(), 1u);
}

TEST(ArrayGcSchedulerTest, StaggeredHonorsMaxConcurrent)
{
    ArrayGcParams p;
    p.policy = ArrayGcPolicy::Staggered;
    p.maxConcurrent = 2;
    SchedFixture f(p);
    for (unsigned s = 0; s < 4; ++s)
        f.s->requestGrant(s, 1);
    EXPECT_EQ(f.delivered, (std::vector<unsigned>{0, 1}));
    EXPECT_EQ(f.s->activeGrants(), 2u);
    f.s->releaseGrant(1, 0, 0);
    EXPECT_EQ(f.delivered, (std::vector<unsigned>{0, 1, 2}));
}

TEST(ArrayGcSchedulerTest, GreedyPicksTheWorstPressureFirst)
{
    ArrayGcParams p;
    p.policy = ArrayGcPolicy::GlobalGreedy;
    p.maxConcurrent = 1;
    SchedFixture f(p);
    // The first requester is granted immediately (nothing queued to
    // compare against); the rest queue with distinct pressures.
    f.s->requestGrant(0, 1);
    f.s->requestGrant(1, 5);
    f.s->requestGrant(2, 3);
    f.s->requestGrant(3, 5); // ties with shard 1 -> lower index wins
    f.s->releaseGrant(0, 0, 0);
    f.s->releaseGrant(1, 0, 0);
    f.s->releaseGrant(3, 0, 0);
    EXPECT_EQ(f.s->grantLog(), (std::vector<unsigned>{0, 1, 3, 2}));
}

TEST(ArrayGcSchedulerTest, TokenBucketPacesGrantsByEpoch)
{
    ArrayGcParams p;
    p.policy = ArrayGcPolicy::TokenBucket;
    p.tokensPerEpoch = 10;
    p.tokenEpoch = 1000;
    p.tokenCap = 20;
    SchedFixture f(p);
    // The bucket starts with one epoch of credit: the first grant
    // reserves all of it, so the second requester must wait for the
    // next refill.
    f.s->requestGrant(0, 1);
    ASSERT_EQ(f.delivered, (std::vector<unsigned>{0}));
    EXPECT_EQ(f.s->tokens(), 0);
    f.s->requestGrant(1, 1);
    EXPECT_EQ(f.delivered.size(), 1u);
    EXPECT_EQ(f.s->waits(), 1u);
    f.e.run();
    ASSERT_EQ(f.delivered, (std::vector<unsigned>{0, 1}));
    EXPECT_EQ(f.deliveredAt[1], 1000u); // the first epoch boundary
}

TEST(ArrayGcSchedulerTest, TokenBucketDebtDelaysTheNextGrant)
{
    ArrayGcParams p;
    p.policy = ArrayGcPolicy::TokenBucket;
    p.tokensPerEpoch = 10;
    p.tokenEpoch = 1000;
    p.tokenCap = 20;
    SchedFixture f(p);
    f.s->requestGrant(0, 1);
    // An expensive window: 25 copies against a 10-token reservation
    // leaves the bucket 15 in debt.
    f.s->releaseGrant(0, 25, 0);
    EXPECT_EQ(f.s->tokens(), -15);
    EXPECT_EQ(f.s->tokensSpent(), 25u);
    f.s->requestGrant(1, 1);
    EXPECT_EQ(f.delivered.size(), 1u);
    f.e.run();
    ASSERT_EQ(f.delivered.size(), 2u);
    // -15 + 10/epoch: positive only at the second boundary.
    EXPECT_EQ(f.deliveredAt[1], 2000u);
}

TEST(ArrayGcSchedulerDeathTest, DoubleRequestIsRejected)
{
    ArrayGcParams p;
    p.policy = ArrayGcPolicy::Staggered;
    SchedFixture f(p);
    f.s->requestGrant(0, 1);
    EXPECT_DEATH(f.s->requestGrant(0, 1), "requested a grant");
}

//
// SsdArray integration: coordinated GC end to end, in legacy and
// group mode, plus the parity layer.
//

SsdArrayParams
coordParams(unsigned shards, ArrayGcPolicy policy, bool parity,
            unsigned engineThreads = 0)
{
    SsdArrayParams p;
    p.shards = shards;
    p.engineThreads = engineThreads;
    p.gc.policy = policy;
    p.parity = parity;
    return p;
}

TEST(ArrayCoordinationTest, CoordinatedForcedGcRotatesGrants)
{
    Engine e;
    SsdArray arr(e, testConfig(ArchKind::Baseline),
                 coordParams(2, ArrayGcPolicy::Staggered, false));
    arr.prefill(0.8, 0.5);
    ASSERT_NE(arr.gcScheduler(), nullptr);
    bool done = false;
    arr.forceAllGc(1, [&done] { done = true; });
    arr.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(arr.gcScheduler()->grants(), 2u);
    EXPECT_EQ(arr.gcScheduler()->releases(), 2u);
    EXPECT_EQ(arr.gcScheduler()->activeGrants(), 0u);
    // maxConcurrent=1 made the second shard wait for the first.
    EXPECT_EQ(arr.gcScheduler()->waits(), 1u);
    for (unsigned s = 0; s < 2; ++s) {
        EXPECT_GT(arr.shard(s).gc().blocksErased(), 0u) << s;
        EXPECT_FALSE(arr.gcScheduler()->granted(s)) << s;
    }
}

TEST(ArrayCoordinationTest, GroupModeCoordinatedForcedGcCompletes)
{
    Engine e;
    SsdArray arr(e, testConfig(ArchKind::DSSDNoc),
                 coordParams(2, ArrayGcPolicy::Staggered, false, 1));
    arr.prefill(0.8, 0.5);
    bool done = false;
    arr.forceAllGc(1, [&done] { done = true; });
    arr.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(arr.gcScheduler()->grants(), 2u);
    EXPECT_EQ(arr.gcScheduler()->releases(), 2u);
    for (unsigned s = 0; s < 2; ++s)
        EXPECT_GT(arr.shard(s).gc().blocksErased(), 0u) << s;
}

TEST(ArrayCoordinationTest, SchedulerStatsAreRegistered)
{
    Engine e;
    SsdArray arr(e, testConfig(ArchKind::Baseline),
                 coordParams(2, ArrayGcPolicy::TokenBucket, true));
    StatRegistry reg;
    arr.registerStats(reg, "arr");
    for (const char *k :
         {"arr.array.gc.requests", "arr.array.gc.grants",
          "arr.array.gc.waits", "arr.array.gc.releases",
          "arr.array.gc.active", "arr.array.gc.tokens_spent",
          "arr.array.gc.tokens", "arr.array.parity.degraded_reads",
          "arr.array.parity.reconstruction_reads",
          "arr.array.parity.parity_writes",
          "arr.array.parity.stolen_bytes",
          "arr.array.parity.in_flight"}) {
        EXPECT_TRUE(reg.has(k)) << k;
    }
}

/**
 * Seeded closed-loop workload over a coordinated parity array — the
 * same shape as the group determinism stress in array_test.cc, with
 * periodic array-wide forced GC so grants actually rotate. Returns
 * the scheduler's grant log and the full stats JSON.
 */
struct CoordRun
{
    std::string grantLog;
    std::string stats;
};

CoordRun
coordStressRun(unsigned engineThreads, std::uint64_t seed)
{
    Engine e;
    SsdConfig cfg = testConfig(ArchKind::DSSDNoc);
    cfg.seed = seed;
    SsdArray arr(e, cfg,
                 coordParams(4, ArrayGcPolicy::Staggered, true,
                             engineThreads));
    arr.prefill(0.7, 0.4);

    struct Loop
    {
        SsdArray &arr;
        Rng rng;
        std::uint64_t page;
        Lpn lpns;
        std::uint64_t issued = 0, completed = 0, limit;
        unsigned inflight = 0;
        bool gcBusy = false;

        void
        fill()
        {
            while (inflight < 12 && issued < limit) {
                ++inflight;
                ++issued;
                IoRequest req;
                req.kind = rng.uniformReal() < 0.5
                               ? IoRequest::Kind::Read
                               : IoRequest::Kind::Write;
                Lpn first = rng.uniformInt(0, lpns - 1);
                req.offset = first * page;
                // Clamp at the device end (out-of-range is fatal).
                req.bytes = page * std::min<std::uint64_t>(
                                       1 + rng.uniformInt(0, 3),
                                       lpns - first);
                arr.submit(req, [this] {
                    --inflight;
                    ++completed;
                    if (completed % 24 == 0 && !gcBusy) {
                        gcBusy = true;
                        arr.forceAllGc(1,
                                       [this] { gcBusy = false; });
                    }
                    fill();
                });
            }
        }
    };
    Loop loop{arr, Rng(seed + 17), cfg.geom.pageBytes,
              arr.lpnCount(), /*issued=*/0, /*completed=*/0,
              /*limit=*/240};
    loop.fill();
    arr.run();

    CoordRun out;
    for (unsigned s : arr.gcScheduler()->grantLog())
        out.grantLog += std::to_string(s) + ",";
    StatRegistry reg;
    arr.registerStats(reg, "arr");
    out.stats = reg.json();
    out.stats += "\ncompleted=" + std::to_string(loop.completed);
    return out;
}

// Grant decisions live on the host engine, so the grant ORDER must be
// identical in legacy shared-engine mode (0) and in group mode (1);
// the full stats additionally match run to run (legacy mode is a
// different timing model, as for fig18).
TEST(ArrayCoordinationTest, GrantOrderIdenticalAcrossEngineModes)
{
    CoordRun legacy = coordStressRun(0, 4242);
    CoordRun group = coordStressRun(1, 4242);
    CoordRun again = coordStressRun(1, 4242);
    // The workload really rotated grants over the shards.
    EXPECT_GE(group.grantLog.size(), 8u);
    EXPECT_EQ(legacy.grantLog, group.grantLog);
    EXPECT_EQ(again.grantLog, group.grantLog);
    EXPECT_EQ(again.stats, group.stats);
}

TEST(ArrayCoordinationTest, StressRespondsToTheSeed)
{
    EXPECT_NE(coordStressRun(1, 4242).stats,
              coordStressRun(1, 2424).stats);
}

//
// Parity layout and the degraded-read path.
//

TEST(ArrayParityTest, LayoutRotatesParityAndShrinksTheLpnSpace)
{
    Engine e;
    SsdArray arr(e, testConfig(ArchKind::Baseline),
                 coordParams(4, ArrayGcPolicy::Uncoordinated, true));
    ASSERT_TRUE(arr.parityEnabled());
    // N-1 data shards per stripe: the host space drops accordingly.
    EXPECT_EQ(arr.lpnCount(),
              3 * arr.shard(0).mapping().lpnCount());
    for (Lpn lpn = 0; lpn < arr.lpnCount(); ++lpn) {
        Lpn stripe = arr.stripeOf(lpn);
        EXPECT_EQ(stripe, lpn / 3);
        unsigned data = arr.shardOf(lpn);
        unsigned parity = arr.parityShardOf(stripe);
        EXPECT_LT(data, 4u);
        EXPECT_NE(data, parity) << lpn;
        EXPECT_EQ(arr.localLpn(lpn), stripe);
    }
    // Parity rotates over every shard.
    EXPECT_EQ(arr.parityShardOf(0), 0u);
    EXPECT_EQ(arr.parityShardOf(1), 1u);
    EXPECT_EQ(arr.parityShardOf(5), 1u);
}

TEST(ArrayParityTest, EveryWriteAlsoWritesItsParityPage)
{
    Engine e;
    SsdArray arr(e, testConfig(ArchKind::Baseline),
                 coordParams(4, ArrayGcPolicy::Uncoordinated, true));
    Lpn lpn = 0;
    unsigned data = arr.shardOf(lpn);
    unsigned parity = arr.parityShardOf(arr.stripeOf(lpn));
    bool done = false;
    arr.writePage(lpn, [&done] { done = true; });
    EXPECT_EQ(arr.parityWritesInFlight(), 1u);
    arr.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(arr.parityWrites(), 1u);
    EXPECT_EQ(arr.parityWritesInFlight(), 0u);
    EXPECT_EQ(arr.shard(data).hostWrites(), 1u);
    EXPECT_EQ(arr.shard(parity).hostWrites(), 1u);
}

TEST(ArrayParityTest, ReadsDegradeWhileTheirShardHoldsAGrant)
{
    Engine e;
    SsdArray arr(e, testConfig(ArchKind::Baseline),
                 coordParams(4, ArrayGcPolicy::Staggered, true));
    arr.prefill(0.8, 0.5);
    arr.forceAllGc(1, [] {});
    // Step until the scheduler has handed out the first grant.
    while (arr.gcScheduler()->activeGrants() == 0 && e.step()) {
    }
    ASSERT_EQ(arr.gcScheduler()->activeGrants(), 1u);
    unsigned busy = 0;
    while (!arr.gcScheduler()->granted(busy))
        ++busy;

    // A read whose data shard is collecting reconstructs from the
    // N-1 peers; a read to an idle shard stays direct.
    Lpn degraded_lpn = 0;
    while (arr.shardOf(degraded_lpn) != busy)
        ++degraded_lpn;
    Lpn direct_lpn = 0;
    while (arr.shardOf(direct_lpn) == busy)
        ++direct_lpn;

    unsigned done = 0;
    arr.readPage(degraded_lpn, [&done] { ++done; });
    EXPECT_EQ(arr.degradedReads(), 1u);
    EXPECT_EQ(arr.reconstructionReads(), 3u);
    arr.readPage(direct_lpn, [&done] { ++done; });
    EXPECT_EQ(arr.degradedReads(), 1u);
    EXPECT_EQ(arr.reconstructionReads(), 3u);
    arr.run();
    EXPECT_EQ(done, 2u);
    EXPECT_EQ(arr.ioOutstanding(), 0u);
}

TEST(ArrayParityTest, ParityGroupAuditPassesUnderLoad)
{
    Engine e;
    SsdConfig cfg = testConfig(ArchKind::Baseline);
    SsdArray arr(e, cfg,
                 coordParams(4, ArrayGcPolicy::Staggered, true));
    arr.prefill(0.7, 0.4);
    Auditor auditor(AuditMode::Report);
    arr.registerAudits(auditor);
    EXPECT_GE(auditor.checkCount(), 1u);

    Rng rng(11);
    unsigned done = 0;
    for (int i = 0; i < 64; ++i) {
        Lpn lpn = rng.uniformInt(0, arr.lpnCount() - 1);
        if (i % 3 == 0)
            arr.readPage(lpn, [&done] { ++done; });
        else
            arr.writePage(lpn, [&done] { ++done; });
    }
    arr.forceAllGc(1, [] {});
    // Parity lags data mid-flight; the audit must hold at event
    // granularity, not just at quiescence.
    auditor.attach(e, 64);
    arr.run();
    auditor.detach();
    auditor.run();
    EXPECT_EQ(done, 64u);
    EXPECT_GT(auditor.runs(), 1u);
    EXPECT_TRUE(auditor.violations().empty());
}

} // namespace
} // namespace dssd
