/** Unit tests for the NVMe host front-end: arbitration policies,
 *  token buckets, tenant specs, SLO accounting, open-loop overload
 *  semantics, and the single closed-loop tenant every bench drives. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/ssd.hh"
#include "hil/nvme_host.hh"
#include "sim/registry.hh"
#include "workload/arrival.hh"

namespace dssd
{
namespace
{

//
// Arbiter
//

std::vector<ArbiterQueueState>
allEligible(unsigned n, std::uint64_t bytes = 4 * kKiB)
{
    std::vector<ArbiterQueueState> s(n);
    for (auto &st : s) {
        st.eligible = true;
        st.headBytes = bytes;
    }
    return s;
}

TEST(ArbiterTest, RoundRobinRotates)
{
    Arbiter a(ArbiterPolicy::RoundRobin);
    for (int i = 0; i < 3; ++i)
        a.addQueue();
    auto s = allEligible(3);
    // The cursor parks on the last pick; scans start one past it.
    EXPECT_EQ(a.pick(s), 1);
    EXPECT_EQ(a.pick(s), 2);
    EXPECT_EQ(a.pick(s), 0);
    EXPECT_EQ(a.pick(s), 1);
}

TEST(ArbiterTest, RoundRobinSkipsIneligibleQueues)
{
    Arbiter a(ArbiterPolicy::RoundRobin);
    for (int i = 0; i < 3; ++i)
        a.addQueue();
    auto s = allEligible(3);
    s[1].eligible = false;
    EXPECT_EQ(a.pick(s), 2);
    EXPECT_EQ(a.pick(s), 0);
    EXPECT_EQ(a.pick(s), 2);
    EXPECT_EQ(a.pick(s), 0);
}

TEST(ArbiterTest, NoEligibleQueueReturnsMinusOne)
{
    Arbiter a(ArbiterPolicy::RoundRobin);
    a.addQueue();
    a.addQueue();
    std::vector<ArbiterQueueState> s(2); // both ineligible
    EXPECT_EQ(a.pick(s), -1);
    Arbiter w(ArbiterPolicy::WeightedRoundRobin);
    w.addQueue(4);
    EXPECT_EQ(w.pick({ArbiterQueueState{}}), -1);
    Arbiter p(ArbiterPolicy::StrictPriority);
    p.addQueue(1, 7);
    EXPECT_EQ(p.pick({ArbiterQueueState{}}), -1);
}

TEST(ArbiterTest, WeightedSharesFollowWeights)
{
    // Equal request sizes, weights 3:1 -> pick counts converge 3:1.
    Arbiter a(ArbiterPolicy::WeightedRoundRobin, 4 * kKiB);
    a.addQueue(3);
    a.addQueue(1);
    auto s = allEligible(2, 4 * kKiB);
    unsigned picks[2] = {0, 0};
    for (int i = 0; i < 400; ++i)
        ++picks[a.pick(s)];
    EXPECT_EQ(picks[0], 300u);
    EXPECT_EQ(picks[1], 100u);
}

TEST(ArbiterTest, WeightedIsByteFairForMixedSizes)
{
    // Equal weights, 16 KiB heads vs 4 KiB heads: DRR equalizes the
    // byte shares, so the small-request queue is picked ~4x as often.
    Arbiter a(ArbiterPolicy::WeightedRoundRobin, 4 * kKiB);
    a.addQueue(1);
    a.addQueue(1);
    std::vector<ArbiterQueueState> s(2);
    s[0].eligible = true;
    s[0].headBytes = 16 * kKiB;
    s[1].eligible = true;
    s[1].headBytes = 4 * kKiB;
    std::uint64_t bytes[2] = {0, 0};
    for (int i = 0; i < 500; ++i) {
        int q = a.pick(s);
        ASSERT_GE(q, 0);
        bytes[q] += s[q].headBytes;
    }
    double ratio = static_cast<double>(bytes[0]) /
                   static_cast<double>(bytes[1]);
    EXPECT_NEAR(ratio, 1.0, 0.05);
}

TEST(ArbiterTest, WeightedServesHeadsLargerThanQuantum)
{
    // A head bigger than quantum * weight needs several recharge
    // rounds but must still be served, not starved.
    Arbiter a(ArbiterPolicy::WeightedRoundRobin, 4 * kKiB);
    a.addQueue(1);
    auto s = allEligible(1, 64 * kKiB);
    EXPECT_EQ(a.pick(s), 0);
    EXPECT_EQ(a.pick(s), 0);
}

TEST(ArbiterTest, IneligibleQueueForfeitsDeficit)
{
    // Queue 0 banks deficit, goes idle (ineligible), then returns: its
    // stale deficit must not buy it a burst ahead of queue 1.
    Arbiter a(ArbiterPolicy::WeightedRoundRobin, 4 * kKiB);
    a.addQueue(4);
    a.addQueue(4);
    auto s = allEligible(2, 4 * kKiB);
    EXPECT_EQ(a.pick(s), 0); // recharges 16 KiB, serves 4 KiB
    s[0].eligible = false;   // goes idle with 12 KiB banked
    EXPECT_EQ(a.pick(s), 1);
    s[0].eligible = true;
    // Back with a fresh deficit: queue 1 keeps its turn until its own
    // recharge drains; no 3-pick burst for queue 0 from the old bank.
    unsigned first_q0_run = 0;
    int q;
    while ((q = a.pick(s)) == 1)
        ;
    while (q == 0) {
        ++first_q0_run;
        q = a.pick(s);
    }
    EXPECT_LE(first_q0_run, 4u); // one recharge's worth, not 7
}

TEST(ArbiterTest, PriorityPrefersHigherLevel)
{
    Arbiter a(ArbiterPolicy::StrictPriority);
    a.addQueue(1, 0);
    a.addQueue(1, 2);
    a.addQueue(1, 1);
    auto s = allEligible(3);
    EXPECT_EQ(a.pick(s), 1);
    EXPECT_EQ(a.pick(s), 1);
    s[1].eligible = false;
    EXPECT_EQ(a.pick(s), 2);
    s[2].eligible = false;
    EXPECT_EQ(a.pick(s), 0);
}

TEST(ArbiterTest, PriorityTiesRotateRoundRobin)
{
    Arbiter a(ArbiterPolicy::StrictPriority);
    a.addQueue(1, 1);
    a.addQueue(1, 1);
    a.addQueue(1, 0);
    auto s = allEligible(3);
    EXPECT_EQ(a.pick(s), 1);
    EXPECT_EQ(a.pick(s), 0);
    EXPECT_EQ(a.pick(s), 1);
    EXPECT_EQ(a.pick(s), 0);
}

TEST(ArbiterDeathTest, InvalidConfigIsFatal)
{
    EXPECT_DEATH(Arbiter(ArbiterPolicy::WeightedRoundRobin, 0),
                 "quantum");
    Arbiter a(ArbiterPolicy::RoundRobin);
    EXPECT_DEATH(a.addQueue(0), "weight");
    a.addQueue();
    std::vector<ArbiterQueueState> wrong(3);
    EXPECT_DEATH((void)a.pick(wrong), "states");
}

TEST(ArbiterTest, PolicyNamesRoundTrip)
{
    EXPECT_STREQ(arbiterPolicyName(ArbiterPolicy::RoundRobin), "rr");
    EXPECT_STREQ(arbiterPolicyName(ArbiterPolicy::WeightedRoundRobin),
                 "wrr");
    EXPECT_STREQ(arbiterPolicyName(ArbiterPolicy::StrictPriority),
                 "prio");
    EXPECT_EQ(parseArbiterPolicy("rr"), ArbiterPolicy::RoundRobin);
    EXPECT_EQ(parseArbiterPolicy("weighted"),
              ArbiterPolicy::WeightedRoundRobin);
    EXPECT_EQ(parseArbiterPolicy("priority"),
              ArbiterPolicy::StrictPriority);
    EXPECT_FALSE(parseArbiterPolicy("fifo").has_value());
}

//
// TokenBucket
//

TEST(TokenBucketTest, UnlimitedAlwaysAdmits)
{
    TokenBucket b(0.0, 0);
    EXPECT_FALSE(b.limited());
    EXPECT_TRUE(b.admits(0, 1 << 30));
    b.consume(1 << 30);
    EXPECT_TRUE(b.admits(1, 1 << 30));
}

TEST(TokenBucketTest, StartsFullAndRefillsAtRate)
{
    // 1e9 B/s = 1 byte per tick (tick = 1 ns); burst 1000 bytes.
    TokenBucket b(1e9, 1000);
    EXPECT_TRUE(b.limited());
    EXPECT_DOUBLE_EQ(b.burst(), 1000.0);
    EXPECT_TRUE(b.admits(0, 1000)); // starts full
    b.consume(1000);
    EXPECT_FALSE(b.admits(0, 1));
    EXPECT_EQ(b.nextAdmitTime(0, 500), 500u);
    EXPECT_FALSE(b.admits(499, 500));
    EXPECT_TRUE(b.admits(500, 500));
}

TEST(TokenBucketTest, RefillCapsAtBurst)
{
    TokenBucket b(1e9, 1000);
    b.consume(1000);
    b.refill(1 * tickSec); // a full second >> burst refill time
    EXPECT_DOUBLE_EQ(b.tokens(), 1000.0);
}

TEST(TokenBucketTest, DefaultBurstIsTenMillisecondsOfRate)
{
    TokenBucket b(1e6, 0);
    EXPECT_DOUBLE_EQ(b.burst(), 1e4);
}

TEST(TokenBucketTest, NextAdmitTimeIsImmediateWhenFunded)
{
    TokenBucket b(1e9, 1000);
    EXPECT_EQ(b.nextAdmitTime(42, 100), 42u);
}

//
// parseTenantSpec
//

TEST(TenantSpecTest, PlainCountGivesDefaults)
{
    auto t = parseTenantSpec("4");
    ASSERT_TRUE(t.has_value());
    ASSERT_EQ(t->size(), 4u);
    for (const TenantParams &p : *t) {
        EXPECT_EQ(p.queueDepth, 64u);
        EXPECT_EQ(p.weight, 1u);
        EXPECT_EQ(p.priority, 0u);
        EXPECT_DOUBLE_EQ(p.rateBytesPerSec, 0.0);
        EXPECT_DOUBLE_EQ(p.sloTargetUs, 0.0);
    }
}

TEST(TenantSpecTest, FullSpecParses)
{
    auto t = parseTenantSpec(
        "qd:8,w:4,prio:2,rate:200m,burst:1m,slo:500,name:db;qd:16");
    ASSERT_TRUE(t.has_value());
    ASSERT_EQ(t->size(), 2u);
    EXPECT_EQ((*t)[0].queueDepth, 8u);
    EXPECT_EQ((*t)[0].weight, 4u);
    EXPECT_EQ((*t)[0].priority, 2u);
    EXPECT_DOUBLE_EQ((*t)[0].rateBytesPerSec, 200e6);
    EXPECT_EQ((*t)[0].burstBytes, 1000000u);
    EXPECT_DOUBLE_EQ((*t)[0].sloTargetUs, 500.0);
    EXPECT_EQ((*t)[0].name, "db");
    EXPECT_EQ((*t)[1].queueDepth, 16u);
    EXPECT_EQ((*t)[1].weight, 1u);
}

TEST(TenantSpecTest, MalformedSpecsRejected)
{
    EXPECT_FALSE(parseTenantSpec("").has_value());
    EXPECT_FALSE(parseTenantSpec("0").has_value());
    EXPECT_FALSE(parseTenantSpec("5000").has_value()); // count cap
    EXPECT_FALSE(parseTenantSpec("qd:0").has_value());
    EXPECT_FALSE(parseTenantSpec("w:0").has_value());
    EXPECT_FALSE(parseTenantSpec("qd:8,bogus:1").has_value());
    EXPECT_FALSE(parseTenantSpec("qd").has_value());
    EXPECT_FALSE(parseTenantSpec("qd:8;").has_value());
    EXPECT_FALSE(parseTenantSpec("rate:-5").has_value());
    EXPECT_FALSE(parseTenantSpec("name:").has_value());
}

//
// TenantStats / SLO accounting
//

TEST(TenantStatsTest, SloComplianceCountsViolations)
{
    TenantParams p;
    p.sloTargetUs = 10.0;
    TenantStats s(p, tickMs);
    IoRequest r;
    r.bytes = 4 * kKiB;
    s.recordCompletion(r, 1, 5 * tickUs);
    s.recordCompletion(r, 2, 15 * tickUs);
    s.recordCompletion(r, 3, 10 * tickUs); // exactly on target: meets
    s.recordCompletion(r, 4, 40 * tickUs);
    EXPECT_EQ(s.completed(), 4u);
    EXPECT_EQ(s.sloViolations(), 2u);
    EXPECT_DOUBLE_EQ(s.sloCompliance(), 0.5);
}

TEST(TenantStatsTest, NoSloIsAlwaysCompliant)
{
    TenantParams p; // sloTargetUs = 0
    TenantStats s(p, tickMs);
    EXPECT_DOUBLE_EQ(s.sloCompliance(), 1.0); // even with no samples
    IoRequest r;
    r.bytes = 4 * kKiB;
    s.recordCompletion(r, 1, 1 * tickSec);
    EXPECT_EQ(s.sloViolations(), 0u);
    EXPECT_DOUBLE_EQ(s.sloCompliance(), 1.0);
}

//
// NvmeHost
//

/** A fake SSD that completes each request after a fixed delay. */
struct FakeSsd
{
    Engine &engine;
    Tick serviceTime;
    unsigned inFlight = 0;
    unsigned maxInFlight = 0;

    void
    submit(const IoRequest &, Engine::Callback done)
    {
        ++inFlight;
        maxInFlight = std::max(maxInFlight, inFlight);
        engine.schedule(serviceTime, [this, done = std::move(done)] {
            --inFlight;
            done();
        });
    }
};

/** Replays a fixed request list (timestamps matter). */
struct ListGen : Generator
{
    std::vector<IoRequest> reqs;
    std::size_t n = 0;
    std::string nm = "list";
    std::optional<IoRequest> next() override
    {
        if (n >= reqs.size())
            return std::nullopt;
        return reqs[n++];
    }
    const std::string &name() const override { return nm; }
};

/** A host with one closed-loop tenant of depth @p qd on @p gen. */
std::unique_ptr<NvmeHost>
oneTenantHost(Engine &e, NvmeHost::SubmitFn submit, Generator &gen,
              unsigned qd)
{
    auto host =
        std::make_unique<NvmeHost>(e, std::move(submit), NvmeHostParams{});
    TenantParams tp;
    tp.queueDepth = qd;
    host->addTenant(tp, gen);
    return host;
}

NvmeHost::SubmitFn
submitTo(FakeSsd &ssd)
{
    return [&ssd](const IoRequest &r, Engine::Callback cb) {
        ssd.submit(r, std::move(cb));
    };
}

TEST(NvmeHostTest, CompletesAllRequests)
{
    Engine e;
    FakeSsd ssd{e, 100};
    SyntheticParams p;
    p.count = 50;
    SyntheticGenerator gen(p);
    auto host = oneTenantHost(e, submitTo(ssd), gen, 8);
    bool finished = false;
    host->onFinished([&] { finished = true; });
    host->start();
    e.run();
    EXPECT_TRUE(finished);
    EXPECT_TRUE(host->finished());
    EXPECT_EQ(host->completed(), 50u);
    EXPECT_EQ(host->deviceOutstanding(), 0u);
}

TEST(NvmeHostTest, RespectsQueueDepth)
{
    Engine e;
    FakeSsd ssd{e, 1000};
    SyntheticParams p;
    p.count = 100;
    SyntheticGenerator gen(p);
    auto host = oneTenantHost(e, submitTo(ssd), gen, 16);
    host->start();
    e.run();
    EXPECT_EQ(ssd.maxInFlight, 16u);
}

TEST(NvmeHostTest, LatencyStatsMatchServiceTime)
{
    Engine e;
    FakeSsd ssd{e, 500};
    SyntheticParams p;
    p.count = 10;
    p.readRatio = 1.0;
    SyntheticGenerator gen(p);
    auto host = oneTenantHost(e, submitTo(ssd), gen, 1); // no queueing
    host->start();
    e.run();
    EXPECT_EQ(host->readLatency().count(), 10u);
    EXPECT_DOUBLE_EQ(host->readLatency().mean(), 500.0);
    EXPECT_EQ(host->writeLatency().count(), 0u);
}

TEST(NvmeHostTest, BandwidthSeriesAccumulatesBytes)
{
    Engine e;
    FakeSsd ssd{e, 10};
    SyntheticParams p;
    p.count = 8;
    p.requestBytes = 4 * kKiB;
    SyntheticGenerator gen(p);
    auto host = oneTenantHost(e, submitTo(ssd), gen, 4);
    host->start();
    e.run();
    EXPECT_DOUBLE_EQ(host->ioBytes().total(), 8.0 * 4 * kKiB);
}

TEST(NvmeHostTest, TimestampedRequestsWait)
{
    Engine e;
    FakeSsd ssd{e, 1};
    ListGen gen; // a tiny trace with one request at t = 5 ms
    IoRequest r;
    r.issueAt = 5 * tickMs;
    r.bytes = 4096;
    gen.reqs.push_back(r);
    Tick completed_at = 0;
    auto host = oneTenantHost(e, submitTo(ssd), gen, 4);
    host->onFinished([&] { completed_at = e.now(); });
    host->start();
    e.run();
    EXPECT_GE(completed_at, 5 * tickMs);
}

// Regression tests for the replay pump: it used to hold a single
// future-timestamped request and stop pulling, which serialized burst
// arrivals behind one timer and stalled out-of-order timestamps
// behind an earlier-but-later-stamped request.

TEST(NvmeHostTest, BurstArrivalsSubmitConcurrently)
{
    Engine e;
    FakeSsd ssd{e, 1000};
    ListGen gen;
    for (int i = 0; i < 4; ++i) {
        IoRequest r;
        r.issueAt = 5 * tickMs;
        r.bytes = 4096;
        gen.reqs.push_back(r);
    }
    std::vector<Tick> submit_at;
    auto host = oneTenantHost(
        e,
        [&](const IoRequest &r, Engine::Callback cb) {
            submit_at.push_back(e.now());
            ssd.submit(r, std::move(cb));
        },
        gen, 8);
    host->start();
    e.run();
    ASSERT_EQ(submit_at.size(), 4u);
    for (Tick t : submit_at)
        EXPECT_EQ(t, 5 * tickMs); // the whole burst fires together
    EXPECT_EQ(ssd.maxInFlight, 4u);
}

TEST(NvmeHostTest, OutOfOrderTimestampsDoNotStallEarlierOnes)
{
    Engine e;
    FakeSsd ssd{e, 10};
    ListGen gen;
    IoRequest late;
    late.issueAt = 10 * tickMs;
    late.bytes = 4096;
    IoRequest early;
    early.issueAt = 5 * tickMs;
    early.bytes = 4096;
    gen.reqs = {late, early}; // generator order != time order
    std::vector<Tick> submit_at;
    auto host = oneTenantHost(
        e,
        [&](const IoRequest &r, Engine::Callback cb) {
            submit_at.push_back(e.now());
            ssd.submit(r, std::move(cb));
        },
        gen, 4);
    host->start();
    e.run();
    ASSERT_EQ(submit_at.size(), 2u);
    // The t=5ms request must not wait behind the held t=10ms one.
    EXPECT_EQ(submit_at[0], 5 * tickMs);
    EXPECT_EQ(submit_at[1], 10 * tickMs);
    EXPECT_EQ(host->completed(), 2u);
}

TEST(NvmeHostTest, WaitingRequestsHoldQueueSlots)
{
    Engine e;
    FakeSsd ssd{e, 10};
    ListGen gen;
    for (int i = 0; i < 3; ++i) {
        IoRequest r;
        r.issueAt = (5 + i) * tickMs;
        r.bytes = 4096;
        gen.reqs.push_back(r);
    }
    std::vector<Tick> submit_at;
    auto host = oneTenantHost(
        e,
        [&](const IoRequest &r, Engine::Callback cb) {
            submit_at.push_back(e.now());
            ssd.submit(r, std::move(cb));
        },
        gen, 2); // QD 2: the third request waits for a slot
    host->start();
    // Before any timestamp fires, both slots are reserved by waiters:
    // the third request is not even pulled from the trace yet.
    e.runUntil(1 * tickMs);
    EXPECT_EQ(gen.n, 2u);
    EXPECT_EQ(host->tenantQueued(0), 0u);
    EXPECT_EQ(host->deviceOutstanding(), 0u);
    e.run();
    ASSERT_EQ(submit_at.size(), 3u);
    EXPECT_EQ(submit_at[0], 5 * tickMs);
    EXPECT_EQ(submit_at[1], 6 * tickMs);
    EXPECT_EQ(submit_at[2], 7 * tickMs);
    EXPECT_LE(ssd.maxInFlight, 2u);
    EXPECT_EQ(host->completed(), 3u);
}

TEST(NvmeHostTest, StopBeforeFinalCompletionSameTickFinishesOnce)
{
    Engine e;
    FakeSsd ssd{e, 100};
    ListGen gen;
    IoRequest r;
    r.bytes = 4096;
    gen.reqs.push_back(r);
    int finish_count = 0;
    auto host = oneTenantHost(e, submitTo(ssd), gen, 1);
    host->onFinished([&] { ++finish_count; });
    // Scheduled before start(): at t=100 the stop event runs ahead of
    // the completion queued by submit() in the same tick.
    e.scheduleAbs(100, [&host] { host->stop(); });
    host->start();
    e.run();
    EXPECT_EQ(finish_count, 1);
    EXPECT_TRUE(host->finished());
    EXPECT_EQ(host->completed(), 1u);
}

TEST(NvmeHostTest, StopAfterFinalCompletionSameTickFinishesOnce)
{
    Engine e;
    FakeSsd ssd{e, 100};
    ListGen gen;
    IoRequest r;
    r.bytes = 4096;
    gen.reqs.push_back(r);
    int finish_count = 0;
    auto host = oneTenantHost(e, submitTo(ssd), gen, 1);
    host->onFinished([&] { ++finish_count; });
    host->start();
    // Scheduled after start(): the completion fires first at t=100 and
    // finishes the drained run; the stop lands on an already-finished
    // host and must not re-fire the callback.
    e.scheduleAbs(100, [&host] { host->stop(); });
    e.run();
    EXPECT_EQ(finish_count, 1);
    EXPECT_TRUE(host->finished());
    EXPECT_EQ(host->completed(), 1u);
}

TEST(NvmeHostTest, StopHaltsIssuing)
{
    Engine e;
    FakeSsd ssd{e, 100};
    SyntheticParams p;
    p.count = 0; // unbounded
    SyntheticGenerator gen(p);
    auto host = oneTenantHost(e, submitTo(ssd), gen, 4);
    host->start();
    e.runUntil(10 * tickMs);
    host->stop();
    e.run();
    EXPECT_TRUE(host->finished());
    EXPECT_GT(host->completed(), 0u);
}

TEST(NvmeHostTest, CompletesAllRequestsAcrossTenants)
{
    Engine e;
    FakeSsd ssd{e, 100};
    SyntheticParams p;
    p.count = 30;
    SyntheticGenerator g0(p), g1(p);
    NvmeHost host(
        e,
        [&](const IoRequest &r, Engine::Callback cb) {
            ssd.submit(r, std::move(cb));
        },
        NvmeHostParams{});
    TenantParams tp;
    tp.queueDepth = 4;
    host.addTenant(tp, g0);
    host.addTenant(tp, g1);
    bool finished = false;
    host.onFinished([&] { finished = true; });
    host.start();
    e.run();
    EXPECT_TRUE(finished);
    EXPECT_TRUE(host.finished());
    EXPECT_EQ(host.completed(), 60u);
    EXPECT_EQ(host.tenantStats(0).completed(), 30u);
    EXPECT_EQ(host.tenantStats(1).completed(), 30u);
    EXPECT_EQ(host.deviceOutstanding(), 0u);
}

TEST(NvmeHostTest, DeviceDepthGatesAdmission)
{
    Engine e;
    FakeSsd ssd{e, 1000};
    SyntheticParams p;
    p.count = 40;
    SyntheticGenerator g0(p), g1(p);
    NvmeHostParams hp;
    hp.deviceDepth = 3; // below the summed queue depths (16)
    NvmeHost host(
        e,
        [&](const IoRequest &r, Engine::Callback cb) {
            ssd.submit(r, std::move(cb));
        },
        hp);
    TenantParams tp;
    tp.queueDepth = 8;
    host.addTenant(tp, g0);
    host.addTenant(tp, g1);
    host.start();
    e.run();
    EXPECT_EQ(host.completed(), 80u);
    EXPECT_EQ(ssd.maxInFlight, 3u);
}

TEST(NvmeHostTest, RequestsAreStampedWithTenantIndex)
{
    Engine e;
    SyntheticParams p;
    p.count = 5;
    SyntheticGenerator g0(p), g1(p);
    std::vector<std::uint32_t> seen;
    NvmeHost host(
        e,
        [&](const IoRequest &r, Engine::Callback cb) {
            seen.push_back(r.tenant);
            e.schedule(10, std::move(cb));
        },
        NvmeHostParams{});
    TenantParams tp;
    tp.queueDepth = 1;
    host.addTenant(tp, g0);
    host.addTenant(tp, g1);
    host.start();
    e.run();
    ASSERT_EQ(seen.size(), 10u);
    unsigned from[2] = {0, 0};
    for (std::uint32_t t : seen) {
        ASSERT_LT(t, 2u);
        ++from[t];
    }
    EXPECT_EQ(from[0], 5u);
    EXPECT_EQ(from[1], 5u);
}

/** FNV-1a over integer-tick latency samples, in completion order. */
std::uint64_t
sampleHash(const std::vector<double> &samples)
{
    std::uint64_t h = 14695981039346656037ull;
    for (double v : samples)
        h = (h ^ static_cast<std::uint64_t>(v)) * 1099511628211ull;
    return h;
}

/**
 * Expect @p st to hold exactly the samples @p seq: count, sum, min,
 * max, and every whole percentile from p0 to p100 against the sorted
 * samples (nearest rank).
 */
void
expectHoldsExactly(const SampleStat &st, std::vector<double> seq)
{
    ASSERT_EQ(st.count(), seq.size());
    double sum = 0.0;
    for (double v : seq)
        sum += v;
    EXPECT_EQ(st.sum(), sum);
    std::sort(seq.begin(), seq.end());
    EXPECT_EQ(st.min(), seq.front());
    EXPECT_EQ(st.max(), seq.back());
    for (int p = 0; p <= 100; ++p) {
        std::size_t rank = static_cast<std::size_t>(
            std::ceil(p / 100.0 * static_cast<double>(seq.size())));
        rank = std::clamp<std::size_t>(rank, 1, seq.size());
        EXPECT_EQ(st.percentile(p), seq[rank - 1]) << "p" << p;
    }
}

TEST(NvmeHostTest, SingleTenantClosedLoopMatchesQueueDriverExactly)
{
    // The acceptance bar for the front-end: one tenant, round-robin,
    // device depth = queue depth, closed loop, on a real SSD. The
    // expected values are the run of the retired QueueDriver (the
    // single-queue host NvmeHost replaced) on these exact inputs,
    // frozen when it was deleted: end tick, completions, and every
    // latency sample via count, sum and an order-sensitive hash. The
    // submit wrapper records each latency in completion order; closed
    // loop with free device slots, a request enters the device at the
    // tick it entered the queue. The host's stats must hold exactly
    // those latencies.
    SsdConfig c = makeConfig(ArchKind::Baseline);
    c.geom.channels = 4;
    c.geom.ways = 2;
    c.geom.diesPerWay = 1;
    c.geom.planesPerDie = 2;
    c.geom.blocksPerPlane = 16;
    c.geom.pagesPerBlock = 8;
    c.writeBuffer.capacityPages = 64;

    SyntheticParams sp;
    sp.count = 300;
    sp.readRatio = 0.5;
    sp.sequential = false;
    sp.requestBytes = 4 * kKiB;
    sp.footprintBytes = 4 * kMiB;

    Engine e;
    Ssd ssd(e, c);
    ssd.prefill(0.5, 0.0);
    SyntheticGenerator gen(sp);
    std::vector<double> s;
    NvmeHost host(
        e,
        [&](const IoRequest &r, Engine::Callback cb) {
            ssd.submit(r, [&e, &s, at = e.now(), cb = std::move(cb)] {
                s.push_back(static_cast<double>(e.now() - at));
                cb();
            });
        },
        NvmeHostParams{}); // deviceDepth 0 = sum of tenant depths
    TenantParams tp;
    tp.queueDepth = 64;
    host.addTenant(tp, gen);
    host.start();
    e.run();

    EXPECT_EQ(e.now(), 341920u);
    ASSERT_EQ(host.completed(), 300u);
    EXPECT_DOUBLE_EQ(host.ioBytes().total(), 300.0 * 4 * kKiB);
    ASSERT_EQ(s.size(), 300u);
    EXPECT_DOUBLE_EQ(s[0], 1000.0);
    EXPECT_DOUBLE_EQ(s[2], 2024.0);
    EXPECT_DOUBLE_EQ(host.allLatency().sum(), 11103960.0);
    EXPECT_EQ(sampleHash(s), 0x559cd0d50ff72f1dull);
    expectHoldsExactly(host.allLatency(), s);
    EXPECT_EQ(host.readLatency().count(), 150u);
    EXPECT_EQ(host.writeLatency().count(), 150u);
}

TEST(NvmeHostTest, RegisteredLatencyAggregatesReadLiveSamples)
{
    // The host's latency stats and each tenant's all-I/O latency are
    // merges made when the registry is read, so a dump after more
    // completions must count them.
    Engine e;
    FakeSsd ssd{e, 100};
    SyntheticParams p;
    p.count = 40;
    p.readRatio = 0.5;
    SyntheticGenerator g(p);
    auto host = oneTenantHost(e, submitTo(ssd), g, 4);
    StatRegistry reg;
    host->registerStats(reg, "host");
    host->start();
    e.runUntil(450); // four rounds of four completions
    ASSERT_EQ(host->completed(), 16u);
    std::string doc = reg.json();
    EXPECT_NE(doc.find("\"host.latency.all\": {\"count\": 16, "),
              std::string::npos);
    EXPECT_NE(doc.find("\"host.tenant.0.latency.all\": {\"count\": 16, "),
              std::string::npos);
    e.run();
    ASSERT_EQ(host->completed(), 40u);
    doc = reg.json();
    EXPECT_NE(doc.find("\"host.latency.all\": {\"count\": 40, "),
              std::string::npos);
    EXPECT_NE(doc.find("\"host.tenant.0.latency.all\": {\"count\": 40, "),
              std::string::npos);
    EXPECT_DOUBLE_EQ(reg.value("host.latency.read") +
                         reg.value("host.latency.write"),
                     40.0);
    EXPECT_EQ(reg.value("host.latency.read"),
              reg.value("host.tenant.0.latency.read"));
}

TEST(NvmeHostTest, WeightedArbitrationSplitsBandwidthByWeight)
{
    Engine e;
    FakeSsd ssd{e, 100};
    SyntheticParams p; // unbounded
    SyntheticGenerator g0(p), g1(p);
    NvmeHostParams hp;
    hp.policy = ArbiterPolicy::WeightedRoundRobin;
    hp.deviceDepth = 1; // serialize: the arbiter decides every slot
    NvmeHost host(
        e,
        [&](const IoRequest &r, Engine::Callback cb) {
            ssd.submit(r, std::move(cb));
        },
        hp);
    TenantParams heavy;
    heavy.queueDepth = 8;
    heavy.weight = 4;
    TenantParams light;
    light.queueDepth = 8;
    light.weight = 1;
    host.addTenant(heavy, g0);
    host.addTenant(light, g1);
    host.start();
    e.runUntil(200000); // 2000 service slots
    host.stop();
    e.run();
    double ratio =
        static_cast<double>(host.tenantStats(0).completed()) /
        static_cast<double>(host.tenantStats(1).completed());
    EXPECT_NEAR(ratio, 4.0, 0.2);
    EXPECT_TRUE(host.finished());
}

TEST(NvmeHostTest, PriorityStarvesLowerLevelWhileContended)
{
    Engine e;
    FakeSsd ssd{e, 100};
    SyntheticParams p;
    SyntheticGenerator g0(p), g1(p);
    NvmeHostParams hp;
    hp.policy = ArbiterPolicy::StrictPriority;
    hp.deviceDepth = 1;
    NvmeHost host(
        e,
        [&](const IoRequest &r, Engine::Callback cb) {
            ssd.submit(r, std::move(cb));
        },
        hp);
    TenantParams low; // priority 0
    low.queueDepth = 4;
    TenantParams high;
    high.queueDepth = 4;
    high.priority = 1;
    host.addTenant(low, g0);
    host.addTenant(high, g1);
    host.start();
    e.runUntil(50000);
    host.stop();
    e.run();
    // The high-priority tenant always has a backlog, so the low one
    // only ever got the pre-start arbitration pass's slots.
    EXPECT_GT(host.tenantStats(1).completed(), 400u);
    EXPECT_LE(host.tenantStats(0).completed(), 8u);
}

TEST(NvmeHostTest, TokenBucketPacesThroughput)
{
    Engine e;
    FakeSsd ssd{e, 10};
    SyntheticParams p;
    p.count = 10;
    p.requestBytes = 4 * kKiB;
    SyntheticGenerator g(p);
    NvmeHost host(
        e,
        [&](const IoRequest &r, Engine::Callback cb) {
            ssd.submit(r, std::move(cb));
        },
        NvmeHostParams{});
    TenantParams tp;
    tp.queueDepth = 4;
    // One request's bytes per millisecond, burst of exactly one
    // request: completion must pace at 1/ms despite the idle device.
    tp.rateBytesPerSec = 4.0 * kKiB * 1000.0;
    tp.burstBytes = 4 * kKiB;
    host.addTenant(tp, g);
    Tick finished_at = 0;
    host.onFinished([&] { finished_at = e.now(); });
    host.start();
    e.run();
    EXPECT_EQ(host.completed(), 10u);
    // First at t=0 (full bucket), then one per ms: last admits ~9 ms.
    EXPECT_GE(finished_at, 9 * tickMs);
    EXPECT_LT(finished_at, 10 * tickMs);
}

TEST(NvmeHostTest, OpenLoopBacklogIsDroppedAtStop)
{
    Engine e;
    FakeSsd ssd{e, 1000};
    ListGen gen;
    for (int i = 0; i < 100; ++i) {
        IoRequest r;
        r.issueAt = static_cast<Tick>(i) * 10;
        r.bytes = 4 * kKiB;
        gen.reqs.push_back(r);
    }
    NvmeHostParams hp;
    hp.deviceDepth = 1;
    NvmeHost host(
        e,
        [&](const IoRequest &r, Engine::Callback cb) {
            ssd.submit(r, std::move(cb));
        },
        hp);
    TenantParams tp;
    tp.queueDepth = 4; // open loop: depth caps in-flight, not backlog
    host.addTenant(tp, gen, /*open_loop=*/true);
    host.start();
    e.runUntil(500);
    // Arrivals outpace the 1000-tick service time: a real backlog.
    EXPECT_GT(host.tenantQueued(0), 10u);
    host.stop();
    e.run();
    EXPECT_TRUE(host.finished());
    EXPECT_EQ(host.tenantQueued(0), 0u);
    // Only the lone in-flight request completes; the queued backlog
    // and the one scheduled arrival are dropped, not cancelled I/O.
    EXPECT_EQ(host.completed(), 1u);
    EXPECT_EQ(host.tenantStats(0).dropped(), 51u);
}

TEST(NvmeHostTest, StopDoesNotCancelClosedLoopQueued)
{
    Engine e;
    FakeSsd ssd{e, 100};
    SyntheticParams p; // unbounded
    SyntheticGenerator g(p);
    NvmeHostParams hp;
    hp.deviceDepth = 2;
    NvmeHost host(
        e,
        [&](const IoRequest &r, Engine::Callback cb) {
            ssd.submit(r, std::move(cb));
        },
        hp);
    TenantParams tp;
    tp.queueDepth = 8;
    host.addTenant(tp, g);
    host.start();
    e.runUntil(450);
    host.stop();
    std::uint64_t at_stop = host.completed();
    std::size_t queued = host.tenantQueued(0);
    unsigned inflight = host.deviceOutstanding();
    EXPECT_GT(queued, 0u);
    e.run();
    EXPECT_TRUE(host.finished());
    // Everything admitted to the queue still reaches the device.
    EXPECT_EQ(host.completed(), at_stop + queued + inflight);
    EXPECT_EQ(host.tenantStats(0).dropped(), 0u);
}

TEST(NvmeHostTest, OpenLoopLatencyIncludesQueueWait)
{
    // Two same-tick arrivals into a serial device: the second request
    // waits a full service time in the SQ, and that wait must appear
    // in its latency sample. The submit wrapper records each latency
    // from the request's arrival stamp, in completion order, and the
    // host's stats must hold exactly those latencies.
    Engine e;
    FakeSsd ssd{e, 1000};
    ListGen gen;
    for (int i = 0; i < 2; ++i) {
        IoRequest r;
        r.issueAt = 0;
        r.bytes = 4 * kKiB;
        gen.reqs.push_back(r);
    }
    NvmeHostParams hp;
    hp.deviceDepth = 1;
    std::vector<double> s;
    NvmeHost host(
        e,
        [&](const IoRequest &r, Engine::Callback cb) {
            ssd.submit(r, [&e, &s, at = r.issueAt, cb = std::move(cb)] {
                s.push_back(static_cast<double>(e.now() - at));
                cb();
            });
        },
        hp);
    TenantParams tp;
    tp.queueDepth = 4;
    host.addTenant(tp, gen, /*open_loop=*/true);
    host.start();
    e.run();
    ASSERT_EQ(s.size(), 2u);
    EXPECT_DOUBLE_EQ(s[0], 1000.0);
    EXPECT_DOUBLE_EQ(s[1], 2000.0); // 1000 queued + 1000 service
    expectHoldsExactly(host.allLatency(), s);
}

TEST(NvmeHostTest, OpenLoopRunsAreDeterministic)
{
    auto run = [](std::vector<double> &samples) {
        Engine e;
        FakeSsd ssd{e, 700};
        SyntheticParams sp;
        sp.count = 200;
        sp.readRatio = 0.5;
        sp.sequential = false;
        ArrivalParams ap;
        ap.kind = ArrivalKind::Pareto;
        ap.iops = 2e6;
        ap.burstFactor = 4.0;
        OpenLoopGenerator gen(std::make_unique<SyntheticGenerator>(sp),
                              ap, 42);
        NvmeHostParams hp;
        hp.deviceDepth = 2;
        // Each latency from its arrival stamp, in completion order.
        NvmeHost host(
            e,
            [&](const IoRequest &r, Engine::Callback cb) {
                ssd.submit(r, [&e, &samples, at = r.issueAt,
                               cb = std::move(cb)] {
                    samples.push_back(static_cast<double>(e.now() - at));
                    cb();
                });
            },
            hp);
        TenantParams tp;
        tp.queueDepth = 8;
        host.addTenant(tp, gen, /*open_loop=*/true);
        host.start();
        e.run();
        expectHoldsExactly(host.allLatency(), samples);
    };
    std::vector<double> a, b;
    run(a);
    run(b);
    ASSERT_EQ(a.size(), 200u);
    EXPECT_EQ(a, b);
}

TEST(NvmeHostDeathTest, MisconfigurationIsFatal)
{
    Engine e;
    NvmeHost host(
        e, [](const IoRequest &, Engine::Callback cb) { cb(); },
        NvmeHostParams{});
    EXPECT_DEATH(host.start(), "no tenants");
    SyntheticParams p;
    p.count = 1;
    SyntheticGenerator g(p);
    TenantParams bad;
    bad.queueDepth = 0;
    EXPECT_DEATH(host.addTenant(bad, g), "queue depth");
    EXPECT_DEATH((void)host.tenantStats(5), "no tenant");
}

} // namespace
} // namespace dssd
