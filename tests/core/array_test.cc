/**
 * Unit tests for the sharded SsdArray front-end: LPN-to-shard maps,
 * request fan-out, per-shard seeding, array-wide GC forcing, aggregate
 * accounting, and stat registration.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/array.hh"
#include "core/gc.hh"
#include "sim/registry.hh"
#include "sim/rng.hh"
#include "sim/trace.hh"

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

SsdArrayParams
arrayParams(unsigned shards,
            ShardingKind kind = ShardingKind::Modulo)
{
    SsdArrayParams p;
    p.shards = shards;
    p.sharding = kind;
    return p;
}

TEST(SsdArrayTest, ModuloShardingStripesTheLpnSpace)
{
    Engine e;
    SsdArray arr(e, testConfig(ArchKind::Baseline), arrayParams(4));
    EXPECT_EQ(arr.shardCount(), 4u);
    for (Lpn lpn : {Lpn(0), Lpn(1), Lpn(7), Lpn(42)}) {
        EXPECT_EQ(arr.shardOf(lpn), lpn % 4);
        EXPECT_EQ(arr.localLpn(lpn), lpn / 4);
    }
}

TEST(SsdArrayTest, RangeShardingPartitionsTheLpnSpace)
{
    Engine e;
    SsdArray arr(e, testConfig(ArchKind::Baseline),
                 arrayParams(4, ShardingKind::Range));
    Lpn per_shard = arr.lpnCount() / 4;
    ASSERT_GT(per_shard, 0u);
    EXPECT_EQ(arr.shardOf(0), 0u);
    EXPECT_EQ(arr.shardOf(per_shard - 1), 0u);
    EXPECT_EQ(arr.shardOf(per_shard), 1u);
    EXPECT_EQ(arr.localLpn(per_shard + 5), 5u);
    EXPECT_EQ(arr.shardOf(3 * per_shard), 3u);
}

TEST(SsdArrayTest, LpnCountScalesWithShardCount)
{
    Engine e1, e4;
    SsdArray one(e1, testConfig(ArchKind::Baseline), arrayParams(1));
    SsdArray four(e4, testConfig(ArchKind::Baseline), arrayParams(4));
    EXPECT_EQ(one.lpnCount(), one.shard(0).mapping().lpnCount());
    EXPECT_EQ(four.lpnCount(), 4 * one.lpnCount());
}

TEST(SsdArrayTest, ShardSeedsDecorrelate)
{
    Engine e;
    SsdConfig c = testConfig(ArchKind::Baseline);
    c.seed = 17;
    SsdArray arr(e, c, arrayParams(3));
    for (unsigned s = 0; s < 3; ++s)
        EXPECT_EQ(arr.shard(s).config().seed, 17u + s);
}

TEST(SsdArrayTest, WritePageRoutesToTheOwningShard)
{
    Engine e;
    SsdArray arr(e, testConfig(ArchKind::Baseline), arrayParams(2));
    bool done = false;
    arr.writePage(3, [&done] { done = true; }); // 3 % 2 == shard 1
    e.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(arr.shard(0).hostWrites(), 0u);
    EXPECT_EQ(arr.shard(1).hostWrites(), 1u);
    EXPECT_EQ(arr.hostWrites(), 1u);
}

TEST(SsdArrayTest, SubmitFansOutAndCompletesExactlyOnce)
{
    Engine e;
    SsdArray arr(e, testConfig(ArchKind::Baseline), arrayParams(2));
    IoRequest r;
    r.kind = IoRequest::Kind::Write;
    r.offset = 0;
    r.bytes = 32 * kKiB; // 8 pages, striped 4/4 over the two shards
    unsigned completions = 0;
    arr.submit(r, [&completions] { ++completions; });
    e.run();
    EXPECT_EQ(completions, 1u);
    EXPECT_EQ(arr.hostWrites(), 8u);
    EXPECT_EQ(arr.shard(0).hostWrites(), 4u);
    EXPECT_EQ(arr.shard(1).hostWrites(), 4u);
}

TEST(SsdArrayTest, SubmitAcceptsTheLastPageOfTheDevice)
{
    Engine e;
    SsdArray arr(e, testConfig(ArchKind::Baseline), arrayParams(2));
    IoRequest r;
    r.kind = IoRequest::Kind::Write;
    r.offset = (arr.lpnCount() - 1) * arr.config().geom.pageBytes;
    r.bytes = arr.config().geom.pageBytes;
    bool done = false;
    arr.submit(r, [&done] { done = true; });
    e.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(arr.hostWrites(), 1u);
}

TEST(SsdArrayDeathTest, SubmitPastTheEndIsFatal)
{
    Engine e;
    SsdArray arr(e, testConfig(ArchKind::Baseline), arrayParams(2));
    // One page in range, one page past the end: must be rejected
    // loudly instead of silently wrapping around the LPN space.
    IoRequest r;
    r.kind = IoRequest::Kind::Write;
    r.offset = (arr.lpnCount() - 1) * arr.config().geom.pageBytes;
    r.bytes = 2 * arr.config().geom.pageBytes;
    EXPECT_DEATH(arr.submit(r, [] {}), "extends beyond");
}

TEST(SsdArrayDeathTest, SubmitWithOffsetBeyondTheEndIsFatal)
{
    Engine e;
    SsdArray arr(e, testConfig(ArchKind::Baseline), arrayParams(2));
    IoRequest r;
    r.kind = IoRequest::Kind::Read;
    r.offset = arr.lpnCount() * arr.config().geom.pageBytes;
    r.bytes = arr.config().geom.pageBytes;
    EXPECT_DEATH(arr.submit(r, [] {}), "extends beyond");
}

TEST(SsdArrayTest, ReadsAggregateAcrossShards)
{
    Engine e;
    SsdArray arr(e, testConfig(ArchKind::Baseline), arrayParams(2));
    arr.prefill(0.5, 0.0);
    unsigned done = 0;
    for (Lpn lpn = 0; lpn < 6; ++lpn)
        arr.readPage(lpn, [&done] { ++done; });
    e.run();
    EXPECT_EQ(done, 6u);
    EXPECT_EQ(arr.hostReads(), 6u);
    EXPECT_EQ(arr.shard(0).hostReads() + arr.shard(1).hostReads(), 6u);
    EXPECT_EQ(arr.ioOutstanding(), 0u);
}

TEST(SsdArrayTest, ForceAllGcCoversEveryShard)
{
    Engine e;
    SsdArray arr(e, testConfig(ArchKind::Baseline), arrayParams(2));
    arr.prefill(0.8, 0.5);
    bool done = false;
    arr.forceAllGc(1, [&done] { done = true; });
    e.run();
    EXPECT_TRUE(done);
    for (unsigned s = 0; s < 2; ++s)
        EXPECT_GT(arr.shard(s).gc().pagesMoved(), 0u) << "shard " << s;
    EXPECT_EQ(arr.gcPagesMoved(), arr.shard(0).gc().pagesMoved() +
                                      arr.shard(1).gc().pagesMoved());
    EXPECT_LT(arr.gcFirstStart(), maxTick);
    EXPECT_GT(arr.gcLastEnd(), 0u);
}

TEST(SsdArrayTest, RegisterStatsExportsAggregatesAndShards)
{
    Engine e;
    SsdArray arr(e, testConfig(ArchKind::Baseline), arrayParams(2));
    StatRegistry reg;
    arr.registerStats(reg, "arr");
    EXPECT_DOUBLE_EQ(reg.value("arr.shards"), 2.0);
    EXPECT_TRUE(reg.has("arr.host.writes"));
    EXPECT_TRUE(reg.has("arr.shard0.host.writes"));
    EXPECT_TRUE(reg.has("arr.shard1.gc.pages_moved"));

    bool done = false;
    arr.writePage(2, [&done] { done = true; }); // shard 0
    e.run();
    EXPECT_TRUE(done);
    EXPECT_DOUBLE_EQ(reg.value("arr.host.writes"), 1.0);
    EXPECT_DOUBLE_EQ(reg.value("arr.shard0.host.writes"), 1.0);
    EXPECT_DOUBLE_EQ(reg.value("arr.shard1.host.writes"), 0.0);
}

//
// Engine-group mode (params.engineThreads nonzero): per-shard engines
// under the conservative EngineGroup, driven through arr.run().
//

SsdArrayParams
groupParams(unsigned shards)
{
    SsdArrayParams p;
    p.shards = shards;
    p.engineThreads = 1;
    return p;
}

TEST(SsdArrayGroupTest, GroupModeCompletesHostIo)
{
    Engine e;
    SsdArray arr(e, testConfig(ArchKind::Baseline), groupParams(2));
    ASSERT_NE(arr.engineGroup(), nullptr);
    EXPECT_EQ(arr.engineGroup()->shardCount(), 2u);

    unsigned done = 0;
    for (Lpn lpn = 0; lpn < 8; ++lpn)
        arr.writePage(lpn, [&done] { ++done; });
    arr.run();
    EXPECT_EQ(done, 8u);
    EXPECT_EQ(arr.hostWrites(), 8u);
    EXPECT_EQ(arr.shard(0).hostWrites(), 4u);
    EXPECT_EQ(arr.shard(1).hostWrites(), 4u);
    EXPECT_EQ(arr.ioOutstanding(), 0u);
}

TEST(SsdArrayGroupTest, GroupSubmitFansOutAndCompletesOnce)
{
    Engine e;
    SsdArray arr(e, testConfig(ArchKind::Baseline), groupParams(4));
    IoRequest req;
    req.kind = IoRequest::Kind::Write;
    req.offset = 0;
    req.bytes = 16 * arr.config().geom.pageBytes;
    unsigned completions = 0;
    arr.submit(req, [&completions] { ++completions; });
    arr.run();
    EXPECT_EQ(completions, 1u);
    EXPECT_EQ(arr.hostWrites(), 16u);
    for (unsigned s = 0; s < 4; ++s)
        EXPECT_EQ(arr.shard(s).hostWrites(), 4u) << "shard " << s;
}

TEST(SsdArrayGroupTest, GroupForceAllGcCoversEveryShard)
{
    Engine e;
    SsdArray arr(e, testConfig(ArchKind::Baseline), groupParams(2));
    arr.prefill(0.8, 0.5);
    bool done = false;
    arr.forceAllGc(1, [&done] { done = true; });
    arr.run();
    EXPECT_TRUE(done);
    for (unsigned s = 0; s < 2; ++s)
        EXPECT_GT(arr.shard(s).gc().pagesMoved(), 0u) << "shard " << s;
}

TEST(SsdArrayGroupTest, GroupStatsAreRegistered)
{
    Engine e;
    SsdArray arr(e, testConfig(ArchKind::Baseline), groupParams(2));
    StatRegistry reg;
    arr.registerStats(reg, "arr");
    EXPECT_TRUE(reg.has("arr.group.epochs"));
    EXPECT_TRUE(reg.has("arr.group.msgs_to_shards"));
    EXPECT_TRUE(reg.has("arr.group.msgs_to_host"));
    EXPECT_DOUBLE_EQ(
        reg.value("arr.group.lookahead_ticks"),
        static_cast<double>(arr.config().firmwareLatency));
}

/**
 * Seeded closed-loop workload that interleaves host fan-out (mixed
 * read/write submits at a fixed queue depth) with periodic array-wide
 * forced GC, then returns the complete stats JSON. Must be a pure
 * function of (shards, seed).
 */
std::string
stressRun(unsigned shards, std::uint64_t seed)
{
    Engine e;
    SsdConfig cfg = testConfig(ArchKind::DSSDNoc);
    cfg.seed = seed;
    SsdArray arr(e, cfg, groupParams(shards));
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
                req.kind = rng.uniformReal() < 0.3
                               ? IoRequest::Kind::Read
                               : IoRequest::Kind::Write;
                Lpn first = rng.uniformInt(0, lpns - 1);
                req.offset = first * page;
                // Clamp at the device end: out-of-range requests are
                // a fatal host error, not silent wraparound.
                req.bytes = page * std::min<std::uint64_t>(
                                       1 + rng.uniformInt(0, 3),
                                       lpns - first);
                arr.submit(req, [this] {
                    --inflight;
                    ++completed;
                    // Interleave shard-local GC with the host stream:
                    // every 32nd completion kicks every shard's GC.
                    if (completed % 32 == 0 && !gcBusy) {
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
              /*limit=*/400};
    loop.fill();
    arr.run();

    StatRegistry reg;
    arr.registerStats(reg, "arr");
    std::string out = reg.json();
    out += "\ncompleted=" + std::to_string(loop.completed);
    out += "\nnow=" + std::to_string(e.now());
    return out;
}

// The group's determinism bar: the same seeded stress workload must
// produce byte-identical stats run to run.
TEST(SsdArrayGroupTest, StressStatsIdenticalRunToRun)
{
    std::string once = stressRun(4, 12345);
    EXPECT_FALSE(once.empty());
    EXPECT_EQ(stressRun(4, 12345), once);
}

TEST(SsdArrayGroupTest, StressStatsRespondToTheSeed)
{
    // Sanity check that the comparison above is not vacuous.
    EXPECT_NE(stressRun(4, 12345), stressRun(4, 54321));
}

/**
 * Group-mode tracing: a tracer attached to the host engine before
 * construction is handed to every shard engine, and the resulting
 * trace file is byte-identical run to run.
 */
std::string
traceRun(unsigned shards, std::uint64_t seed)
{
    std::string path = "/tmp/dssd_array_group_trace.json";
    {
        Engine e;
        Tracer tracer(path);
        e.setTracer(&tracer);
        SsdConfig cfg = testConfig(ArchKind::DSSDNoc);
        cfg.seed = seed;
        SsdArray arr(e, cfg, groupParams(shards));
        for (unsigned s = 0; s < shards; ++s)
            EXPECT_EQ(arr.engineGroup()->shardEngine(s).tracer(), &tracer);
        arr.prefill(0.5, 0.3);
        Rng rng(seed + 17);
        std::uint64_t page = cfg.geom.pageBytes;
        for (int i = 0; i < 48; ++i) {
            IoRequest req;
            req.kind = i % 3 == 0 ? IoRequest::Kind::Read
                                  : IoRequest::Kind::Write;
            req.offset =
                rng.uniformInt(0, arr.lpnCount() - 1) * page;
            req.bytes = page;
            arr.submit(req, [] {});
        }
        arr.run();
        tracer.finish();
    }
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    std::remove(path.c_str());
    return ss.str();
}

TEST(SsdArrayGroupTest, TraceIsIdenticalRunToRun)
{
    std::string once = traceRun(4, 777);
    EXPECT_FALSE(once.empty());
#if DSSD_TRACING
    // Shard-side emission families reached the file.
    EXPECT_NE(once.find("\"ph\":\"X\""), std::string::npos);
#endif
    EXPECT_EQ(traceRun(4, 777), once);
}

} // namespace
} // namespace dssd
