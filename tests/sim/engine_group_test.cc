/**
 * Unit tests for the conservatively-synchronized EngineGroup: the
 * epoch/window protocol, lookahead-boundary behaviour, the
 * deterministic shard->host completion merge, a tracer shared by the
 * shard engines, and the lookahead guard rails.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/engine.hh"
#include "sim/engine_group.hh"
#include "sim/registry.hh"
#include "sim/trace.hh"

namespace dssd
{
namespace
{

constexpr Tick kLookahead = 1000;

TEST(EngineGroupTest, ConstructionAndAccessors)
{
    Engine host;
    EngineGroup g(host, 4, kLookahead);
    EXPECT_EQ(g.shardCount(), 4u);
    EXPECT_EQ(g.lookahead(), kLookahead);
    EXPECT_EQ(g.epochsRun(), 0u);
    for (unsigned s = 0; s < 4; ++s)
        EXPECT_EQ(g.shardEngine(s).now(), 0u);
}

TEST(EngineGroupTest, MessageRoundTrip)
{
    Engine host;
    EngineGroup g(host, 2, kLookahead);

    Tick shard_saw = 0, host_saw = 0;
    g.postToShard(1, kLookahead, [&g, &shard_saw, &host_saw] {
        shard_saw = g.shardEngine(1).now();
        g.postToHost(1, [&g, &host_saw] { host_saw = g.hostEngine().now(); });
    });
    g.run();

    EXPECT_EQ(shard_saw, kLookahead);
    // The completion is stamped with the shard clock at emission and
    // runs on the host at that same simulated tick.
    EXPECT_EQ(host_saw, kLookahead);
    EXPECT_EQ(g.messagesToShards(), 1u);
    EXPECT_EQ(g.messagesToHost(), 1u);
}

TEST(EngineGroupTest, PostBelowLookaheadPanics)
{
    Engine host;
    EngineGroup g(host, 1, kLookahead);
    EXPECT_DEATH(g.postToShard(0, kLookahead - 1, [] {}),
                 "below the lookahead");
}

TEST(EngineGroupTest, ZeroLookaheadIsFatal)
{
    Engine host;
    EXPECT_DEATH(EngineGroup(host, 1, 0), "positive lookahead");
}

TEST(EngineGroupTest, ZeroShardsIsFatal)
{
    Engine host;
    EXPECT_DEATH(EngineGroup(host, 0, kLookahead),
                 "at least one shard");
}

// An event landing exactly on a window boundary (tick k*L) must run in
// epoch k, never epoch k-1: the epoch over [0, L-1] must not execute
// an event at tick L.
TEST(EngineGroupTest, EventExactlyAtWindowEdge)
{
    Engine host;
    EngineGroup g(host, 1, kLookahead);

    std::vector<std::pair<std::uint64_t, Tick>> runs; // (epoch, when)
    g.shardEngine(0).schedule(kLookahead - 1, [&g, &runs] {
        runs.emplace_back(g.epochsRun(), g.shardEngine(0).now());
    });
    g.shardEngine(0).schedule(kLookahead, [&g, &runs] {
        runs.emplace_back(g.epochsRun(), g.shardEngine(0).now());
    });
    g.run();

    ASSERT_EQ(runs.size(), 2u);
    EXPECT_EQ(runs[0].first, 0u); // epoch 0 covers [0, L-1]
    EXPECT_EQ(runs[0].second, kLookahead - 1);
    EXPECT_EQ(runs[1].first, 1u); // epoch 1 covers [L, 2L-1]
    EXPECT_EQ(runs[1].second, kLookahead);
    EXPECT_EQ(g.epochsRun(), 2u);
}

// runUntil shares Engine::runUntil's contract: an event at exactly
// `until` executes, one tick later does not.
TEST(EngineGroupTest, RunUntilIsInclusive)
{
    Engine host;
    EngineGroup g(host, 1, kLookahead);

    bool at = false, after = false;
    Tick until = 3 * kLookahead + kLookahead / 2;
    g.shardEngine(0).schedule(until, [&at] { at = true; });
    g.shardEngine(0).schedule(until + 1, [&after] { after = true; });
    g.runUntil(until);
    EXPECT_TRUE(at);
    EXPECT_FALSE(after);
    g.run();
    EXPECT_TRUE(after);
}

// Completions from different shards at the same host tick must merge
// in shard-index order, regardless of the order they were posted in.
TEST(EngineGroupTest, TieBreakMergesByShardIndex)
{
    Engine host;
    EngineGroup g(host, 4, kLookahead);

    std::vector<unsigned> order;
    // Post in reverse shard order so arrival order != shard order.
    for (unsigned s = 4; s-- > 0;) {
        g.postToShard(s, kLookahead, [&g, &order, s] {
            g.postToHost(s, [&order, s] { order.push_back(s); });
        });
    }
    g.run();
    ASSERT_EQ(order.size(), 4u);
    for (unsigned s = 0; s < 4; ++s)
        EXPECT_EQ(order[s], s);
}

// Per-shard emission order is preserved through the merge even when
// interleaved with another shard's same-tick completions.
TEST(EngineGroupTest, EmissionOrderPreservedWithinShard)
{
    Engine host;
    EngineGroup g(host, 2, kLookahead);

    std::vector<std::string> order;
    for (unsigned s = 0; s < 2; ++s) {
        g.postToShard(s, kLookahead, [&g, &order, s] {
            for (int i = 0; i < 3; ++i) {
                g.postToHost(s, [&order, s, i] {
                    order.push_back(std::to_string(s) + "." +
                                    std::to_string(i));
                });
            }
        });
    }
    g.run();
    std::vector<std::string> want = {"0.0", "0.1", "0.2",
                                     "1.0", "1.1", "1.2"};
    EXPECT_EQ(order, want);
}

// One tracer attached to the host and to every shard engine (as
// SsdArray does) takes the shard spans and the host counters into one
// file: shards emit in shard order within an epoch, and the file is
// byte-identical run to run.
TEST(EngineGroupTest, AttachedTracerMergesShardSpansDeterministically)
{
    auto traceRun = [] {
        std::string path = "/tmp/dssd_group_trace.json";
        {
            Engine host;
            Tracer tracer(path);
            host.setTracer(&tracer);
            EngineGroup g(host, 4, kLookahead);
            for (unsigned s = 0; s < 4; ++s)
                g.shardEngine(s).setTracer(&tracer);
            // Post in reverse shard order so posting order != shard order.
            for (unsigned s = 4; s-- > 0;) {
                g.postToShard(s, kLookahead + 11 * s, [&g, &tracer, s] {
                    Engine &e = g.shardEngine(s);
                    Tracer *t = e.tracer();
                    EXPECT_EQ(t, &tracer);
                    int pid =
                        t->process("shard" + std::to_string(s));
                    int tid = t->lane(pid, "unit");
                    t->slice(pid, tid, "work", "test", e.now(),
                             e.now() + 10);
                    t->asyncBegin(pid, "op", "round", s, e.now());
                    t->asyncEnd(pid, "op", "round", s, e.now() + 5);
                    g.postToHost(s, [&g, s] {
                        Tracer *ht = g.hostEngine().tracer();
                        int hpid = ht->process("host");
                        ht->counter(hpid, "completions",
                                    g.hostEngine().now(),
                                    static_cast<double>(s));
                    });
                });
            }
            g.run();
            tracer.finish();
        }
        std::ifstream in(path);
        std::ostringstream ss;
        ss << in.rdbuf();
        std::remove(path.c_str());
        return ss.str();
    };

    std::string once = traceRun();
    // All four shard process rows in shard order, the host row, and
    // paired spans.
    std::size_t prev = 0;
    for (unsigned s = 0; s < 4; ++s) {
        std::size_t at = once.find("\"shard" + std::to_string(s) + "\"");
        ASSERT_NE(at, std::string::npos) << "shard" << s;
        EXPECT_GT(at, prev) << "shard" << s;
        prev = at;
    }
    EXPECT_NE(once.find("\"host\""), std::string::npos);
    EXPECT_NE(once.find("\"ph\":\"b\""), std::string::npos);
    EXPECT_NE(once.find("\"ph\":\"e\""), std::string::npos);
    EXPECT_EQ(traceRun(), once);
}

// Epochs are skipped across idle gaps: two bursts separated by a long
// quiet period cost epochs proportional to the bursts, not the gap.
TEST(EngineGroupTest, IdleGapsDoNotBurnEpochs)
{
    Engine host;
    EngineGroup g(host, 2, kLookahead);
    unsigned ran = 0;
    g.shardEngine(0).schedule(10, [&ran] { ++ran; });
    g.shardEngine(1).schedule(1000 * kLookahead + 5, [&ran] { ++ran; });
    g.run();
    EXPECT_EQ(ran, 2u);
    EXPECT_EQ(g.epochsRun(), 2u);
}

TEST(EngineGroupTest, HostOnlyWorkRunsWithoutShardActivity)
{
    Engine host;
    EngineGroup g(host, 2, kLookahead);
    Tick saw = 0;
    host.schedule(kLookahead / 2, [&host, &saw] { saw = host.now(); });
    g.run();
    EXPECT_EQ(saw, kLookahead / 2);
}

TEST(EngineGroupTest, RegisterStatsExportsCounters)
{
    Engine host;
    EngineGroup g(host, 2, kLookahead);
    StatRegistry reg;
    g.registerStats(reg, "grp");
    g.postToShard(0, kLookahead, [&g] { g.postToHost(0, [] {}); });
    g.run();
    EXPECT_DOUBLE_EQ(reg.value("grp.msgs_to_shards"), 1.0);
    EXPECT_DOUBLE_EQ(reg.value("grp.msgs_to_host"), 1.0);
    EXPECT_DOUBLE_EQ(reg.value("grp.lookahead_ticks"),
                     static_cast<double>(kLookahead));
    EXPECT_GT(reg.value("grp.epochs"), 0.0);
}

} // namespace
} // namespace dssd
