/** Unit tests for the bench harness: parallel sweep runner + options. */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/harness.hh"

namespace dssd
{
namespace bench
{
namespace
{

/** Small, fast experiment point that still moves I/O and GC. */
ExpParams
tinyParams(std::uint64_t seed)
{
    ExpParams p;
    p.arch = ArchKind::DSSDNoc;
    p.channels = 4;
    p.ways = 2;
    p.planes = 2;
    p.blocksPerPlane = 8;
    p.pagesPerBlock = 8;
    p.window = 2 * tickMs;
    p.seed = seed;
    return p;
}

bool
sameResult(const ExpResult &a, const ExpResult &b)
{
    return a.ioBytesPerSec == b.ioBytesPerSec &&
           a.gcPagesPerSec == b.gcPagesPerSec &&
           a.avgLatencyUs == b.avgLatencyUs &&
           a.p99LatencyUs == b.p99LatencyUs &&
           a.p999LatencyUs == b.p999LatencyUs &&
           a.ioCompleted == b.ioCompleted &&
           a.gcPagesMoved == b.gcPagesMoved &&
           a.hostPageWrites == b.hostPageWrites &&
           a.gcRelocated == b.gcRelocated && a.waf == b.waf &&
           a.ioBwSeries == b.ioBwSeries &&
           a.busIoSeries == b.busIoSeries;
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce)
{
    std::vector<std::atomic<int>> hits(257);
    for (auto &h : hits)
        h = 0;
    parallelFor(hits.size(), 4, [&](std::size_t i) { ++hits[i]; });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, ZeroThreadsMeansHardwareConcurrency)
{
    std::atomic<int> count{0};
    parallelFor(10, 0, [&](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 10);
}

TEST(RunExperimentsTest, SingleAndMultiThreadResultsAreIdentical)
{
    std::vector<ExpParams> ps;
    for (std::uint64_t s = 1; s <= 5; ++s)
        ps.push_back(tinyParams(s));

    std::vector<ExpResult> seq = runExperiments(ps, 1);
    std::vector<ExpResult> par = runExperiments(ps, 4);
    ASSERT_EQ(seq.size(), ps.size());
    ASSERT_EQ(par.size(), ps.size());
    for (std::size_t i = 0; i < ps.size(); ++i) {
        EXPECT_TRUE(sameResult(seq[i], par[i]))
            << "experiment " << i << " diverged across thread counts";
        // ... and both match a direct single run of the same point.
        ExpResult direct = runExperiment(ps[i]);
        EXPECT_TRUE(sameResult(seq[i], direct))
            << "experiment " << i << " diverged from a direct run";
    }
}

TEST(PolicyDeterminismTest, EveryPolicyComboIsStableAcrossEngineThreads)
{
    // For every {victim, alloc, preempt} combination: the same point
    // re-run in the same engine mode is identical (run-to-run
    // determinism), on the shared engine (0) and under the engine
    // group (1). The two modes differ in event timing, so each is
    // only required to agree with itself.
    for (const char *victim : {"greedy", "costbenefit", "windowed"}) {
        for (const char *alloc : {"rr", "conflict"}) {
            for (bool pre : {false, true}) {
                ExpParams p = tinyParams(11);
                p.gcForced = false;
                p.victimPolicy = victim;
                p.allocPolicy = alloc;
                p.gcPreempt = pre;
                std::string tag = std::string(victim) + "/" + alloc +
                                  (pre ? "+pre" : "");

                for (unsigned mode : {0u, 1u}) {
                    p.engineThreads = mode;
                    ExpResult once = runExperiment(p);
                    ExpResult twice = runExperiment(p);
                    EXPECT_TRUE(sameResult(once, twice))
                        << tag << " not deterministic at "
                        << "--engine-threads=" << mode;
                }
            }
        }
    }
}

TEST(PolicyDeterminismTest, VictimPicksAreStableAcrossIdenticalRuns)
{
    // The policy seam must not introduce history- or address-ordering
    // dependence: identical experiment points produce identical WAF
    // and relocation counts for every victim policy.
    for (const char *victim : {"greedy", "costbenefit", "windowed"}) {
        ExpParams p = tinyParams(23);
        p.gcForced = false;
        p.victimPolicy = victim;
        ExpResult a = runExperiment(p);
        ExpResult b = runExperiment(p);
        EXPECT_EQ(a.gcRelocated, b.gcRelocated) << victim;
        EXPECT_EQ(a.waf, b.waf) << victim;
    }
}

TEST(RunExperimentsTest, ResultsComeBackInInputOrder)
{
    // Distinct seeds give distinct results; order must follow input.
    std::vector<ExpParams> ps = {tinyParams(3), tinyParams(1),
                                 tinyParams(2)};
    std::vector<ExpResult> rs = runExperiments(ps, 3);
    for (std::size_t i = 0; i < ps.size(); ++i) {
        ExpResult direct = runExperiment(ps[i]);
        EXPECT_TRUE(sameResult(rs[i], direct)) << "slot " << i;
    }
}

TEST(BenchOptsTest, ParsesThreadsAndJsonInBothForms)
{
    const char *argv1[] = {"bench", "--threads=7", "--json=/tmp/x.json",
                           "--seed=9"};
    BenchOpts o1 = BenchOpts::parse(4, const_cast<char **>(argv1),
                                    {"--seed", "--threads", "--json"});
    EXPECT_EQ(o1.threads, 7u);
    EXPECT_EQ(o1.json, "/tmp/x.json");
    EXPECT_EQ(o1.seed, 9u);

    const char *argv2[] = {"bench", "--threads", "3", "--json",
                           "out.json", "--full"};
    BenchOpts o2 = BenchOpts::parse(6, const_cast<char **>(argv2),
                                    {"--full", "--threads", "--json"});
    EXPECT_EQ(o2.threads, 3u);
    EXPECT_EQ(o2.json, "out.json");
    EXPECT_TRUE(o2.full);
    EXPECT_GE(o2.resolvedThreads(), 1u);
}

TEST(OptionTableTest, AppliesFlagsInOrderInBothValueForms)
{
    std::vector<std::string> seen;
    std::vector<Option> table = {
        {"--n", "N", "a number",
         [&](const char *v) { seen.push_back(std::string("n:") + v); }},
        {"--s", nullptr, "a switch",
         [&](const char *v) {
             EXPECT_EQ(v, nullptr);
             seen.push_back("s");
         }},
    };
    const char *argv[] = {"prog", "--n=3", "--s", "--n", "4", "--n="};
    parseOptions(6, const_cast<char **>(argv), table);
    EXPECT_EQ(seen, (std::vector<std::string>{"n:3", "s", "n:4", "n:"}));
}

TEST(OptionParseTest, AcceptsPlainNumbersInRange)
{
    EXPECT_EQ(parseUnsignedOpt("--qd", "64", 1, 65536), 64u);
    EXPECT_EQ(parseUnsignedOpt("--seed", "18446744073709551615", 0),
              18446744073709551615ull);
    EXPECT_DOUBLE_EQ(parseRealOpt("--read-ratio", "0.7", 0.0, 1.0), 0.7);
    EXPECT_DOUBLE_EQ(parseRealOpt("--read-ratio", "1", 0.0, 1.0), 1.0);
    EXPECT_DOUBLE_EQ(parseRealOpt("--factor", ".5", 0.0, INFINITY, true),
                     0.5);
}

TEST(OptionParseDeathTest, RejectsOutOfRangeSignedAndJunk)
{
    auto bad = [](auto fn, const char *flag) {
        EXPECT_EXIT(fn(), testing::ExitedWithCode(1),
                    std::string("fatal: ") + flag + " needs ");
    };
    bad([] { parseUnsignedOpt("--qd", "0", 1, 65536); }, "--qd");
    bad([] { parseUnsignedOpt("--qd", "6x", 1, 65536); }, "--qd");
    bad([] { parseUnsignedOpt("--qd", "", 1, 65536); }, "--qd");
    bad([] { parseUnsignedOpt("--qd", " 6", 1, 65536); }, "--qd");
    bad([] { parseUnsignedOpt("--qd", "+6", 1, 65536); }, "--qd");
    bad([] { parseUnsignedOpt("--shards", "0", 1, 1024); }, "--shards");
    bad([] { parseUnsignedOpt("--engine-threads", "-1", 0, 1024); },
        "--engine-threads");
    bad([] { parseUnsignedOpt("--seed", "99999999999999999999", 0); },
        "--seed");
    bad([] { parseRealOpt("--window-ms", "0", 0.0, 1e9, true); },
        "--window-ms");
    bad([] { parseRealOpt("--read-ratio", "1.5", 0.0, 1.0); },
        "--read-ratio");
    bad([] { parseRealOpt("--rber-scale", "-3", 0.0, INFINITY); },
        "--rber-scale");
    bad([] { parseRealOpt("--rber-scale", "nan", 0.0, INFINITY); },
        "--rber-scale");
    bad([] { parseRealOpt("--read-ratio", "0.5x", 0.0, 1.0); },
        "--read-ratio");
}

TEST(OptionParseDeathTest, BenchOptsRejectsBadNumbers)
{
    auto parse = [](const char *arg) {
        const char *argv[] = {"bench", arg};
        BenchOpts::parse(2, const_cast<char **>(argv),
                         {"--threads", "--shards", "--engine-threads",
                          "--slo"});
    };
    EXPECT_EXIT(parse("--shards=0"), testing::ExitedWithCode(1),
                "fatal: --shards needs ");
    EXPECT_EXIT(parse("--engine-threads=-1"), testing::ExitedWithCode(1),
                "fatal: --engine-threads needs ");
    // 0 (shared engine) and 1 (engine group) are the only modes.
    EXPECT_EXIT(parse("--engine-threads=2"), testing::ExitedWithCode(1),
                "fatal: --engine-threads needs an integer in \\[0, 1\\]");
    EXPECT_EXIT(parse("--threads=4x"), testing::ExitedWithCode(1),
                "fatal: --threads needs ");
    EXPECT_EXIT(parse("--slo=0"), testing::ExitedWithCode(1),
                "fatal: --slo needs ");
}

TEST(OptionParseDeathTest, FlagOutsideBenchListPrintsUsage)
{
    auto parse = [](std::vector<const char *> args) {
        args.insert(args.begin(), "/path/to/bench_x");
        BenchOpts::parse(static_cast<int>(args.size()),
                         const_cast<char **>(args.data()),
                         {"--full", "--seed"});
    };
    // The usage text lists exactly the bench's flags, then the error.
    const std::string usage = "usage: bench_x \\[options\\]\n"
                              "  --full +[^\n]+\n"
                              "  --seed=N +[^\n]+\n"
                              "fatal: ";
    EXPECT_EXIT(parse({"--shards=2"}), testing::ExitedWithCode(1),
                usage + "unknown option '--shards'");
    // The old bench spelling of --trace-out is unknown everywhere.
    EXPECT_EXIT(parse({"--trace", "t.json"}), testing::ExitedWithCode(1),
                usage + "unknown option '--trace'");
    EXPECT_EXIT(parse({"--full=1"}), testing::ExitedWithCode(1),
                usage + "--full takes no value");
    EXPECT_EXIT(parse({"--full", "--seed"}), testing::ExitedWithCode(1),
                usage + "--seed needs a value");
}

TEST(OptionParseDeathTest, BenchListTypoPanics)
{
    const char *argv[] = {"bench"};
    EXPECT_DEATH(BenchOpts::parse(1, const_cast<char **>(argv), {"--sed"}),
                 "BenchOpts has no flag '--sed'");
}

TEST(JsonSeriesWriterTest, WritesOrderedSeries)
{
    JsonSeriesWriter w;
    w.add("a/io", 1.5);
    w.add("b/gc", 2.0);
    w.add("a/io", 2.5);
    std::string path = testing::TempDir() + "harness_json_test.json";
    w.write(path, "unit");

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    std::string doc = ss.str();
    EXPECT_NE(doc.find("\"bench\": \"unit\""), std::string::npos);
    EXPECT_NE(doc.find("\"a/io\": [1.5, 2.5]"), std::string::npos);
    EXPECT_NE(doc.find("\"b/gc\": [2]"), std::string::npos);
    std::remove(path.c_str());
}

} // namespace
} // namespace bench
} // namespace dssd
