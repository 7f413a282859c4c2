/**
 * Additional property suites: analytic bounds and reference-model
 * checks for the NoC, the copyback machine, GC policies, and the
 * statistics kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "core/gc.hh"
#include "core/ssd.hh"
#include "noc/network.hh"

namespace dssd
{
namespace
{

//
// NoC latency bounds: an uncontended packet's latency equals
// hops * hopLatency + one serialization (cut-through), for every
// src/dst pair and every topology.
//

// The topology is a std::string: gtest prints a const char * inside a
// tuple with its address, which would put a per-run address into
// the test's name.
class NocLatencyBound
    : public ::testing::TestWithParam<std::tuple<std::string, unsigned>>
{
};

TEST_P(NocLatencyBound, UncontendedLatencyIsExact)
{
    auto [topo_name, dst] = GetParam();
    NocParams np;
    np.linkBandwidth = 2.0;
    np.hopLatency = 15;
    np.headerBytes = 0;
    Engine e;
    NocNetwork net(e, makeTopology(topo_name, 8), np);
    const std::uint64_t bytes = 4096;
    Tick done = 0;
    net.send(0, dst, bytes, tagGc, [&] { done = e.now(); });
    e.run();

    std::size_t hops = net.topology().route(0, dst).size();
    Tick ser = static_cast<Tick>(bytes / np.linkBandwidth);
    Tick expect;
    if (net.topology().simultaneousLinks())
        expect = ser + np.hopLatency;
    else if (hops == 0)
        expect = np.hopLatency;
    else
        expect = hops * np.hopLatency + ser;
    EXPECT_EQ(done, expect) << topo_name << " ->" << dst;
}

INSTANTIATE_TEST_SUITE_P(
    AllDst, NocLatencyBound,
    ::testing::Combine(::testing::Values("mesh", "ring", "crossbar"),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u)));

//
// NoC throughput cap: streaming many packets between the two halves
// cannot exceed bisection bandwidth (with small overhead slack).
//

class NocBisection : public ::testing::TestWithParam<const char *>
{
};

TEST_P(NocBisection, CrossTrafficBoundedByBisection)
{
    NocParams np;
    np.linkBandwidth = 1.0;
    np.headerBytes = 0;
    np.bufferPackets = 8;
    Engine e;
    NocNetwork net(e, makeTopology(GetParam(), 8), np);
    double bisection_bw =
        np.linkBandwidth * net.topology().bisectionLinks();

    const unsigned packets = 400;
    const std::uint64_t bytes = 4096;
    unsigned done = 0;
    Tick last = 0;
    // All traffic crosses the middle: left half -> right half and back.
    for (unsigned i = 0; i < packets; ++i) {
        unsigned src = i % 4;
        unsigned dst = 4 + (i % 4);
        if (i % 2)
            std::swap(src, dst);
        net.send(src, dst, bytes, tagGc, [&] {
            ++done;
            last = e.now();
        });
    }
    e.run();
    ASSERT_EQ(done, packets);
    double achieved =
        static_cast<double>(packets) * bytes / static_cast<double>(last);
    EXPECT_LE(achieved, bisection_bw * 1.05) << GetParam();
    // And parallel links must provide a reasonable fraction of it
    // (the ring's minimal tie-breaking concentrates flows on shared
    // clockwise links, so the floor is loose).
    EXPECT_GE(achieved, bisection_bw * 0.25) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Topos, NocBisection,
                         ::testing::Values("mesh", "ring", "crossbar"));

//
// Copyback completeness over every (src, dst) channel pair.
//

class CopybackPairs
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(CopybackPairs, AnySourceAnyDestination)
{
    auto [src_ch, dst_ch] = GetParam();
    SsdConfig c = makeConfig(ArchKind::DSSDNoc);
    c.geom.channels = 4;
    c.geom.ways = 2;
    c.geom.planesPerDie = 2;
    c.geom.blocksPerPlane = 8;
    c.geom.pagesPerBlock = 8;
    Engine e;
    Ssd ssd(e, c);

    PhysAddr src{};
    src.channel = src_ch;
    PhysAddr dst{};
    dst.channel = dst_ch;
    dst.block = 3;
    DecoupledController *sc = ssd.decoupledController(src_ch);
    DecoupledController *dc = ssd.decoupledController(dst_ch);
    bool done = false;
    LatencyBreakdown bd;
    sc->globalCopyback(src, dst, dst_ch == src_ch ? nullptr : dc, tagGc,
                       [&] { done = true; }, &bd);
    e.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(sc->copybacksCompleted(), 1u);
    // The read and the ECC check always happen at the source.
    EXPECT_GE(bd.flashMem, usToTicks(55)); // tR + tPROG minimum
    EXPECT_GT(bd.ecc, 0u);
    if (src_ch == dst_ch) {
        EXPECT_EQ(bd.noc, 0u);
        EXPECT_EQ(ssd.noc()->packetsDelivered(), 0u);
    } else {
        EXPECT_GT(bd.noc, 0u);
        EXPECT_EQ(ssd.noc()->packetsDelivered(), 1u);
    }
    // Never the front end.
    EXPECT_EQ(bd.systemBus, 0u);
    EXPECT_EQ(bd.dram, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, CopybackPairs,
    ::testing::Combine(::testing::Values(0u, 1u, 3u),
                       ::testing::Values(0u, 2u, 3u)));

//
// GC policy sweep: every policy reclaims space and preserves data.
//

class GcPolicySweep : public ::testing::TestWithParam<GcPolicy>
{
};

TEST_P(GcPolicySweep, ReclaimsAndPreservesUnderLoad)
{
    SsdConfig c = makeConfig(ArchKind::DSSDNoc);
    c.geom.channels = 4;
    c.geom.ways = 2;
    c.geom.planesPerDie = 2;
    c.geom.blocksPerPlane = 12;
    c.geom.pagesPerBlock = 8;
    c.gc.policy = GetParam();
    c.writeBuffer.capacityPages = 64;
    Engine e;
    Ssd ssd(e, c);
    ssd.prefill(0.85, 0.25);

    std::uint64_t valid_before = ssd.mapping().totalValidPages();
    Rng rng(3);
    unsigned done = 0;
    for (int i = 0; i < 1200; ++i) {
        ssd.writePage(rng.uniformInt(0, ssd.mapping().lpnCount() - 1),
                      [&] { ++done; });
        if (i % 64 == 63)
            e.run();
    }
    e.run();
    EXPECT_EQ(done, 1200u);
    EXPECT_GT(ssd.gc().blocksErased(), 0u)
        << gcPolicyName(GetParam());
    // Valid data can only move or grow (new LPNs), never vanish.
    EXPECT_GE(ssd.mapping().totalValidPages() +
                  ssd.writeBuffer().occupancy(),
              valid_before);
    EXPECT_FALSE(ssd.gc().anyActive());
}

INSTANTIATE_TEST_SUITE_P(Policies, GcPolicySweep,
                         ::testing::Values(GcPolicy::Parallel,
                                           GcPolicy::Preemptive,
                                           GcPolicy::TinyTail));

//
// SampleStat percentiles agree with a brute-force reference.
//

class PercentileProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(PercentileProperty, MatchesReferenceNearestRank)
{
    Rng rng(GetParam());
    SampleStat s;
    std::vector<double> ref;
    int n = 1 + static_cast<int>(rng.uniformInt(0, 500));
    for (int i = 0; i < n; ++i) {
        double v = rng.uniformReal(0, 1e6);
        s.sample(v);
        ref.push_back(v);
    }
    std::sort(ref.begin(), ref.end());
    for (double p : {1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
        std::size_t rank = static_cast<std::size_t>(
            std::ceil(p / 100.0 * static_cast<double>(ref.size())));
        rank = std::max<std::size_t>(1, std::min(rank, ref.size()));
        EXPECT_DOUBLE_EQ(s.percentile(p), ref[rank - 1]) << p;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PercentileProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

//
// The distinct-value store stays exact across many pending-buffer
// folds: every query, interleaved with sampling, matches a sorted copy
// of every sample so far.
//

class DistinctStoreProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(DistinctStoreProperty, QueriesBetweenFoldsMatchSortOracle)
{
    Rng rng(GetParam());
    SampleStat s;
    std::vector<double> sorted; // oracle: every sample, ascending
    std::vector<double> fresh;  // samples since the last query
    double sum = 0.0, lo = 0.0, hi = 0.0;
    std::uint64_t n = 0, next_query = 1;
    while (n < 200000) {
        double v;
        switch (rng.uniformInt(0, 3)) {
          case 0: // heavy duplicates
            v = static_cast<double>(rng.uniformInt(0, 15));
            break;
          case 1: // negative duplicates
            v = -static_cast<double>(rng.uniformInt(1, 40));
            break;
          case 2: // continuous reals of either sign
            v = rng.uniformReal(-1e3, 1e6);
            break;
          default: // integer ticks that repeat a few times each
            v = static_cast<double>(rng.uniformInt(0, 50000));
            break;
        }
        s.sample(v);
        fresh.push_back(v);
        sum += v;
        lo = n == 0 ? v : std::min(lo, v);
        hi = n == 0 ? v : std::max(hi, v);
        if (++n != next_query)
            continue;
        std::size_t old = sorted.size();
        std::sort(fresh.begin(), fresh.end());
        sorted.insert(sorted.end(), fresh.begin(), fresh.end());
        std::inplace_merge(sorted.begin(), sorted.begin() + old,
                           sorted.end());
        fresh.clear();
        ASSERT_EQ(s.count(), n);
        ASSERT_EQ(s.sum(), sum);
        ASSERT_EQ(s.min(), lo);
        ASSERT_EQ(s.max(), hi);
        ASSERT_EQ(s.mean(), sum / static_cast<double>(n));
        for (double p : {0.0, 1.0, 50.0, 99.0, 99.9, 100.0}) {
            std::size_t rank = static_cast<std::size_t>(
                std::ceil(p / 100.0 * static_cast<double>(n)));
            rank = std::clamp<std::size_t>(rank, 1, sorted.size());
            ASSERT_EQ(s.percentile(p), sorted[rank - 1])
                << "p" << p << " after " << n << " samples";
        }
        // Irregular gaps, some long enough for sample() to fold a
        // buffer of a quarter of the store before the next query.
        next_query =
            n + 1 + rng.uniformInt(0, rng.chance(0.125) ? 40000 : 4000);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DistinctStoreProperty,
                         ::testing::Values(3, 17, 29));

} // namespace
} // namespace dssd
