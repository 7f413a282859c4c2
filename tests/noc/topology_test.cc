/** Unit tests for fNoC topologies and routing. */

#include <gtest/gtest.h>

#include "noc/topology.hh"

namespace dssd
{
namespace
{

void
checkRouteConnectivity(const Topology &t, unsigned src, unsigned dst)
{
    auto route = t.route(src, dst);
    unsigned at = src;
    for (unsigned link_id : route) {
        const NocLink &l = t.link(link_id);
        EXPECT_EQ(l.from, at) << t.name() << " " << src << "->" << dst;
        at = l.to;
    }
    EXPECT_EQ(at, dst);
}

/** Average route length in links over all src != dst pairs. */
double
averageHops(const Topology &t)
{
    unsigned n = t.numNodes();
    std::uint64_t hops = 0;
    for (unsigned s = 0; s < n; ++s) {
        for (unsigned d = 0; d < n; ++d) {
            if (s != d)
                hops += t.route(s, d).size();
        }
    }
    return static_cast<double>(hops) / (n * (n - 1.0));
}

TEST(Mesh1DTest, LinkCount)
{
    Mesh1D m(8);
    EXPECT_EQ(m.numNodes(), 8u);
    EXPECT_EQ(m.numLinks(), 14u); // 7 forward + 7 backward
    EXPECT_EQ(m.bisectionLinks(), 2u);
}

TEST(Mesh1DTest, RoutesAreMinimalAndConnected)
{
    Mesh1D m(8);
    for (unsigned s = 0; s < 8; ++s) {
        for (unsigned d = 0; d < 8; ++d) {
            auto r = m.route(s, d);
            EXPECT_EQ(r.size(),
                      static_cast<std::size_t>(
                          s > d ? s - d : d - s));
            if (s != d)
                checkRouteConnectivity(m, s, d);
        }
    }
}

TEST(Mesh1DTest, SelfRouteIsEmpty)
{
    Mesh1D m(4);
    EXPECT_TRUE(m.route(2, 2).empty());
}

TEST(RingTest, TakesShorterDirection)
{
    Ring r(8);
    EXPECT_EQ(r.route(0, 3).size(), 3u);
    EXPECT_EQ(r.route(0, 5).size(), 3u); // wraps the other way
    EXPECT_EQ(r.route(0, 4).size(), 4u);
    EXPECT_EQ(r.bisectionLinks(), 4u);
}

TEST(RingTest, RoutesConnected)
{
    Ring r(8);
    for (unsigned s = 0; s < 8; ++s)
        for (unsigned d = 0; d < 8; ++d)
            if (s != d)
                checkRouteConnectivity(r, s, d);
}

TEST(RingTest, DatelineLinksAreTheWrapLinks)
{
    Ring r(8);
    unsigned count = 0;
    for (unsigned l = 0; l < r.numLinks(); ++l) {
        if (r.datelineLink(l))
            ++count;
    }
    EXPECT_EQ(count, 2u);
    EXPECT_TRUE(r.datelineLink(7));  // cw wrap 7 -> 0
    EXPECT_TRUE(r.datelineLink(8));  // ccw wrap 0 -> 7
}

TEST(CrossbarTest, TwoPortRoute)
{
    Crossbar x(8);
    auto r = x.route(2, 5);
    ASSERT_EQ(r.size(), 2u);
    EXPECT_EQ(r[0], 2u);      // node 2's output port
    EXPECT_EQ(r[1], 8u + 5u); // node 5's input port
    EXPECT_TRUE(x.simultaneousLinks());
    EXPECT_EQ(x.bisectionLinks(), 8u);
}

TEST(TopologyTest, AverageHopsOrdering)
{
    Mesh1D m(8);
    Ring r(8);
    Crossbar x(8);
    // mesh avg 3, ring avg ~2.29, crossbar "2" ports but simultaneous.
    EXPECT_NEAR(averageHops(m), 3.0, 0.01);
    EXPECT_LT(averageHops(r), averageHops(m));
    EXPECT_NEAR(averageHops(x), 2.0, 0.01);
}

TEST(TopologyFactoryTest, KnownNames)
{
    EXPECT_EQ(makeTopology("mesh", 8)->name(), "mesh1d");
    EXPECT_EQ(makeTopology("ring", 8)->name(), "ring");
    EXPECT_EQ(makeTopology("crossbar", 8)->name(), "crossbar");
}

TEST(TopologyFactoryDeathTest, UnknownNameIsFatal)
{
    EXPECT_DEATH((void)makeTopology("torus", 8), "unknown topology");
}

} // namespace
} // namespace dssd
