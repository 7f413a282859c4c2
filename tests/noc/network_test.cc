/** Unit tests for the fNoC network model. */

#include <gtest/gtest.h>

#include <memory>

#include "noc/network.hh"

namespace dssd
{
namespace
{

NocParams
params()
{
    NocParams p;
    p.linkBandwidth = 1.0; // 1 byte/ns
    p.hopLatency = 10;
    p.bufferPackets = 4;
    p.headerBytes = 0; // keep arithmetic exact in tests
    return p;
}

TEST(NocTest, SingleHopLatency)
{
    Engine e;
    NocNetwork net(e, std::make_unique<Mesh1D>(4), params());
    Tick done = 0;
    net.send(0, 1, 100, tagGc, [&] { done = e.now(); });
    e.run();
    // serialization 100 + hop latency 10
    EXPECT_EQ(done, 110u);
    EXPECT_EQ(net.packetsDelivered(), 1u);
}

TEST(NocTest, MultiHopCutThroughLatency)
{
    Engine e;
    NocNetwork net(e, std::make_unique<Mesh1D>(4), params());
    Tick done = 0;
    net.send(0, 3, 100, tagGc, [&] { done = e.now(); });
    e.run();
    // Head pipelines: 3 hops x 10 + one serialization of 100.
    EXPECT_EQ(done, 130u);
}

TEST(NocTest, DisjointPathsRunInParallel)
{
    Engine e;
    NocNetwork net(e, std::make_unique<Mesh1D>(8), params());
    Tick d1 = 0, d2 = 0;
    net.send(0, 1, 1000, tagGc, [&] { d1 = e.now(); });
    net.send(4, 5, 1000, tagGc, [&] { d2 = e.now(); });
    e.run();
    EXPECT_EQ(d1, 1010u);
    EXPECT_EQ(d2, 1010u); // no shared link: same finish time
}

TEST(NocTest, SharedLinkSerializes)
{
    Engine e;
    NocNetwork net(e, std::make_unique<Mesh1D>(4), params());
    Tick d1 = 0, d2 = 0;
    net.send(0, 2, 1000, tagGc, [&] { d1 = e.now(); });
    net.send(1, 2, 1000, tagGc, [&] { d2 = e.now(); });
    e.run();
    // Both need link 1->2 and must serialize over it. The single-hop
    // packet (1->2) grabs the link first (the 0->2 head is still in
    // flight), so it lands at ~1010 and the other waits out a full
    // serialization: ~2010.
    Tick first = std::min(d1, d2);
    Tick second = std::max(d1, d2);
    EXPECT_EQ(first, 1010u);
    EXPECT_GE(second, first + 1000 - 20);
}

TEST(NocTest, HeaderBytesAddOverhead)
{
    Engine e;
    NocParams p = params();
    p.headerBytes = 32;
    NocNetwork net(e, std::make_unique<Mesh1D>(4), p);
    Tick done = 0;
    net.send(0, 1, 100, tagGc, [&] { done = e.now(); });
    e.run();
    EXPECT_EQ(done, 142u);
    EXPECT_EQ(net.bytesDelivered(), 132u);
}

TEST(NocTest, CrossbarOccupiesBothPortsSimultaneously)
{
    Engine e;
    NocNetwork net(e, std::make_unique<Crossbar>(4), params());
    Tick done = 0;
    net.send(0, 3, 100, tagGc, [&] { done = e.now(); });
    e.run();
    EXPECT_EQ(done, 110u); // one serialization, one hop
}

TEST(NocTest, CrossbarNonBlockingAcrossDistinctPairs)
{
    Engine e;
    NocNetwork net(e, std::make_unique<Crossbar>(4), params());
    Tick d1 = 0, d2 = 0;
    net.send(0, 1, 1000, tagGc, [&] { d1 = e.now(); });
    net.send(2, 3, 1000, tagGc, [&] { d2 = e.now(); });
    e.run();
    EXPECT_EQ(d1, d2);
}

TEST(NocTest, CrossbarOutputPortContention)
{
    Engine e;
    NocNetwork net(e, std::make_unique<Crossbar>(4), params());
    Tick d1 = 0, d2 = 0;
    net.send(0, 3, 1000, tagGc, [&] { d1 = e.now(); });
    net.send(1, 3, 1000, tagGc, [&] { d2 = e.now(); });
    e.run();
    EXPECT_EQ(d1, 1010u);
    EXPECT_GE(d2, 2000u); // destination input port serializes
}

TEST(NocTest, RingDeliversAcrossTheDateline)
{
    Engine e;
    NocNetwork net(e, std::make_unique<Ring>(8), params());
    Tick done = 0;
    net.send(6, 1, 100, tagGc, [&] { done = e.now(); });
    e.run();
    EXPECT_GT(done, 0u);
    EXPECT_EQ(net.packetsDelivered(), 1u);
}

TEST(NocTest, ManyPacketsAllDeliveredWithTinyBuffers)
{
    Engine e;
    NocParams p = params();
    p.bufferPackets = 1;
    NocNetwork net(e, std::make_unique<Ring>(8), p);
    unsigned delivered = 0;
    for (unsigned i = 0; i < 64; ++i) {
        net.send(i % 8, (i * 5 + 3) % 8, 512, tagGc,
                 [&] { ++delivered; });
    }
    e.run();
    EXPECT_EQ(delivered, 64u);
    EXPECT_EQ(net.packetsInFlight(), 0u);
}

TEST(NocTest, LatencyStatMatchesDeliveries)
{
    Engine e;
    NocNetwork net(e, std::make_unique<Mesh1D>(8), params());
    for (unsigned i = 0; i < 10; ++i)
        net.send(0, 7, 100, tagGc, [] {});
    e.run();
    EXPECT_EQ(net.latency().count(), 10u);
    EXPECT_GT(net.latency().mean(), 0.0);
}

TEST(NocTest, BufferBackpressureDelaysInjection)
{
    Engine e;
    NocParams small = params();
    small.bufferPackets = 1;
    NocNetwork slow(e, std::make_unique<Mesh1D>(8), small);
    Tick last_small = 0;
    for (int i = 0; i < 16; ++i)
        slow.send(0, 7, 4096, tagGc, [&] { last_small = e.now(); });
    e.run();

    Engine e2;
    NocParams big = params();
    big.bufferPackets = 16;
    NocNetwork fast(e2, std::make_unique<Mesh1D>(8), big);
    Tick last_big = 0;
    for (int i = 0; i < 16; ++i)
        fast.send(0, 7, 4096, tagGc, [&] { last_big = e2.now(); });
    e2.run();

    EXPECT_LE(last_big, last_small);
}

} // namespace
} // namespace dssd
