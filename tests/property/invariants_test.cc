/**
 * Property-based tests: parameterized sweeps asserting invariants that
 * must hold for every configuration and random workload.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/gc.hh"
#include "core/ssd.hh"
#include "noc/network.hh"
#include "reliability/endurance.hh"

#include "../ftl/mapping_oracle.hh"

namespace dssd
{
namespace
{

//
// Mapping invariant under random operation streams.
//

class MappingProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(MappingProperty, MappingStaysBijectiveUnderRandomOps)
{
    MappingParams p;
    p.geom.channels = 2;
    p.geom.ways = 2;
    p.geom.planesPerDie = 2;
    p.geom.blocksPerPlane = 8;
    p.geom.pagesPerBlock = 4;
    p.overProvision = 0.3;
    PageMapping m(p);
    Rng rng(GetParam());

    std::uint64_t expected_valid = 0;
    std::vector<bool> mapped(m.lpnCount(), false);
    for (int op = 0; op < 2000; ++op) {
        Lpn l = rng.uniformInt(0, m.lpnCount() - 1);
        double die_frac =
            static_cast<double>(expected_valid) / m.lpnCount();
        if (rng.chance(0.3) || die_frac > 0.55) {
            // Trim.
            if (mapped[l]) {
                --expected_valid;
                mapped[l] = false;
            }
            m.invalidate(l);
        } else {
            m.allocate(l);
            if (!mapped[l]) {
                ++expected_valid;
                mapped[l] = true;
            }
        }
        // Occasionally collect a unit to keep free blocks around.
        std::uint32_t unit = rng.uniformInt(0, m.unitCount() - 1);
        if (m.gcNeeded(unit)) {
            auto victim = m.pickVictim(unit);
            if (victim) {
                for (Lpn v : m.validLpns(unit, *victim)) {
                    std::uint32_t dst_unit =
                        rng.uniformInt(0, m.unitCount() - 1);
                    if (!m.canAllocate(dst_unit))
                        continue;
                    PhysAddr dst = m.allocateInUnit(v, dst_unit);
                    m.commitRelocation(v, dst);
                }
                if (m.validLpns(unit, *victim).empty())
                    m.eraseBlock(unit, *victim);
            }
        }
    }

    // Invariant 1: valid-page count matches the reference model.
    EXPECT_EQ(m.totalValidPages(), expected_valid);
    // Invariant 2: forward and reverse maps agree (bijectivity).
    for (Lpn l = 0; l < m.lpnCount(); ++l) {
        auto ppn = m.translate(l);
        EXPECT_EQ(ppn.has_value(), mapped[l]) << "lpn " << l;
        if (ppn) {
            EXPECT_EQ(*reverseLookup(m, *ppn), l);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MappingProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

//
// NoC conservation: every injected packet is delivered exactly once,
// for every topology and buffer depth.
//

// The topology is a std::string: gtest prints a const char * inside a
// tuple with its address, which would put a per-run address into
// the test's name.
class NocProperty
    : public ::testing::TestWithParam<std::tuple<std::string, unsigned>>
{
};

TEST_P(NocProperty, PacketsConservedUnderRandomTraffic)
{
    auto [topo_name, buffers] = GetParam();
    Engine e;
    NocParams np;
    np.linkBandwidth = 1.0;
    np.bufferPackets = buffers;
    NocNetwork net(e, makeTopology(topo_name, 8), np);
    Rng rng(99);
    unsigned delivered = 0;
    const unsigned count = 200;
    for (unsigned i = 0; i < count; ++i) {
        unsigned src = rng.uniformInt(0, 7);
        unsigned dst = rng.uniformInt(0, 7);
        net.send(src, dst, 1024 + rng.uniformInt(0, 4096), tagGc,
                 [&] { ++delivered; });
    }
    e.run();
    EXPECT_EQ(delivered, count);
    EXPECT_EQ(net.packetsDelivered(), count);
    EXPECT_EQ(net.packetsInFlight(), 0u);
    EXPECT_EQ(net.latency().count(), count);
}

INSTANTIATE_TEST_SUITE_P(
    TopoBuffers, NocProperty,
    ::testing::Combine(::testing::Values("mesh", "ring", "crossbar"),
                       ::testing::Values(1u, 2u, 8u)));

//
// Whole-SSD invariant: random write-heavy workloads on any
// architecture never lose data and always drain.
//

class SsdProperty
    : public ::testing::TestWithParam<std::tuple<ArchKind, std::uint64_t>>
{
};

TEST_P(SsdProperty, NoDataLossUnderWritePressure)
{
    auto [arch, seed] = GetParam();
    SsdConfig c = makeConfig(arch);
    c.geom.channels = 4;
    c.geom.ways = 2;
    c.geom.planesPerDie = 2;
    c.geom.blocksPerPlane = 12;
    c.geom.pagesPerBlock = 8;
    c.writeBuffer.capacityPages = 64;
    c.seed = seed;
    Engine e;
    Ssd ssd(e, c);
    ssd.prefill(0.8, 0.25);

    Rng rng(seed);
    unsigned done = 0;
    const unsigned count = 800;
    std::set<Lpn> written;
    for (unsigned i = 0; i < count; ++i) {
        Lpn l = rng.uniformInt(0, ssd.mapping().lpnCount() - 1);
        written.insert(l);
        ssd.writePage(l, [&] { ++done; });
        if (i % 32 == 31)
            e.run();
    }
    e.run();
    EXPECT_EQ(done, count);
    // Every written LPN must be resident in the buffer or mapped.
    for (Lpn l : written) {
        bool live = ssd.writeBuffer().readHit(l) ||
                    ssd.mapping().translate(l).has_value();
        EXPECT_TRUE(live) << "lost lpn " << l << " on "
                          << archName(arch);
    }
    // Engine fully drained: no stuck GC or flush.
    EXPECT_FALSE(ssd.gc().anyActive());
    EXPECT_EQ(ssd.ioOutstanding(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ArchSeeds, SsdProperty,
    ::testing::Combine(::testing::Values(ArchKind::Baseline, ArchKind::BW,
                                         ArchKind::DSSD, ArchKind::DSSDBus,
                                         ArchKind::DSSDNoc),
                       ::testing::Values(101u, 202u)));

//
// Endurance monotonicity: more reserved blocks never reduce the time
// to the first bad superblock.
//

class ReservProperty : public ::testing::TestWithParam<double>
{
};

TEST_P(ReservProperty, MoreReservationNeverHurtsFirstDeath)
{
    double frac = GetParam();
    EnduranceParams p;
    p.superblocks = 128;
    p.wear.peMean = 300;
    p.wear.peSigma = 45;
    p.scheme = SuperblockScheme::Reserv;
    p.seed = 7;
    p.reservedFraction = frac;
    double with = EnduranceSim(p).run().dataUntilFirstBad();
    p.reservedFraction = 0.0;
    double without = EnduranceSim(p).run().dataUntilFirstBad();
    EXPECT_GE(with, without);
}

INSTANTIATE_TEST_SUITE_P(Fractions, ReservProperty,
                         ::testing::Values(0.0, 0.03, 0.07, 0.15));

} // namespace
} // namespace dssd
