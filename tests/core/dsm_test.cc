/** Tests for the timed dynamic-superblock engine (Sec 5 in the loop). */

#include <gtest/gtest.h>

#include "core/dsm.hh"

namespace dssd
{
namespace
{

SsdConfig
dsmSsdConfig()
{
    SsdConfig c = makeConfig(ArchKind::DSSDNoc);
    c.geom = paperTlcGeometry();
    c.geom.blocksPerPlane = 12; // 12 superblocks for quick tests
    c.geom.pagesPerBlock = 4;
    c.timing = tlcTiming();
    return c;
}

DsmParams
dsmParams(DsmScheme scheme)
{
    DsmParams p;
    p.scheme = scheme;
    p.wear.peMean = 30;
    p.wear.peSigma = 6;
    p.reservedFraction = 0.2; // 2 of 12 superblocks
    p.seed = 5;
    return p;
}

struct Rig
{
    Engine engine;
    SsdConfig cfg = dsmSsdConfig();
    Ssd ssd{engine, cfg};
    SuperblockMapping map{cfg.geom};
};

TEST(DsmTest, StaticSchemeDiesOnFirstFailure)
{
    Rig rig;
    DynamicSuperblockEngine eng(rig.ssd, rig.map,
                                dsmParams(DsmScheme::Static));
    bool done = false;
    eng.run(2000, [&] { done = true; });
    rig.engine.run();
    EXPECT_TRUE(done);
    EXPECT_GT(eng.stats().deadSuperblocks, 0u);
    EXPECT_EQ(eng.stats().remapEvents, 0u);
    EXPECT_EQ(eng.stats().repairPagesCopied, 0u);
    // Deaths relocate data through the conventional path.
    EXPECT_GT(eng.stats().deathPagesCopied, 0u);
}

TEST(DsmTest, RecycledRepairsWithSrtAndRbt)
{
    Rig rig;
    DynamicSuperblockEngine eng(rig.ssd, rig.map,
                                dsmParams(DsmScheme::Recycled));
    bool done = false;
    eng.run(2000, [&] { done = true; });
    rig.engine.run();
    EXPECT_TRUE(done);
    // Recycling happened: remap events with copyback repairs.
    EXPECT_GT(eng.stats().remapEvents, 0u);
    EXPECT_GT(eng.stats().repairPagesCopied, 0u);
    // Some SRT entries were created on some controller.
    std::size_t active = 0;
    for (unsigned ch = 0; ch < rig.cfg.geom.channels; ++ch)
        active += rig.ssd.decoupledController(ch)->srt().highWater();
    EXPECT_GT(active, 0u);
}

TEST(DsmTest, RecycledOutlivesStatic)
{
    auto run = [](DsmScheme scheme) {
        Rig rig;
        DynamicSuperblockEngine eng(rig.ssd, rig.map, dsmParams(scheme));
        eng.run(4000, [] {});
        rig.engine.run();
        return eng.stats().bytesWritten;
    };
    // Same wear limits (same seed): recycling must sustain at least
    // as many written bytes before the pool collapses.
    EXPECT_GE(run(DsmScheme::Recycled), run(DsmScheme::Static));
}

TEST(DsmTest, ReservDelaysFirstDeath)
{
    auto first_death_bytes = [](DsmScheme scheme) {
        Rig rig;
        DynamicSuperblockEngine eng(rig.ssd, rig.map, dsmParams(scheme));
        eng.run(4000, [] {});
        rig.engine.run();
        if (eng.stats().curve.empty())
            return -1.0; // never died
        return eng.stats().curve.front().first;
    };
    double rec = first_death_bytes(DsmScheme::Recycled);
    double res = first_death_bytes(DsmScheme::Reserv);
    // RESERV either never died within the cycle budget or died later.
    if (res >= 0.0 && rec >= 0.0)
        EXPECT_GT(res, rec);
    else
        EXPECT_LT(res, 0.0);
}

TEST(DsmTest, RepairIsInvisibleToTheMapping)
{
    Rig rig;
    DynamicSuperblockEngine eng(rig.ssd, rig.map,
                                dsmParams(DsmScheme::Recycled));
    eng.run(2000, [] {});
    rig.engine.run();
    ASSERT_GT(eng.stats().remapEvents, 0u);
    // Dynamic superblocks stay usable: dead count excludes repaired
    // ones, and every live superblock still erases/cycles, i.e., the
    // map's dead count matches the engine's.
    EXPECT_EQ(rig.map.deadSuperblocks(), eng.stats().deadSuperblocks);
    // Remapped sub-blocks resolve to a different physical block while
    // the FTL-visible address is unchanged.
    bool found_remap = false;
    for (std::uint32_t sb = 0; sb < rig.map.superblockCount() && !found_remap; ++sb) {
        for (std::uint32_t u = 0; u < rig.map.unitCount(); ++u) {
            PhysAddr a = rig.map.slotAddr(sb, u);
            ChannelBlockId orig = channelBlockId(rig.cfg.geom, a);
            if (eng.physicalBlock(sb, u) != orig) {
                found_remap = true;
                break;
            }
        }
    }
    EXPECT_TRUE(found_remap);
}

TEST(DsmTest, SimulatedTimeAdvancesWithWear)
{
    Rig rig;
    DynamicSuperblockEngine eng(rig.ssd, rig.map,
                                dsmParams(DsmScheme::Recycled));
    eng.run(100, [] {});
    rig.engine.run();
    EXPECT_EQ(eng.stats().cycles, 100u);
    // 100 cycles x (program 200-500us + erase 2ms) must be at least
    // ~hundreds of ms of simulated time.
    EXPECT_GT(rig.engine.now(), 100 * msToTicks(2));
}

TEST(DsmDeathTest, RecycledNeedsDecoupledArch)
{
    Engine e;
    SsdConfig c = dsmSsdConfig();
    c.arch = ArchKind::Baseline;
    Ssd ssd(e, c);
    SuperblockMapping map(c.geom);
    EXPECT_DEATH(DynamicSuperblockEngine(ssd, map,
                                         dsmParams(DsmScheme::Recycled)),
                 "decoupled");
}

} // namespace
} // namespace dssd
