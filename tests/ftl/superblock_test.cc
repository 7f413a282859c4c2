/** Unit tests for the superblock lifecycle table. */

#include <gtest/gtest.h>

#include <set>

#include "ftl/superblock.hh"
#include "sim/audit.hh"

namespace dssd
{
namespace
{

FlashGeometry
geom()
{
    FlashGeometry g;
    g.channels = 4;
    g.ways = 2;
    g.diesPerWay = 1;
    g.planesPerDie = 2;
    g.blocksPerPlane = 8; // 8 superblocks
    g.pagesPerBlock = 4;
    g.pageBytes = 4 * kKiB;
    return g;
}

/** Violations SuperblockMapping::audit finds in @p m. */
std::size_t
auditFailures(const SuperblockMapping &m)
{
    Auditor a(AuditMode::Report);
    a.addCheck("superblocks", [&m](AuditReport &r) { m.audit(r); });
    return a.run();
}

TEST(SuperblockMappingTest, DerivedCounts)
{
    SuperblockMapping m(geom());
    EXPECT_EQ(m.unitCount(), 16u);
    EXPECT_EQ(m.pagesPerSuperblock(), 64u);
    EXPECT_EQ(m.superblockCount(), 8u);
    EXPECT_EQ(m.freeSuperblocks(), 8u);
    EXPECT_EQ(auditFailures(m), 0u);
}

TEST(SuperblockMappingTest, SlotAddrRoundTrips)
{
    SuperblockMapping m(geom());
    const FlashGeometry &g = m.geometry();
    for (std::uint32_t sb = 0; sb < 8; ++sb) {
        std::set<std::uint32_t> units;
        for (std::uint32_t slot = 0; slot < 64; ++slot) {
            PhysAddr a = m.slotAddr(sb, slot);
            // Slots stripe plane-fastest across the units, then move
            // to the next page.
            std::uint32_t unit =
                ((a.channel * g.ways + a.way) * g.diesPerWay + a.die) *
                    g.planesPerDie +
                a.plane;
            EXPECT_EQ(a.block, sb);
            EXPECT_EQ(a.page * m.unitCount() + unit, slot);
            if (slot < m.unitCount())
                units.insert(unit);
        }
        EXPECT_EQ(units.size(), m.unitCount());
    }
}

TEST(SuperblockMappingTest, FillInvalidateEraseCycle)
{
    SuperblockMapping m(geom());
    m.fillAll(3);
    EXPECT_EQ(m.state(3), SuperblockState::Full);
    EXPECT_EQ(m.freeSuperblocks(), 7u);
    EXPECT_EQ(auditFailures(m), 0u);
    m.invalidateAll(3);
    EXPECT_EQ(m.state(3), SuperblockState::Full);
    EXPECT_EQ(auditFailures(m), 0u);
    m.eraseSuperblock(3);
    EXPECT_EQ(m.state(3), SuperblockState::Free);
    EXPECT_EQ(m.freeSuperblocks(), 8u);
    EXPECT_EQ(auditFailures(m), 0u);
}

TEST(SuperblockMappingTest, RetireRemovesFromPool)
{
    SuperblockMapping m(geom());
    m.retireSuperblock(5);
    EXPECT_EQ(m.state(5), SuperblockState::Dead);
    EXPECT_EQ(m.deadSuperblocks(), 1u);
    EXPECT_EQ(m.freeSuperblocks(), 7u);
    EXPECT_EQ(auditFailures(m), 0u);
    // A filled superblock retires once its data is dropped.
    m.fillAll(2);
    m.invalidateAll(2);
    m.retireSuperblock(2);
    EXPECT_EQ(m.deadSuperblocks(), 2u);
    EXPECT_EQ(m.freeSuperblocks(), 6u);
    EXPECT_EQ(auditFailures(m), 0u);
}

TEST(SuperblockMappingTest, ReserveRemovesFromPoolSeparately)
{
    SuperblockMapping m(geom());
    m.reserveSuperblock(7);
    EXPECT_EQ(m.state(7), SuperblockState::Reserved);
    EXPECT_EQ(m.reservedSuperblocks(), 1u);
    EXPECT_EQ(m.deadSuperblocks(), 0u);
    EXPECT_EQ(m.freeSuperblocks(), 7u);
    EXPECT_EQ(auditFailures(m), 0u);
}

TEST(SuperblockMappingDeathTest, EraseWithValidPagesPanics)
{
    SuperblockMapping m(geom());
    m.fillAll(0);
    EXPECT_DEATH(m.eraseSuperblock(0), "valid pages");
}

TEST(SuperblockMappingDeathTest, RetireWithValidPagesPanics)
{
    SuperblockMapping m(geom());
    m.fillAll(0);
    EXPECT_DEATH(m.retireSuperblock(0), "valid pages");
}

TEST(SuperblockMappingDeathTest, FillNonFreePanics)
{
    SuperblockMapping m(geom());
    m.fillAll(0);
    EXPECT_DEATH(m.fillAll(0), "free superblock");
}

} // namespace
} // namespace dssd
