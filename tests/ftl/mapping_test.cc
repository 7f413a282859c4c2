/** Unit tests for the page-mapping FTL layer. */

#include <gtest/gtest.h>

#include "ftl/mapping.hh"
#include "mapping_oracle.hh"

namespace dssd
{
namespace
{

MappingParams
params()
{
    MappingParams p;
    p.geom.channels = 2;
    p.geom.ways = 2;
    p.geom.diesPerWay = 1;
    p.geom.planesPerDie = 2;
    p.geom.blocksPerPlane = 8;
    p.geom.pagesPerBlock = 4;
    p.geom.pageBytes = 4 * kKiB;
    p.overProvision = 0.25;
    p.gcFreeBlockThreshold = 1;
    p.gcFreeBlockTarget = 2;
    return p;
}

TEST(MappingTest, LpnSpaceRespectsOverProvision)
{
    PageMapping m(params());
    // 2*2*2 units * 8 blocks * 4 pages = 256 pages; 25% OP -> 192.
    EXPECT_EQ(m.lpnCount(), 192u);
    EXPECT_EQ(m.unitCount(), 8u);
}

TEST(MappingTest, TranslateUnmappedIsEmpty)
{
    PageMapping m(params());
    EXPECT_FALSE(m.translate(0).has_value());
}

TEST(MappingTest, AllocateMapsAndTranslates)
{
    PageMapping m(params());
    PhysAddr a = m.allocate(42);
    auto ppn = m.translate(42);
    ASSERT_TRUE(ppn.has_value());
    EXPECT_EQ(*ppn, m.geometry().pageIndex(a));
    auto lpn = reverseLookup(m, *ppn);
    ASSERT_TRUE(lpn.has_value());
    EXPECT_EQ(*lpn, 42u);
    EXPECT_EQ(m.totalValidPages(), 1u);
}

TEST(MappingTest, AllocationStripesAcrossUnits)
{
    PageMapping m(params());
    std::set<std::uint32_t> units;
    for (Lpn l = 0; l < 8; ++l)
        units.insert(m.unitOf(m.allocate(l)));
    EXPECT_EQ(units.size(), 8u); // one allocation per unit
}

TEST(MappingTest, RewriteInvalidatesOldCopy)
{
    PageMapping m(params());
    PhysAddr a1 = m.allocate(7);
    PhysAddr a2 = m.allocate(7);
    EXPECT_FALSE(a1 == a2);
    EXPECT_EQ(m.totalValidPages(), 1u);
    Ppn old = m.geometry().pageIndex(a1);
    EXPECT_FALSE(reverseLookup(m, old).has_value());
}

TEST(MappingTest, InvalidateDropsMapping)
{
    PageMapping m(params());
    m.allocate(5);
    m.invalidate(5);
    EXPECT_FALSE(m.translate(5).has_value());
    EXPECT_EQ(m.totalValidPages(), 0u);
    // Double invalidate is a no-op.
    m.invalidate(5);
}

TEST(MappingTest, FreeBlockCountDecreasesAsBlocksOpen)
{
    PageMapping m(params());
    std::uint32_t before = m.freeBlockCount(0);
    // Fill one whole unit-0 block (4 pages land on unit 0 if we
    // allocate 4 * unitCount pages round-robin).
    for (Lpn l = 0; l < 4u * m.unitCount(); ++l)
        m.allocate(l);
    EXPECT_LT(m.freeBlockCount(0), before);
}

TEST(MappingTest, GreedyVictimPicksFewestValid)
{
    PageMapping m(params());
    // Fill two full blocks worth of pages on every unit.
    std::uint32_t per_round = m.unitCount();
    for (Lpn l = 0; l < 8 * per_round; ++l)
        m.allocate(l);
    // Invalidate 3 of the 4 pages of the first block of unit 0.
    // Unit-0 pages are LPNs 0, 8, 16, 24 (stride = unitCount).
    m.invalidate(0);
    m.invalidate(8);
    m.invalidate(16);
    auto victim = m.pickVictim(0);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(m.blockState(0, *victim).validCount, 1u);
}

TEST(MappingTest, FullyValidBlocksAreNotVictims)
{
    PageMapping m(params());
    for (Lpn l = 0; l < 8u * m.unitCount(); ++l)
        m.allocate(l);
    // Nothing invalidated: GC would gain nothing.
    EXPECT_FALSE(m.pickVictim(0).has_value());
}

TEST(MappingTest, ValidLpnsListsExactlyTheLiveOnes)
{
    PageMapping m(params());
    for (Lpn l = 0; l < 8u * m.unitCount(); ++l)
        m.allocate(l);
    m.invalidate(0);
    m.invalidate(16);
    auto victim = m.pickVictim(0);
    ASSERT_TRUE(victim.has_value());
    auto lpns = m.validLpns(0, *victim);
    EXPECT_EQ(lpns.size(), 2u);
    for (Lpn l : lpns) {
        EXPECT_TRUE(l == 8 || l == 24) << l;
    }
}

TEST(MappingTest, RelocationMovesMapping)
{
    PageMapping m(params());
    for (Lpn l = 0; l < 8u * m.unitCount(); ++l)
        m.allocate(l);
    Ppn before = *m.translate(8);
    PhysAddr dst = m.allocateInUnit(8, 1);
    m.commitRelocation(8, dst);
    Ppn after = *m.translate(8);
    EXPECT_NE(before, after);
    EXPECT_EQ(after, m.geometry().pageIndex(dst));
    EXPECT_EQ(*reverseLookup(m, after), 8u);
    EXPECT_FALSE(reverseLookup(m, before).has_value());
    EXPECT_EQ(m.gcRelocations(), 1u);
}

TEST(MappingTest, StaleRelocationLeavesNewCopyAlone)
{
    PageMapping m(params());
    m.allocate(3);
    PhysAddr dst = m.allocateInUnit(3, 1);
    // Host overwrites LPN 3 while the GC copy is in flight...
    m.invalidate(3);
    // ...so the commit is dead-on-arrival.
    m.commitRelocation(3, dst);
    EXPECT_FALSE(m.translate(3).has_value());
    EXPECT_EQ(m.blockState(1, dst.block).pending, 0u);
}

TEST(MappingTest, EraseReturnsBlockToFreeList)
{
    PageMapping m(params());
    for (Lpn l = 0; l < 8u * m.unitCount(); ++l)
        m.allocate(l);
    // Kill all pages of unit 0's first block.
    for (Lpn l : {0, 8, 16, 24})
        m.invalidate(static_cast<Lpn>(l));
    auto victim = m.pickVictim(0);
    ASSERT_TRUE(victim.has_value());
    std::uint32_t before = m.freeBlockCount(0);
    m.eraseBlock(0, *victim);
    EXPECT_EQ(m.freeBlockCount(0), before + 1);
    EXPECT_EQ(m.blockState(0, *victim).eraseCount, 1u);
    EXPECT_EQ(m.erases(), 1u);
}

TEST(MappingTest, RetiredBlockNeverReturnsToFreeList)
{
    PageMapping m(params());
    m.retireBlock(0, 5);
    std::uint32_t frees = m.freeBlockCount(0);
    for (std::uint32_t b = 0; b < 8; ++b) {
        if (m.blockState(0, b).isBad) {
            EXPECT_EQ(b, 5u);
        }
    }
    EXPECT_EQ(frees, 7u);
}

TEST(MappingTest, GcThresholds)
{
    MappingParams p = params();
    PageMapping m(p);
    EXPECT_FALSE(m.gcNeeded(0)); // 8 free blocks initially
    EXPECT_TRUE(m.gcSatisfied(0));
}

TEST(MappingTest, PrefillReachesRequestedState)
{
    PageMapping m(params());
    Rng rng(1);
    m.prefill(0.5, 0.2, rng);
    EXPECT_NEAR(m.utilization(), 0.5 * 0.8, 0.1);
    EXPECT_EQ(m.hostWrites(), 0u); // prefill excluded from WAF
}

TEST(MappingTest, WafStartsAtOne)
{
    PageMapping m(params());
    m.allocate(1);
    EXPECT_DOUBLE_EQ(m.waf(), 1.0);
}

TEST(MappingDeathTest, EraseActiveBlockPanics)
{
    PageMapping m(params());
    PhysAddr a = m.allocate(0);
    std::uint32_t unit = m.unitOf(a);
    m.invalidate(0);
    EXPECT_DEATH(m.eraseBlock(unit, a.block), "active");
}

TEST(MappingDeathTest, EraseWithValidPagesPanics)
{
    PageMapping m(params());
    for (Lpn l = 0; l < 8u * m.unitCount(); ++l)
        m.allocate(l);
    auto addr = m.geometry().pageAddr(*m.translate(0));
    std::uint32_t unit = m.unitOf(addr);
    EXPECT_DEATH(m.eraseBlock(unit, addr.block), "valid pages");
}

TEST(MappingDeathTest, PendingGcCopyBlocksErase)
{
    PageMapping m(params());
    // Fill one destination block with uncommitted GC reservations so
    // it is closed (not active) but still has copies in flight.
    PhysAddr dst{};
    for (Lpn l = 0; l < 4; ++l)
        dst = m.allocateInUnit(l, 2);
    EXPECT_DEATH(m.eraseBlock(2, dst.block), "pending");
}

} // namespace
} // namespace dssd
