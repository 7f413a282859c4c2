/**
 * Unit tests for the pluggable GC victim-selection and allocation
 * policies (ftl/policy.hh). Every name in the factory registry is
 * exercised here — dssd_lint rule R7 cross-checks the registry against
 * this fixture.
 */

#include <gtest/gtest.h>

#include <vector>

#include "ftl/mapping.hh"
#include "ftl/policy.hh"
#include "sim/audit.hh"
#include "sim/registry.hh"

namespace dssd
{
namespace
{

MappingParams
params(const char *victim = "greedy", const char *alloc = "rr")
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
    p.victimPolicy = victim;
    p.allocPolicy = alloc;
    return p;
}

/// Write `n` pages then rewrite every `stride`-th of them, leaving a
/// mix of partially-valid blocks behind.
void
churn(PageMapping &m, Lpn n, Lpn stride)
{
    for (Lpn l = 0; l < n; ++l)
        m.allocate(l);
    for (Lpn l = 0; l < n; l += stride)
        m.allocate(l);
}

//
// Factory registry
//

TEST(PolicyFactoryTest, EveryRegisteredVictimPolicyConstructs)
{
    PolicyConfig cfg;
    for (const std::string &name : victimPolicyNames()) {
        auto p = makeVictimPolicy(name, cfg);
        ASSERT_NE(p, nullptr) << name;
        EXPECT_EQ(p->name(), name);
        EXPECT_TRUE(isVictimPolicy(name));
    }
}

TEST(PolicyFactoryTest, EveryRegisteredAllocPolicyConstructs)
{
    PolicyConfig cfg;
    for (const std::string &name : allocPolicyNames()) {
        auto p = makeAllocPolicy(name, cfg);
        ASSERT_NE(p, nullptr) << name;
        EXPECT_EQ(p->name(), name);
        EXPECT_TRUE(isAllocPolicy(name));
    }
}

TEST(PolicyFactoryTest, KnownNamesAreRegistered)
{
    // The concrete zoo, by name: greedy / costbenefit / windowed
    // victims, rr / conflict allocators.
    EXPECT_TRUE(isVictimPolicy("greedy"));
    EXPECT_TRUE(isVictimPolicy("costbenefit"));
    EXPECT_TRUE(isVictimPolicy("windowed"));
    EXPECT_TRUE(isAllocPolicy("rr"));
    EXPECT_TRUE(isAllocPolicy("conflict"));
    EXPECT_FALSE(isVictimPolicy("nope"));
    EXPECT_FALSE(isAllocPolicy("nope"));
}

TEST(PolicyFactoryDeathTest, UnknownPolicyNameIsFatal)
{
    PolicyConfig cfg;
    EXPECT_DEATH(makeVictimPolicy("bogus", cfg), "unknown victim");
    EXPECT_DEATH(makeAllocPolicy("bogus", cfg), "unknown alloc");
}

//
// Greedy: bucketed index vs the reference linear scan
//

TEST(GreedyVictimTest, MatchesReferenceLinearScan)
{
    PageMapping m(params("greedy"));
    churn(m, m.lpnCount() / 2, 3);
    for (std::uint32_t unit = 0; unit < m.unitCount(); ++unit) {
        // Reference: lowest valid count, lowest block id on ties,
        // over victim-eligible blocks that free at least one page.
        std::optional<std::uint32_t> ref;
        std::uint32_t ref_valid = m.geometry().pagesPerBlock;
        for (std::uint32_t b = 0; b < m.geometry().blocksPerPlane;
             ++b) {
            if (!m.victimEligible(unit, b))
                continue;
            std::uint32_t v = m.blockState(unit, b).validCount;
            if (v < ref_valid) {
                ref = b;
                ref_valid = v;
            }
        }
        EXPECT_EQ(m.pickVictim(unit), ref) << "unit " << unit;
    }
}

TEST(GreedyVictimTest, PickSequenceIsStableAcrossIdenticalHistories)
{
    auto run = [] {
        PageMapping m(params("greedy"));
        churn(m, m.lpnCount() / 2, 3);
        std::vector<std::uint32_t> picks;
        for (std::uint32_t unit = 0; unit < m.unitCount(); ++unit) {
            auto v = m.pickVictim(unit);
            picks.push_back(v ? *v : ~0u);
        }
        return picks;
    };
    EXPECT_EQ(run(), run());
}

//
// Cost-benefit: age breaks the greedy tie
//

TEST(CostBenefitVictimTest, PrefersTheOlderBlockAtEqualValidCount)
{
    PageMapping m(params("costbenefit"));
    churn(m, m.lpnCount() / 2, 2);
    std::uint32_t unit = 0;
    auto pick = m.pickVictim(unit);
    ASSERT_TRUE(pick.has_value());
    // No eligible block with the same valid count may be older than
    // the chosen victim (equal-cost candidates resolve by age).
    std::uint32_t pick_valid = m.blockState(unit, *pick).validCount;
    std::uint64_t pick_seq = m.blockState(unit, *pick).lastWriteSeq;
    for (std::uint32_t b = 0; b < m.geometry().blocksPerPlane; ++b) {
        if (b == *pick || !m.victimEligible(unit, b))
            continue;
        if (m.blockState(unit, b).validCount != pick_valid)
            continue;
        EXPECT_GE(m.blockState(unit, b).lastWriteSeq, pick_seq)
            << "block " << b;
    }
}

TEST(CostBenefitVictimTest, NeverPicksAFullyValidBlockWhenAvoidable)
{
    PageMapping m(params("costbenefit"));
    churn(m, m.lpnCount() / 2, 3);
    for (std::uint32_t unit = 0; unit < m.unitCount(); ++unit) {
        auto pick = m.pickVictim(unit);
        if (!pick)
            continue;
        EXPECT_LT(m.blockState(unit, *pick).validCount,
                  m.geometry().pagesPerBlock)
            << "unit " << unit;
    }
}

//
// Windowed greedy: window restriction + livelock escape
//

TEST(WindowedVictimTest, PicksMinValidWithinTheWindow)
{
    MappingParams p = params("windowed");
    p.victimWindow = 2;
    PageMapping m(p);
    churn(m, m.lpnCount() / 2, 3);
    std::uint32_t unit = 0;
    const VictimIndex &ix = m.victimIndex(unit);
    // Reference: min valid over the first two eligible fill-order
    // blocks, ties to the earlier-filled one.
    std::optional<std::uint32_t> ref;
    std::uint32_t ref_valid = m.geometry().pagesPerBlock;
    std::uint32_t considered = 0;
    for (std::uint32_t b : ix.fillOrder) {
        if (!m.victimEligible(unit, b))
            continue;
        if (++considered > 2)
            break;
        std::uint32_t v = m.blockState(unit, b).validCount;
        if (v < ref_valid) {
            ref = b;
            ref_valid = v;
        }
    }
    ASSERT_TRUE(ref.has_value());
    EXPECT_EQ(m.pickVictim(unit), ref);
}

TEST(WindowedVictimTest, EscapesAnAllValidWindow)
{
    // Sequential fill with no rewrites: every full block is entirely
    // valid, so the window [0, W) frees nothing. Then invalidate one
    // page far past the window; windowed must widen to reach it
    // instead of returning a zero-reclaim victim (GC livelock).
    MappingParams p = params("windowed");
    p.victimWindow = 1;
    PageMapping m(p);
    for (Lpn l = 0; l < m.lpnCount() / 2; ++l)
        m.allocate(l);
    std::uint32_t unit = 0;
    const VictimIndex &ix = m.victimIndex(unit);
    ASSERT_GT(ix.fillOrder.size(), 2u);
    std::uint32_t late = ix.fillOrder.back();
    // Invalidate one page of the youngest full block.
    bool invalidated = false;
    for (Lpn l = 0; l < m.lpnCount() / 2 && !invalidated; ++l) {
        auto ppn = m.translate(l);
        if (!ppn)
            continue;
        PhysAddr a = m.geometry().pageAddr(*ppn);
        if (m.unitOf(a) == unit && a.block == late) {
            m.invalidate(l);
            invalidated = true;
        }
    }
    ASSERT_TRUE(invalidated);
    auto pick = m.pickVictim(unit);
    ASSERT_TRUE(pick.has_value());
    EXPECT_EQ(*pick, late);
}

//
// Allocation policies
//

TEST(RoundRobinAllocTest, StripesUnitsLikeTheHistoricalCursor)
{
    PageMapping m(params("greedy", "rr"));
    std::vector<std::uint32_t> units;
    for (Lpn l = 0; l < m.unitCount() * 2; ++l) {
        PhysAddr a = m.allocate(l);
        units.push_back(m.unitOf(a));
    }
    for (std::size_t i = 0; i < units.size(); ++i)
        EXPECT_EQ(units[i], i % m.unitCount()) << "write " << i;
}

TEST(ConflictAwareAllocTest, SteersAroundGcBusyUnits)
{
    PageMapping m(params("greedy", "conflict"));
    std::uint32_t busy = 0;
    m.setGcBusyProbe(
        [&busy](std::uint32_t unit) { return unit == busy; });
    for (Lpn l = 0; l < 16; ++l) {
        PhysAddr a = m.allocate(l);
        EXPECT_NE(m.unitOf(a), busy) << "write " << l;
    }
}

TEST(ConflictAwareAllocTest, FallsBackWhenEveryUnitIsBusy)
{
    PageMapping m(params("greedy", "conflict"));
    m.setGcBusyProbe([](std::uint32_t) { return true; });
    // All units report GC-busy: allocation must still make progress.
    PhysAddr a = m.allocate(0);
    EXPECT_TRUE(m.translate(0).has_value());
    (void)a;

    StatRegistry reg;
    m.registerPolicyStats(reg, "p");
    EXPECT_GE(reg.value("p.alloc.conflict.conflicted"), 1.0);
}

//
// Policy-tagged stats
//

TEST(PolicyStatsTest, VictimPicksAreCountedUnderThePolicyName)
{
    PageMapping m(params("costbenefit"));
    churn(m, m.lpnCount() / 2, 3);
    StatRegistry reg;
    m.registerPolicyStats(reg, "p");
    ASSERT_TRUE(reg.has("p.victim.costbenefit.picks"));
    EXPECT_DOUBLE_EQ(reg.value("p.victim.costbenefit.picks"), 0.0);
    m.pickVictim(0);
    EXPECT_DOUBLE_EQ(reg.value("p.victim.costbenefit.picks"), 1.0);
}

//
// Index consistency under every victim policy
//

TEST(VictimIndexTest, AuditPassesAfterChurnUnderEveryPolicy)
{
    for (const std::string &name : victimPolicyNames()) {
        MappingParams p = params(name.c_str());
        PageMapping m(p);
        churn(m, m.lpnCount() / 2, 3);
        // Drain one victim per unit the way GC would.
        for (std::uint32_t unit = 0; unit < m.unitCount(); ++unit) {
            auto v = m.pickVictim(unit);
            if (!v)
                continue;
            for (Lpn l : m.validLpns(unit, *v)) {
                PhysAddr dst = m.allocateInUnit(l, unit);
                m.commitRelocation(l, dst);
            }
            if (m.validLpns(unit, *v).empty())
                m.eraseBlock(unit, *v);
        }
        Auditor auditor(AuditMode::Report);
        auditor.addCheck("ftl",
                         [&m](AuditReport &rep) { m.audit(rep); });
        EXPECT_EQ(auditor.run(), 0u) << name;
    }
}

} // namespace
} // namespace dssd
