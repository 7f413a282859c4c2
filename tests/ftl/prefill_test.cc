/**
 * PageMapping::prefill builds its state in bulk; these tests hold it
 * to the per-page reference (referencePrefill, mapping_oracle.hh) bit
 * for bit, and pin prefill's preconditions.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "ftl/mapping.hh"
#include "mapping_oracle.hh"
#include "sim/audit.hh"

namespace dssd
{
namespace
{

/// 8 units of 32 blocks. At 384 pages per block a fill of 0.8 or
/// more spans two of prefill's 64 Ki-LPN tiles.
MappingParams
params(std::uint32_t pages_per_block, const char *alloc)
{
    MappingParams p;
    p.geom.channels = 2;
    p.geom.ways = 2;
    p.geom.diesPerWay = 1;
    p.geom.planesPerDie = 2;
    p.geom.blocksPerPlane = 32;
    p.geom.pagesPerBlock = pages_per_block;
    p.allocPolicy = alloc;
    return p;
}

/** The first observable difference between @p a and @p b, or "". */
std::string
firstDifference(const PageMapping &a, const PageMapping &b)
{
    if (a.allocSeq() != b.allocSeq())
        return "allocSeq";
    if (a.totalValidPages() != b.totalValidPages())
        return "totalValidPages";
    for (Lpn l = 0; l < a.lpnCount(); ++l) {
        if (a.translate(l) != b.translate(l))
            return "translate(" + std::to_string(l) + ")";
    }
    const FlashGeometry &g = a.geometry();
    for (std::uint32_t u = 0; u < a.unitCount(); ++u) {
        std::string at = "unit " + std::to_string(u);
        if (a.freeBlockCount(u) != b.freeBlockCount(u))
            return at + " freeBlockCount";
        if (a.victimIndex(u).buckets != b.victimIndex(u).buckets)
            return at + " victim-index buckets";
        if (a.victimIndex(u).fillOrder != b.victimIndex(u).fillOrder)
            return at + " fill order";
        for (std::uint32_t blk = 0; blk < g.blocksPerPlane; ++blk) {
            std::string where = at + " block " + std::to_string(blk);
            const BlockState &x = a.blockState(u, blk);
            const BlockState &y = b.blockState(u, blk);
            if (std::tie(x.writePtr, x.validCount, x.pending,
                         x.eraseCount, x.isFree, x.isBad,
                         x.lastWriteSeq) !=
                std::tie(y.writePtr, y.validCount, y.pending,
                         y.eraseCount, y.isFree, y.isBad,
                         y.lastWriteSeq)) {
                return where + " BlockState";
            }
            if (a.validLpns(u, blk) != b.validLpns(u, blk))
                return where + " validLpns";
            for (std::uint32_t pg = 0; pg < g.pagesPerBlock; ++pg) {
                if (a.pageValid(u, blk, pg) != b.pageValid(u, blk, pg))
                    return where + " pageValid";
            }
        }
    }
    return "";
}

std::size_t
auditFailures(const PageMapping &m)
{
    Auditor auditor(AuditMode::Report);
    auditor.addCheck("ftl", [&m](AuditReport &r) { m.audit(r); });
    return auditor.run();
}

/**
 * Prefill two fresh mappings from @p p, one in bulk and one by the
 * reference, after @p setup on each; then compare their state, their
 * next allocations and the next draw of their RNGs.
 */
template <typename Setup>
void
expectBulkMatchesReference(const MappingParams &p, double fill,
                           double invalid, Setup setup)
{
    SCOPED_TRACE(testing::Message()
                 << "pagesPerBlock " << p.geom.pagesPerBlock << ", "
                 << p.allocPolicy << ", wearLeveling " << p.wearLeveling
                 << ", fill " << fill << ", invalid " << invalid);
    PageMapping bulk(p);
    PageMapping ref(p);
    setup(bulk);
    setup(ref);
    Rng bulk_rng(7);
    Rng ref_rng(7);
    bulk.prefill(fill, invalid, bulk_rng);
    referencePrefill(ref, fill, invalid, ref_rng);

    EXPECT_EQ(firstDifference(bulk, ref), "");
    EXPECT_EQ(bulk.hostWrites(), 0u);
    EXPECT_EQ(auditFailures(bulk), 0u);
    // The allocation policy's cursor and the free lists show in the
    // next allocations, the RNG's state in its next draw.
    for (Lpn l = 0; l < 2 * bulk.unitCount(); ++l)
        EXPECT_TRUE(bulk.allocate(l) == ref.allocate(l)) << "lpn " << l;
    EXPECT_EQ(bulk_rng.raw()(), ref_rng.raw()());
}

/// Steers the conflict-aware policy around every third unit.
void
markEveryThirdUnitBusy(PageMapping &m)
{
    m.setGcBusyProbe([](std::uint32_t unit) { return unit % 3 == 1; });
}

class PrefillEquivalence
    : public testing::TestWithParam<std::tuple<std::uint32_t, const char *>>
{
};

TEST_P(PrefillEquivalence, BulkMatchesPerPageReference)
{
    auto [pages_per_block, alloc] = GetParam();
    MappingParams p = params(pages_per_block, alloc);
    for (double fill : {0.5, 0.8, 0.85}) {
        for (double invalid : {0.0, 0.3, 1.0})
            expectBulkMatchesReference(p, fill, invalid,
                                       markEveryThirdUnitBusy);
    }
}

TEST_P(PrefillEquivalence, WearLeveling)
{
    auto [pages_per_block, alloc] = GetParam();
    MappingParams p = params(pages_per_block, alloc);
    p.wearLeveling = true;
    expectBulkMatchesReference(p, 0.8, 0.3, markEveryThirdUnitBusy);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, PrefillEquivalence,
    testing::Combine(testing::Values(16u, 64u, 384u),
                     testing::Values("rr", "conflict")));

TEST(PrefillTest, RetiredBlocksMakeAllocationSkipUnits)
{
    // Retired before prefill, as Ssd's spare seeding does: unit 0 keeps
    // 6 blocks and unit 5 keeps 20, so both reach their host reserve
    // early and the policy skips them from then on.
    auto retire = [](PageMapping &m) {
        markEveryThirdUnitBusy(m);
        for (std::uint32_t b = 6; b < 32; ++b)
            m.retireBlock(0, b);
        for (std::uint32_t b = 20; b < 32; ++b)
            m.retireBlock(5, b);
    };
    for (const char *alloc : {"rr", "conflict"}) {
        for (double fill : {0.5, 0.8, 0.85}) {
            PageMapping probe(params(16, alloc));
            retire(probe);
            Rng rng(1);
            probe.prefill(fill, 0.3, rng);
            if (fill > 0.5) {
                EXPECT_FALSE(probe.hostCanAllocateIn(0));
            }
            expectBulkMatchesReference(params(16, alloc), fill, 0.3,
                                       retire);
        }
    }
}

TEST(PrefillTest, EmptyFillChangesNothing)
{
    expectBulkMatchesReference(params(16, "rr"), 0.0, 0.3,
                               [](PageMapping &) {});
}

TEST(PrefillDeathTest, MappingThatTookAWriteIsFatal)
{
    PageMapping m(params(16, "rr"));
    m.allocate(0);
    Rng rng(1);
    EXPECT_DEATH(m.prefill(0.5, 0.3, rng), "prefill needs a mapping");
}

TEST(PrefillDeathTest, GeometryOf2To32PagesIsFatalBeforeAnyTable)
{
    // 2^32 pages in one unit, whose tables would take over 30 GB: this
    // must die at the page-count check, before any of them exists.
    MappingParams p;
    p.geom.channels = 1;
    p.geom.ways = 1;
    p.geom.diesPerWay = 1;
    p.geom.planesPerDie = 1;
    p.geom.blocksPerPlane = 1u << 16;
    p.geom.pagesPerBlock = 1u << 16;
    EXPECT_DEATH(PageMapping m(p), "32-bit tables");
}

} // namespace
} // namespace dssd
