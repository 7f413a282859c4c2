/**
 * Tests for the invariant auditor: the framework itself (check
 * registry, report/abort modes, engine hook) and the subsystem checks'
 * ability to detect seeded corruptions with precise diagnostics.
 */

#include <gtest/gtest.h>

#include <string>

#include "controller/remap.hh"
#include "core/gc.hh"
#include "core/ssd.hh"
#include "sim/audit.hh"

namespace dssd
{
namespace
{

bool
anyViolationContains(const Auditor &a, const std::string &needle)
{
    for (const AuditViolation &v : a.violations()) {
        if (v.detail.find(needle) != std::string::npos)
            return true;
    }
    return false;
}

TEST(AuditorTest, RunsEveryRegisteredCheck)
{
    Auditor a(AuditMode::Report);
    int first = 0;
    int second = 0;
    a.addCheck("first", [&](AuditReport &) { ++first; });
    a.addCheck("second", [&](AuditReport &) { ++second; });
    EXPECT_EQ(a.checkCount(), 2u);
    EXPECT_EQ(a.run(), 0u);
    EXPECT_EQ(a.run(), 0u);
    EXPECT_EQ(first, 2);
    EXPECT_EQ(second, 2);
    EXPECT_EQ(a.runs(), 2u);
}

TEST(AuditorTest, ReportModeAccumulatesViolations)
{
    Auditor a(AuditMode::Report);
    a.addCheck("broken", [](AuditReport &r) {
        r.fail("thing %d is wrong", 1);
        r.fail("thing %d is wrong", 2);
    });
    EXPECT_EQ(a.run(), 2u);
    ASSERT_EQ(a.violations().size(), 2u);
    EXPECT_EQ(a.violations()[0].check, "broken");
    EXPECT_EQ(a.violations()[0].detail, "thing 1 is wrong");
    EXPECT_EQ(a.violations()[1].detail, "thing 2 is wrong");
    a.clearViolations();
    EXPECT_TRUE(a.violations().empty());
}

TEST(AuditorTest, RemovedChecksStopRunning)
{
    Auditor a(AuditMode::Report);
    int calls = 0;
    std::size_t id = a.addCheck("gone", [&](AuditReport &) { ++calls; });
    a.run();
    a.removeCheck(id);
    a.run();
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(a.checkCount(), 0u);
}

TEST(AuditorTest, EngineHookFiresEveryNEvents)
{
    Engine e;
    Auditor a(AuditMode::Report);
    a.addCheck("noop", [](AuditReport &) {});
    a.attach(e, 4);
    for (int i = 0; i < 16; ++i)
        e.schedule(static_cast<Tick>(i + 1), [] {});
    e.run();
    EXPECT_EQ(a.runs(), 4u);
    a.detach();
    for (int i = 0; i < 8; ++i)
        e.schedule(static_cast<Tick>(i + 1), [] {});
    e.run();
    EXPECT_EQ(a.runs(), 4u);
}

TEST(AuditorDeathTest, AbortModePanicsWithCheckNameAndDetail)
{
    Auditor a(AuditMode::Abort);
    a.addCheck("boom", [](AuditReport &r) {
        r.fail("counter went backwards");
    });
    EXPECT_DEATH(a.run(),
                 "invariant audit 'boom' failed.*counter went backwards");
}

//
// Seeded-corruption detection through the real subsystem checks.
//

TEST(AuditCorruptionTest, CorruptedL2pEntryIsDetected)
{
    Engine e;
    Ssd ssd(e, makeConfig(ArchKind::Baseline));
    ssd.prefill(0.5, 0.0);

    Auditor a(AuditMode::Report);
    ssd.registerAudits(a);
    EXPECT_EQ(a.run(), 0u) << "pristine SSD must audit clean";

    // Point lpn 0 one past the last physical page: out of range, but
    // a value the 32-bit L2P table can hold.
    ssd.mapping().debugCorruptL2p(
        0, ssd.mapping().geometry().totalPages());
    EXPECT_GT(a.run(), 0u);
    EXPECT_TRUE(anyViolationContains(a, "L2P bijectivity"));
    EXPECT_TRUE(anyViolationContains(a, "out of range"));
}

TEST(AuditCorruptionTest, CrossLinkedL2pEntriesAreDetected)
{
    Engine e;
    Ssd ssd(e, makeConfig(ArchKind::Baseline));
    ssd.prefill(0.5, 0.0);

    Auditor a(AuditMode::Report);
    ssd.registerAudits(a);

    // Alias lpn 0 onto lpn 1's physical page: P2L can only name one
    // of them, so bijectivity must flag the other.
    ssd.mapping().debugCorruptL2p(0, *ssd.mapping().translate(1));
    EXPECT_GT(a.run(), 0u);
    EXPECT_TRUE(anyViolationContains(a, "bijectivity"));
}

TEST(AuditCorruptionTest, SrtDoubleTargetIsDetected)
{
    SuperblockRemapTable srt(8);
    RecycleBlockTable rbt;
    srt.insert(1, 7);
    srt.insert(2, 7); // two sources claiming replacement block 7

    Auditor a(AuditMode::Report);
    a.addCheck("remap", [&](AuditReport &r) {
        auditRemapTables(srt, rbt, r);
    });
    EXPECT_GT(a.run(), 0u);
    EXPECT_TRUE(anyViolationContains(a, "SRT injectivity"));
}

TEST(AuditCorruptionTest, SrtEntryInRbtIsDetected)
{
    SuperblockRemapTable srt(8);
    RecycleBlockTable rbt;
    srt.insert(1, 7);
    rbt.add(7); // replacement block also sitting in the recycle bin

    Auditor a(AuditMode::Report);
    a.addCheck("remap", [&](AuditReport &r) {
        auditRemapTables(srt, rbt, r);
    });
    EXPECT_GT(a.run(), 0u);
    EXPECT_TRUE(anyViolationContains(a, "sits in the RBT"));
}

TEST(AuditCorruptionTest, DroppedNocCreditIsDetected)
{
    Engine e;
    Ssd ssd(e, makeConfig(ArchKind::DSSDNoc));
    ASSERT_NE(ssd.noc(), nullptr);

    Auditor a(AuditMode::Report);
    ssd.registerAudits(a);
    EXPECT_EQ(a.run(), 0u) << "idle fNoC must audit clean";

    ssd.noc()->debugDropCredit(0, 0);
    EXPECT_GT(a.run(), 0u);
    EXPECT_TRUE(anyViolationContains(a, "credit leak"));
}

//
// A real timed run audits clean at event-boundary granularity.
//

TEST(AuditEndToEndTest, DecoupledRunWithGcAuditsClean)
{
    Engine e;
    Ssd ssd(e, makeConfig(ArchKind::DSSDNoc));
    ssd.prefill(0.8, 0.4);

    Auditor a(AuditMode::Report);
    ssd.registerAudits(a);
    a.attach(e, 512);

    // Host writes racing a forced GC round exercises the mapping, the
    // write buffer, global copyback, and the fNoC together.
    bool gc_done = false;
    ssd.gc().forceAll(1, [&] { gc_done = true; });
    for (Lpn lpn = 0; lpn < 64; ++lpn)
        ssd.writePage(lpn, [] {});
    e.run();

    EXPECT_TRUE(gc_done);
    EXPECT_GT(a.runs(), 0u);
    EXPECT_TRUE(a.violations().empty())
        << a.violations().size() << " violation(s), first: "
        << a.violations().front().detail;
}

TEST(AuditWiringTest, AutoAttachMatchesBuildConfiguration)
{
    Engine e;
    Ssd ssd(e, makeConfig(ArchKind::DSSD));
#ifdef DSSD_AUDIT
    ASSERT_NE(ssd.auditor(), nullptr);
    EXPECT_EQ(ssd.auditor()->mode(), AuditMode::Abort);
    EXPECT_GT(ssd.auditor()->checkCount(), 0u);
#else
    EXPECT_EQ(ssd.auditor(), nullptr);
#endif
}

} // namespace
} // namespace dssd
