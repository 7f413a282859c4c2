/**
 * Tests for the fault-injection subsystem: sampled distributions, the
 * ECC recovery ladder, fNoC CRC retransmission, copyback abort +
 * front-end fallback, runtime block retirement/repair, and the
 * determinism / zero-cost-when-disabled guarantees.
 */

#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "controller/decoupled.hh"
#include "core/dsm.hh"
#include "core/gc.hh"
#include "core/ssd.hh"
#include "fault/fault.hh"
#include "ftl/superblock.hh"
#include "noc/network.hh"

namespace dssd
{
namespace
{

FlashGeometry
smallGeom()
{
    FlashGeometry g;
    g.channels = 4;
    g.ways = 2;
    g.diesPerWay = 1;
    g.planesPerDie = 2;
    g.blocksPerPlane = 8;
    g.pagesPerBlock = 16;
    g.pageBytes = 4 * kKiB;
    return g;
}

//
// FaultModel sampling
//

TEST(FaultModelTest, FixedSeedReproducesTheExactDrawSequence)
{
    FaultParams p;
    p.enabled = true;
    p.seed = 42;
    p.rberScale = 4.0;
    FaultModel a(smallGeom(), p);
    FaultModel b(smallGeom(), p);
    PhysAddr addr{};
    for (int i = 0; i < 5000; ++i) {
        ReadOutcome oa = a.readOutcome(addr, i);
        ReadOutcome ob = b.readOutcome(addr, i);
        ASSERT_EQ(oa.severity, ob.severity) << "draw " << i;
        ASSERT_EQ(oa.retries, ob.retries) << "draw " << i;
    }
    EXPECT_EQ(a.readsClean(), b.readsClean());
    EXPECT_EQ(a.readRetryRounds(), b.readRetryRounds());
    EXPECT_EQ(a.readsSoft(), b.readsSoft());
    EXPECT_EQ(a.readsUncorrectable(), b.readsUncorrectable());
}

TEST(FaultModelTest, OutcomeRatesTrackTheConfiguredProbabilities)
{
    FaultParams p;
    p.enabled = true;
    p.seed = 7;
    FaultModel m(smallGeom(), p);
    PhysAddr addr{};
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        m.readOutcome(addr, 0);
    // Fresh block at zero retention: stress == 1, so the tail is
    // retry 2%, soft 0.4%, uncorrectable 0.05% of draws.
    double clean = static_cast<double>(m.readsClean()) / n;
    EXPECT_GT(clean, 0.96);
    EXPECT_LT(clean, 0.99);
    EXPECT_GT(m.readRetryRounds(), 0u);
    EXPECT_GT(m.readsSoft(), 20u);
    EXPECT_LT(m.readsSoft(), 200u);
    EXPECT_LT(m.readsUncorrectable(), 40u);
}

TEST(FaultModelTest, WearAndRetentionRaiseTheErrorRate)
{
    FaultParams p;
    p.enabled = true;
    p.seed = 7;
    FaultModel fresh(smallGeom(), p);
    FaultModel worn(smallGeom(), p);
    PhysAddr addr{};
    // 200 P/E cycles: stress = 1 + 0.02 * 200 = 5.
    for (int i = 0; i < 200; ++i)
        worn.notifyErase(addr);
    EXPECT_EQ(worn.peCount(addr), 200u);
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        fresh.readOutcome(addr, 0);
        worn.readOutcome(addr, 0);
    }
    EXPECT_LT(worn.readsClean(), fresh.readsClean());
    EXPECT_GT(worn.readsSoft(), fresh.readsSoft());
}

TEST(FaultModelTest, ChannelStreamsAreIndependent)
{
    FaultParams p;
    p.enabled = true;
    p.seed = 11;
    p.rberScale = 4.0;
    FaultModel a(smallGeom(), p);
    FaultModel b(smallGeom(), p);
    PhysAddr ch0{}, ch1{};
    ch1.channel = 1;
    // Interleave draws on channel 0 in model a only; channel 1's
    // sequence must be unperturbed.
    std::vector<ReadSeverity> seq_a, seq_b;
    for (int i = 0; i < 1000; ++i) {
        a.readOutcome(ch0, i);
        a.readOutcome(ch0, i);
        seq_a.push_back(a.readOutcome(ch1, i).severity);
        seq_b.push_back(b.readOutcome(ch1, i).severity);
    }
    EXPECT_EQ(seq_a, seq_b);
}

TEST(FaultModelTest, ForcedFailuresAndBlockFaultEscalation)
{
    FaultParams p;
    p.enabled = true;
    p.programFailProb = 0.0;
    p.eraseFailProb = 0.0;
    FaultModel m(smallGeom(), p);
    PhysAddr addr{};
    EXPECT_FALSE(m.programFails(addr));
    EXPECT_FALSE(m.eraseFails(addr));
    m.debugForceProgramFail();
    m.debugForceEraseFail();
    EXPECT_TRUE(m.programFails(addr));
    EXPECT_TRUE(m.eraseFails(addr));
    EXPECT_EQ(m.programFailures(), 1u);
    EXPECT_EQ(m.eraseFailures(), 1u);

    PhysAddr seen{};
    FaultKind kind = FaultKind::UncorrectableRead;
    int calls = 0;
    m.setSink([&](const PhysAddr &a, FaultKind k) {
        seen = a;
        kind = k;
        ++calls;
    });
    addr.block = 3;
    m.reportBlockFault(addr, FaultKind::ProgramFail);
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(seen.block, 3u);
    EXPECT_EQ(kind, FaultKind::ProgramFail);
    EXPECT_EQ(m.blockFaults(), 1u);
}

//
// Recovery ladder
//

struct LadderRig
{
    Engine engine;
    EccEngine ecc{engine, "ecc", EccParams{}};
    FaultParams fp;
    std::unique_ptr<FaultModel> fault;
    unsigned rereads = 0;
    ReadSeverity result = ReadSeverity::Clean;
    Tick doneAt = 0;

    LadderRig()
    {
        fp.enabled = true;
        fault = std::make_unique<FaultModel>(smallGeom(), fp);
    }

    /** Run the ladder over one page; re-reads take 100 ticks each. */
    void
    run(FaultModel *fm)
    {
        PhysAddr addr{};
        runReadRecovery(
            engine, ecc, fm, addr, 4 * kKiB, tagIo, nullptr,
            [this](Engine::Callback cb) {
                ++rereads;
                engine.schedule(100, std::move(cb));
            },
            [this](ReadSeverity sev) {
                result = sev;
                doneAt = engine.now();
            });
        engine.run();
    }
};

TEST(RecoveryLadderTest, CleanIsOneDecode)
{
    LadderRig rig;
    rig.fault->debugForceReadOutcome(ReadSeverity::Clean, 0);
    rig.run(rig.fault.get());
    EXPECT_EQ(rig.result, ReadSeverity::Clean);
    EXPECT_EQ(rig.rereads, 0u);
    EXPECT_EQ(rig.ecc.cleanDecodes(), 1u);
    EXPECT_EQ(rig.ecc.retryRounds(), 0u);
    EXPECT_EQ(rig.ecc.softDecodes(), 0u);
}

TEST(RecoveryLadderTest, NullFaultModelMatchesCleanTiming)
{
    LadderRig none;
    none.run(nullptr);
    LadderRig clean;
    clean.fault->debugForceReadOutcome(ReadSeverity::Clean, 0);
    clean.run(clean.fault.get());
    EXPECT_EQ(none.result, ReadSeverity::Clean);
    EXPECT_EQ(none.doneAt, clean.doneAt);
    EXPECT_EQ(none.rereads, 0u);
}

TEST(RecoveryLadderTest, RetryRunsTheRequestedRounds)
{
    LadderRig rig;
    rig.fault->debugForceReadOutcome(ReadSeverity::Retry, 2);
    rig.run(rig.fault.get());
    EXPECT_EQ(rig.result, ReadSeverity::Retry);
    EXPECT_EQ(rig.rereads, 2u);
    EXPECT_EQ(rig.ecc.retryRounds(), 2u);
    EXPECT_EQ(rig.ecc.softDecodes(), 0u);
    EXPECT_EQ(rig.ecc.uncorrectable(), 0u);
}

TEST(RecoveryLadderTest, SoftExhaustsRetriesThenSlowDecodes)
{
    LadderRig rig;
    rig.fault->debugForceReadOutcome(ReadSeverity::Soft, 3);
    rig.run(rig.fault.get());
    EXPECT_EQ(rig.result, ReadSeverity::Soft);
    EXPECT_EQ(rig.rereads, 3u);
    EXPECT_EQ(rig.ecc.retryRounds(), 3u);
    EXPECT_EQ(rig.ecc.softDecodes(), 1u);
    EXPECT_EQ(rig.ecc.uncorrectable(), 0u);
}

TEST(RecoveryLadderTest, UncorrectableChargesTheWholeLadder)
{
    LadderRig rig;
    rig.fault->debugForceReadOutcome(ReadSeverity::Uncorrectable, 3);
    rig.run(rig.fault.get());
    EXPECT_EQ(rig.result, ReadSeverity::Uncorrectable);
    EXPECT_EQ(rig.rereads, 3u);
    EXPECT_EQ(rig.ecc.uncorrectable(), 1u);
    EXPECT_EQ(rig.ecc.softDecodes(), 1u); // the failed soft pass ran
}

TEST(RecoveryLadderTest, EscalationCostsStrictlyIncrease)
{
    Tick cost[4];
    ReadSeverity sevs[] = {ReadSeverity::Clean, ReadSeverity::Retry,
                           ReadSeverity::Soft,
                           ReadSeverity::Uncorrectable};
    unsigned retries[] = {0, 1, 1, 1};
    for (int i = 0; i < 4; ++i) {
        LadderRig rig;
        rig.fault->debugForceReadOutcome(sevs[i], retries[i]);
        rig.run(rig.fault.get());
        cost[i] = rig.doneAt;
    }
    EXPECT_LT(cost[0], cost[1]); // retry adds a re-read + decode
    EXPECT_LT(cost[1], cost[2]); // soft decode is slower still
    // Uncorrectable charges the same failed ladder as soft.
    EXPECT_EQ(cost[2], cost[3]);
}

TEST(RecoveryLadderTest, EccOccupancyGaugesTrackThePipeline)
{
    Engine e;
    EccEngine ecc(e, "ecc", EccParams{});
    EXPECT_EQ(ecc.inFlight(), 0u);
    ecc.process(4 * kKiB, tagIo, [] {});
    ecc.process(4 * kKiB, tagIo, [] {});
    EXPECT_EQ(ecc.inFlight(), 2u);
    EXPECT_GT(ecc.queueDelay(), 0u);
    e.run();
    EXPECT_EQ(ecc.inFlight(), 0u);
    EXPECT_EQ(ecc.maxInFlight(), 2u);
    EXPECT_EQ(ecc.queueDelay(), 0u);
}

//
// fNoC CRC retransmission
//

NocParams
nocParams()
{
    NocParams p;
    p.linkBandwidth = 1.0;
    p.hopLatency = 10;
    p.bufferPackets = 4;
    p.headerBytes = 0;
    return p;
}

TEST(NocFaultTest, CorruptedPacketRetransmitsAndStillDelivers)
{
    Engine clean_e;
    NocNetwork clean(clean_e, std::make_unique<Mesh1D>(4), nocParams());
    Tick clean_done = 0;
    clean.send(0, 3, 100, tagGc, [&] { clean_done = clean_e.now(); });
    clean_e.run();

    Engine e;
    NocNetwork net(e, std::make_unique<Mesh1D>(4), nocParams());
    net.debugCorruptNext();
    Tick done = 0;
    net.send(0, 3, 100, tagGc, [&] { done = e.now(); });
    e.run();

    EXPECT_EQ(net.packetsDelivered(), 1u);
    EXPECT_EQ(net.crcDrops(), 1u);
    EXPECT_EQ(net.retransmits(), 1u);
    EXPECT_EQ(net.packetsInFlight(), 0u);
    // NACK delay plus a full re-traversal.
    EXPECT_GE(done, clean_done + usToTicks(2) + (clean_done - 0) / 2);
}

TEST(NocFaultTest, RetransmitBurstConservesPacketsAndCredits)
{
    Engine e;
    NocParams p = nocParams();
    p.bufferPackets = 1; // tightest credit budget
    NocNetwork net(e, std::make_unique<Ring>(8), p);
    for (int i = 0; i < 6; ++i)
        net.debugCorruptNext();
    unsigned delivered = 0;
    for (unsigned i = 0; i < 32; ++i) {
        net.send(i % 8, (i * 5 + 3) % 8, 512, tagGc,
                 [&] { ++delivered; });
    }
    e.run();
    EXPECT_EQ(delivered, 32u);
    EXPECT_EQ(net.packetsDelivered(), 32u);
    EXPECT_EQ(net.crcDrops(), 6u);
    EXPECT_EQ(net.retransmits(), 6u);
    EXPECT_EQ(net.packetsInFlight(), 0u);
}

TEST(NocFaultTest, CrcProbabilityDrawsFromTheDedicatedStream)
{
    FaultParams fp;
    fp.enabled = true;
    fp.nocCrcProb = 0.2;
    fp.seed = 3;
    FaultModel fm(smallGeom(), fp);
    Engine e;
    NocNetwork net(e, std::make_unique<Mesh1D>(4), nocParams());
    net.setFaultModel(&fm);
    unsigned delivered = 0;
    for (unsigned i = 0; i < 50; ++i)
        net.send(0, 3, 256, tagGc, [&] { ++delivered; });
    e.run();
    EXPECT_EQ(delivered, 50u);
    EXPECT_GT(net.crcDrops(), 0u);
    EXPECT_EQ(net.crcDrops(), net.retransmits());
    EXPECT_EQ(net.crcDrops(), fm.packetsCorrupted());
    EXPECT_EQ(net.packetsInFlight(), 0u);
}

//
// Copyback abort + front-end fallback
//

TEST(CopybackFaultTest, UncorrectablePageAbortsAndFallsBack)
{
    Engine engine;
    FlashGeometry g = smallGeom();
    ChannelParams cp;
    cp.busBandwidth = 1.0;
    FlashChannel ch(engine, g, ullTiming(), 0, cp);
    DecoupledParams dp;
    DecoupledController dc(engine, ch, dp);

    FaultParams fp;
    fp.enabled = true;
    FaultModel fm(g, fp);
    dc.setFaultModel(&fm);
    unsigned fallbacks = 0;
    Tick fallback_at = 0;
    dc.setCopybackFallback([&](const PhysAddr &, const PhysAddr &, int,
                               LatencyBreakdown *, Engine::Callback done) {
        ++fallbacks;
        fallback_at = engine.now();
        engine.schedule(500, std::move(done));
    });

    fm.debugForceReadOutcome(ReadSeverity::Uncorrectable, 0);
    PhysAddr src{}, dst{};
    dst.block = 3;
    bool done = false;
    dc.globalCopyback(src, dst, nullptr, tagGc, [&] { done = true; });
    engine.run();

    EXPECT_TRUE(done);
    EXPECT_EQ(fallbacks, 1u);
    EXPECT_GT(fallback_at, 0u);
    EXPECT_EQ(dc.copybacksAborted(), 1u);
    EXPECT_EQ(dc.copybacksCompleted(), 1u);
    EXPECT_EQ(dc.copybacksInFlight(), 0u);
    // The fallback completion still walks the remaining stages so the
    // cumulative stage algebra holds.
    EXPECT_EQ(dc.stageCount(CopybackStage::RE), 1u);
    EXPECT_EQ(dc.stageCount(CopybackStage::W), 1u);
    // The unrecoverable source block was escalated.
    EXPECT_EQ(fm.blockFaults(), 1u);
}

TEST(CopybackFaultTest, CleanCopybackIsUntouchedByAnIdleFaultModel)
{
    auto run = [](FaultModel *fm) {
        Engine engine;
        FlashGeometry g = smallGeom();
        ChannelParams cp;
        cp.busBandwidth = 1.0;
        FlashChannel ch(engine, g, ullTiming(), 0, cp);
        DecoupledParams dp;
        DecoupledController dc(engine, ch, dp);
        dc.setFaultModel(fm);
        PhysAddr src{}, dst{};
        dst.block = 3;
        dc.globalCopyback(src, dst, nullptr, tagGc, [] {});
        engine.run();
        return engine.now();
    };
    FaultParams fp;
    fp.enabled = true;
    fp.readRetryProb = 0.0;
    fp.readSoftProb = 0.0;
    fp.readUncorrProb = 0.0;
    FlashGeometry g = smallGeom();
    FaultModel idle(g, fp);
    EXPECT_EQ(run(nullptr), run(&idle));
}

//
// FTL retirement
//

TEST(SuperblockTest, RetireSuperblockIsIdempotent)
{
    FlashGeometry g = smallGeom();
    SuperblockMapping map(g);
    std::uint32_t free0 = map.freeSuperblocks();
    map.retireSuperblock(2);
    EXPECT_EQ(map.deadSuperblocks(), 1u);
    EXPECT_EQ(map.state(2), SuperblockState::Dead);
    EXPECT_EQ(map.freeSuperblocks(), free0 - 1);
    // A second retirement (e.g. a fault escalating on a block of an
    // already-dead group) must not double-count.
    map.retireSuperblock(2);
    EXPECT_EQ(map.deadSuperblocks(), 1u);
    EXPECT_EQ(map.freeSuperblocks(), free0 - 1);
    EXPECT_EQ(map.state(2), SuperblockState::Dead);
}

//
// Ssd-level fault handling
//

SsdConfig
faultSsdConfig(ArchKind arch)
{
    SsdConfig c = makeConfig(arch);
    c.geom.channels = 4;
    c.geom.ways = 2;
    c.geom.diesPerWay = 1;
    c.geom.planesPerDie = 2;
    c.geom.blocksPerPlane = 16;
    c.geom.pagesPerBlock = 8;
    // Tiny write buffer: host writes overflow it immediately, so the
    // flusher programs the flash within the test window.
    c.writeBuffer.capacityPages = 4;
    c.fault.enabled = true;
    // No random faults; tests force the exact failures they need.
    c.fault.readRetryProb = 0.0;
    c.fault.readSoftProb = 0.0;
    c.fault.readUncorrProb = 0.0;
    c.fault.programFailProb = 0.0;
    c.fault.eraseFailProb = 0.0;
    return c;
}

TEST(SsdFaultTest, ForcedProgramFailRepairsViaRbtOnDecoupled)
{
    Engine e;
    SsdConfig c = faultSsdConfig(ArchKind::DSSDNoc);
    Ssd ssd(e, c);
    ASSERT_NE(ssd.faultModel(), nullptr);
    ssd.prefill(0.5, 0.2);

    std::size_t rbt0 = 0;
    for (unsigned ch = 0; ch < c.geom.channels; ++ch)
        rbt0 += ssd.decoupledController(ch)->rbt().size();
    EXPECT_EQ(rbt0, c.geom.channels * c.fault.rbtSparesPerChannel);

    ssd.faultModel()->debugForceProgramFail();
    unsigned done = 0;
    for (Lpn l = 0; l < 32; ++l)
        ssd.writePage(l, [&] { ++done; });
    e.run();

    EXPECT_EQ(done, 32u);
    EXPECT_EQ(ssd.faultModel()->programFailures(), 1u);
    EXPECT_EQ(ssd.faultModel()->blockFaults(), 1u);
    // The faulted block was remapped to an RBT spare in hardware.
    std::size_t remaps = 0, rbt1 = 0;
    for (unsigned ch = 0; ch < c.geom.channels; ++ch) {
        remaps += ssd.decoupledController(ch)->srt().activeEntries();
        rbt1 += ssd.decoupledController(ch)->rbt().size();
    }
    EXPECT_EQ(remaps, 1u);
    EXPECT_EQ(rbt1, rbt0 - 1);
}

TEST(SsdFaultTest, ForcedProgramFailRetiresBlockOnBaseline)
{
    Engine e;
    SsdConfig c = faultSsdConfig(ArchKind::Baseline);
    Ssd ssd(e, c);
    ASSERT_NE(ssd.faultModel(), nullptr);
    ssd.prefill(0.5, 0.2);

    ssd.faultModel()->debugForceProgramFail();
    unsigned done = 0;
    for (Lpn l = 0; l < 32; ++l)
        ssd.writePage(l, [&] { ++done; });
    e.run();

    EXPECT_EQ(done, 32u);
    EXPECT_EQ(ssd.faultModel()->blockFaults(), 1u);
    // Exactly one block went bad in the FTL; its pages were relocated.
    unsigned bad = 0;
    PageMapping &map = ssd.mapping();
    for (std::uint32_t u = 0; u < map.unitCount(); ++u) {
        for (std::uint32_t b = 0; b < c.geom.blocksPerPlane; ++b)
            bad += map.blockState(u, b).isBad ? 1 : 0;
    }
    EXPECT_EQ(bad, 1u);
}

TEST(SsdFaultTest, SameFaultSeedIsBitwiseDeterministic)
{
    auto run = [] {
        Engine e;
        SsdConfig c = faultSsdConfig(ArchKind::DSSDNoc);
        // Real probabilities, cranked up so faults actually land.
        c.fault = FaultParams{};
        c.fault.enabled = true;
        c.fault.seed = 123;
        c.fault.rberScale = 8.0;
        Ssd ssd(e, c);
        ssd.prefill(0.6, 0.3);
        unsigned done = 0;
        for (Lpn l = 0; l < 64; ++l) {
            ssd.readPage(l, [&] { ++done; });
            ssd.writePage(l + 64, [&] { ++done; });
        }
        ssd.gc().forceAll(2, [] {});
        e.run();
        const FaultModel &f = *ssd.faultModel();
        return std::make_tuple(e.now(), done, f.readsClean(),
                               f.readRetryRounds(), f.readsSoft(),
                               f.readsUncorrectable(), f.blockFaults());
    };
    auto a = run();
    auto b = run();
    EXPECT_EQ(a, b);
    EXPECT_GT(std::get<3>(a), 0u); // the ladder actually ran
}

TEST(SsdFaultTest, DisabledFaultsMatchEnabledZeroProbabilityTiming)
{
    auto run = [](bool enabled) {
        Engine e;
        SsdConfig c = faultSsdConfig(ArchKind::DSSDNoc);
        c.fault.enabled = enabled;
        c.fault.rbtSparesPerChannel = 0; // identical FTL visibility
        Ssd ssd(e, c);
        ssd.prefill(0.5, 0.2);
        unsigned done = 0;
        for (Lpn l = 0; l < 32; ++l) {
            ssd.readPage(l, [&] { ++done; });
            ssd.writePage(l + 32, [&] { ++done; });
        }
        ssd.gc().forceAll(1, [] {});
        e.run();
        return std::make_pair(e.now(), done);
    };
    // Zero-probability draws never perturb the event schedule, so the
    // enabled-but-quiet run finishes at the identical tick.
    EXPECT_EQ(run(false), run(true));
}

//
// DSM integration: a block dies mid-workload and RECYCLED repairs it
//

TEST(DsmFaultTest, EscalatedFaultMergesIntoWearAndGetsRepaired)
{
    SsdConfig c = makeConfig(ArchKind::DSSDNoc);
    c.geom = paperTlcGeometry();
    c.geom.blocksPerPlane = 12;
    c.geom.pagesPerBlock = 4;
    c.timing = tlcTiming();
    c.fault.enabled = true;
    c.fault.readRetryProb = 0.0;
    c.fault.readSoftProb = 0.0;
    c.fault.readUncorrProb = 0.0;
    c.fault.programFailProb = 0.0;
    c.fault.eraseFailProb = 0.0;

    Engine engine;
    Ssd ssd(engine, c);
    ASSERT_NE(ssd.faultModel(), nullptr);
    SuperblockMapping map(c.geom);

    DsmParams p;
    p.scheme = DsmScheme::Recycled;
    p.wear.peMean = 100000; // no wear-out: only the forced fault fails
    p.wear.peSigma = 1;
    p.seed = 5;
    DynamicSuperblockEngine eng(ssd, map, p);

    // The engine installed itself as the fault sink.
    ssd.faultModel()->debugForceProgramFail();
    bool done = false;
    eng.run(60, [&] { done = true; });
    engine.run();

    EXPECT_TRUE(done);
    EXPECT_EQ(eng.stats().faultEvents, 1u);
    // RECYCLED repaired the faulted sub-block from the RBT instead of
    // killing the superblock.
    EXPECT_GE(eng.stats().remapEvents, 1u);
    EXPECT_GT(eng.stats().repairPagesCopied, 0u);
    EXPECT_EQ(eng.stats().deadSuperblocks, 0u);
    EXPECT_EQ(map.deadSuperblocks(), 0u);
}

} // namespace
} // namespace dssd
