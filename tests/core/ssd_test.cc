/** Unit tests for the SSD top-level datapaths. */

#include <gtest/gtest.h>

#include "core/gc.hh"
#include "core/ssd.hh"

namespace dssd
{
namespace
{

SsdConfig
testConfig(ArchKind arch)
{
    SsdConfig c = makeConfig(arch);
    c.geom.channels = 4;
    c.geom.ways = 2;
    c.geom.diesPerWay = 1;
    c.geom.planesPerDie = 2;
    c.geom.blocksPerPlane = 16;
    c.geom.pagesPerBlock = 8;
    c.writeBuffer.capacityPages = 64;
    return c;
}

/**
 * Overwrite-churn a small LPN set until a host write can no longer
 * allocate: each rewrite consumes a fresh page and only invalidates the
 * old one, so the free pool drains with nothing erased (and, with no
 * timed allocation, nothing triggers GC).
 */
void
exhaustFreePool(Ssd &ssd)
{
    Lpn l = 0;
    while (ssd.mapping().hostCanAllocate())
        ssd.mapping().allocate(l++ % 8);
}

TEST(SsdTest, ConstructsEveryArch)
{
    for (ArchKind k : {ArchKind::Baseline, ArchKind::BW, ArchKind::DSSD,
                       ArchKind::DSSDBus, ArchKind::DSSDNoc}) {
        Engine e;
        Ssd ssd(e, testConfig(k));
        EXPECT_EQ(ssd.channelCount(), 4u) << archName(k);
        if (isDecoupled(k)) {
            EXPECT_NE(ssd.decoupledController(0), nullptr);
            EXPECT_NE(ssd.interconnect(), nullptr);
        } else {
            EXPECT_EQ(ssd.decoupledController(0), nullptr);
            EXPECT_EQ(ssd.interconnect(), nullptr);
        }
        EXPECT_EQ(ssd.noc() != nullptr, k == ArchKind::DSSDNoc);
    }
}

TEST(SsdTest, NocBisectionMatchesExtraBandwidth)
{
    Engine e;
    Ssd ssd(e, testConfig(ArchKind::DSSDNoc));
    ASSERT_NE(ssd.noc(), nullptr);
    double link = toGbPerSec(ssd.noc()->params().linkBandwidth);
    double bisection = link * ssd.noc()->topology().bisectionLinks();
    EXPECT_DOUBLE_EQ(bisection,
                     toGbPerSec(ssd.config().interconnectBandwidth()));
}

TEST(SsdTest, WritePageBufferedCompletesWithoutFlash)
{
    Engine e;
    Ssd ssd(e, testConfig(ArchKind::Baseline));
    bool done = false;
    ssd.writePage(0, [&] { done = true; });
    e.run();
    EXPECT_TRUE(done);
    // Buffered write: ack after DRAM, no flash program yet.
    EXPECT_EQ(ssd.channel(0).programs(), 0u);
    EXPECT_TRUE(ssd.writeBuffer().readHit(0));
}

TEST(SsdTest, ReadMissGoesToFlash)
{
    SsdConfig c = testConfig(ArchKind::Baseline);
    c.writeBuffer.mode = BufferMode::AlwaysMiss;
    Engine e;
    Ssd ssd(e, c);
    ssd.prefill(0.5, 0.0);
    bool done = false;
    ssd.readPage(0, [&] { done = true; });
    e.run();
    EXPECT_TRUE(done);
    std::uint64_t reads = 0;
    for (unsigned ch = 0; ch < ssd.channelCount(); ++ch)
        reads += ssd.channel(ch).reads();
    EXPECT_EQ(reads, 1u);
    // Miss path crossed the system bus once.
    EXPECT_GT(ssd.systemBus().channel().busyTicks(tagIo), 0u);
}

TEST(SsdTest, ReadHitServedByDram)
{
    SsdConfig c = testConfig(ArchKind::Baseline);
    c.writeBuffer.mode = BufferMode::AlwaysHit;
    Engine e;
    Ssd ssd(e, c);
    bool done = false;
    ssd.readPage(0, [&] { done = true; });
    e.run();
    EXPECT_TRUE(done);
    EXPECT_GT(ssd.dram().port().busyTicks(tagIo), 0u);
    std::uint64_t reads = 0;
    for (unsigned ch = 0; ch < ssd.channelCount(); ++ch)
        reads += ssd.channel(ch).reads();
    EXPECT_EQ(reads, 0u);
}

TEST(SsdTest, ReadUnwrittenPageCompletesInstantly)
{
    SsdConfig c = testConfig(ArchKind::Baseline);
    c.writeBuffer.mode = BufferMode::AlwaysMiss;
    Engine e;
    Ssd ssd(e, c);
    bool done = false;
    ssd.readPage(5, [&] { done = true; });
    e.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(ssd.channel(0).reads(), 0u);
}

TEST(SsdTest, DirectWriteProgramsFlash)
{
    SsdConfig c = testConfig(ArchKind::Baseline);
    c.writeBuffer.mode = BufferMode::AlwaysMiss;
    Engine e;
    Ssd ssd(e, c);
    bool done = false;
    ssd.writePage(9, [&] { done = true; });
    e.run();
    EXPECT_TRUE(done);
    std::uint64_t programs = 0;
    for (unsigned ch = 0; ch < ssd.channelCount(); ++ch)
        programs += ssd.channel(ch).programs();
    EXPECT_EQ(programs, 1u);
    EXPECT_TRUE(ssd.mapping().translate(9).has_value());
}

TEST(SsdTest, BufferedWritesFlushAtWatermark)
{
    SsdConfig c = testConfig(ArchKind::Baseline);
    c.writeBuffer.capacityPages = 16;
    Engine e;
    Ssd ssd(e, c);
    unsigned done = 0;
    for (Lpn l = 0; l < 15; ++l)
        ssd.writePage(l, [&] { ++done; });
    e.run();
    EXPECT_EQ(done, 15u);
    EXPECT_GT(ssd.flushedPages(), 0u);
    std::uint64_t programs = 0;
    for (unsigned ch = 0; ch < ssd.channelCount(); ++ch)
        programs += ssd.channel(ch).programs();
    EXPECT_EQ(programs, ssd.flushedPages());
}

TEST(SsdTest, SubmitSplitsRequestIntoPages)
{
    SsdConfig c = testConfig(ArchKind::Baseline);
    c.writeBuffer.mode = BufferMode::AlwaysMiss;
    Engine e;
    Ssd ssd(e, c);
    IoRequest r;
    r.kind = IoRequest::Kind::Write;
    r.offset = 0;
    r.bytes = 32 * kKiB; // 8 pages
    bool done = false;
    ssd.submit(r, [&] { done = true; });
    e.run();
    EXPECT_TRUE(done);
    std::uint64_t programs = 0;
    for (unsigned ch = 0; ch < ssd.channelCount(); ++ch)
        programs += ssd.channel(ch).programs();
    EXPECT_EQ(programs, 8u);
    EXPECT_EQ(ssd.hostWrites(), 8u);
}

TEST(SsdTest, UnalignedRequestCoversStraddledPages)
{
    SsdConfig c = testConfig(ArchKind::Baseline);
    Engine e;
    Ssd ssd(e, c);
    IoRequest r;
    r.kind = IoRequest::Kind::Write;
    r.offset = 2 * kKiB;   // middle of page 0
    r.bytes = 4 * kKiB;    // spills into page 1
    bool done = false;
    ssd.submit(r, [&] { done = true; });
    e.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(ssd.hostWrites(), 2u);
}

TEST(SsdTest, GcCopyBaselineUsesBusTwiceAndDramTwice)
{
    SsdConfig c = testConfig(ArchKind::Baseline);
    Engine e;
    Ssd ssd(e, c);
    ssd.prefill(0.5, 0.0);
    PhysAddr src = ssd.mapping().geometry().pageAddr(
        *ssd.mapping().translate(0));
    PhysAddr dst = ssd.mapping().allocateInUnit(0, 0);
    bool done = false;
    ssd.gcCopyPage(src, dst, [&] { done = true; });
    e.run();
    EXPECT_TRUE(done);
    std::uint64_t page = c.geom.pageBytes;
    EXPECT_EQ(ssd.systemBus().channel().bytesMoved(tagGc), 2 * page);
    EXPECT_EQ(ssd.dram().port().bytesMoved(tagGc), 2 * page);
}

TEST(SsdTest, GcCopyDssdNeverTouchesFrontEnd)
{
    for (ArchKind k :
         {ArchKind::DSSDBus, ArchKind::DSSDNoc}) {
        SsdConfig c = testConfig(k);
        Engine e;
        Ssd ssd(e, c);
        ssd.prefill(0.5, 0.0);
        PhysAddr src = ssd.mapping().geometry().pageAddr(
            *ssd.mapping().translate(0));
        PhysAddr dst = ssd.mapping().allocateInUnit(0, 12);
        bool done = false;
        ssd.gcCopyPage(src, dst, [&] { done = true; });
        e.run();
        EXPECT_TRUE(done) << archName(k);
        EXPECT_EQ(ssd.systemBus().channel().bytesMoved(tagGc), 0u)
            << archName(k);
        EXPECT_EQ(ssd.dram().port().bytesMoved(tagGc), 0u)
            << archName(k);
    }
}

TEST(SsdTest, GcCopyDssdVariantRidesSystemBusOnce)
{
    SsdConfig c = testConfig(ArchKind::DSSD);
    Engine e;
    Ssd ssd(e, c);
    ssd.prefill(0.5, 0.0);
    PhysAddr src = ssd.mapping().geometry().pageAddr(
        *ssd.mapping().translate(0));
    // Cross-channel destination so the interconnect is used.
    PhysAddr dst = ssd.mapping().allocateInUnit(0, 12);
    ASSERT_NE(ssd.mapping().unitOf(dst) / 4, src.channel);
    bool done = false;
    ssd.gcCopyPage(src, dst, [&] { done = true; });
    e.run();
    EXPECT_TRUE(done);
    // One bus crossing (ctrl to ctrl), not two, and no DRAM.
    EXPECT_EQ(ssd.systemBus().channel().bytesMoved(tagGc),
              c.geom.pageBytes);
    EXPECT_EQ(ssd.dram().port().bytesMoved(tagGc), 0u);
}

TEST(SsdTest, DirectWriteStallsUntilSpaceIsReclaimed)
{
    SsdConfig c = testConfig(ArchKind::Baseline);
    c.writeBuffer.mode = BufferMode::AlwaysMiss;
    Engine e;
    Ssd ssd(e, c);
    exhaustFreePool(ssd);

    bool done = false;
    ssd.writePage(0, [&done] { done = true; });
    e.runUntil(usToTicks(100));
    EXPECT_FALSE(done); // write-through path is blocked on space

    // Reclaim fully-invalid blocks, as GC would.
    const FlashGeometry &g = ssd.mapping().geometry();
    for (std::uint32_t u = 0; u < ssd.mapping().unitCount(); ++u) {
        for (std::uint32_t b = 0; b < g.blocksPerPlane; ++b) {
            const BlockState &s = ssd.mapping().blockState(u, b);
            if (!s.isFree && !s.isBad && s.validCount == 0 &&
                s.writePtr == g.pagesPerBlock) {
                ssd.mapping().eraseBlock(u, b);
            }
        }
    }
    e.run();
    EXPECT_TRUE(done);
    // The stall was charged to the request's firmware/other bucket.
    EXPECT_GE(ssd.ioBreakdown().mean().other, usToTicks(100));
}

TEST(SsdTest, BufferedWriteStallsWhileFullAndResumesAfterDrain)
{
    SsdConfig c = testConfig(ArchKind::Baseline);
    c.writeBuffer.mode = BufferMode::Real;
    c.writeBuffer.capacityPages = 4;
    Engine e;
    Ssd ssd(e, c);
    // Fill the write cache to capacity (state-level: no timing).
    for (Lpn lpn = 100; lpn < 104; ++lpn)
        ssd.writeBuffer().insert(lpn);
    ASSERT_EQ(ssd.writeBuffer().occupancy(),
              ssd.writeBuffer().capacity());

    // A write to a non-resident page must stall on the flusher, which
    // the stall path itself kicks off; it resumes as soon as a page is
    // pulled for write-back.
    bool done = false;
    ssd.writePage(0, [&done] { done = true; });
    e.run();
    EXPECT_TRUE(done);
    // Backpressure engaged (stall time accumulated) and the flusher
    // made room by writing pages to flash.
    EXPECT_GT(ssd.ioBreakdown().mean().other, 0u);
    EXPECT_GT(ssd.flushedPages(), 0u);
    EXPECT_LE(ssd.writeBuffer().occupancy(),
              ssd.writeBuffer().capacity());
    EXPECT_TRUE(ssd.writeBuffer().readHit(0)); // the write landed
    std::uint64_t programs = 0;
    for (unsigned ch = 0; ch < ssd.channelCount(); ++ch)
        programs += ssd.channel(ch).programs();
    EXPECT_EQ(programs, ssd.flushedPages());
}

TEST(SsdTest, ParkedBufferedWritesShareOneRetryEventPerTick)
{
    // One submit parks kPages writes behind a full buffer whose flusher
    // cannot allocate. Each 2 us tick then runs one retry event for all
    // the parked writes and one for the parked write-backs, not one
    // event per waiter.
    SsdConfig c = testConfig(ArchKind::Baseline);
    c.writeBuffer.mode = BufferMode::Real;
    c.writeBuffer.capacityPages = 4;
    Engine e;
    Ssd ssd(e, c);
    exhaustFreePool(ssd);
    // Start the flusher on a full buffer: its two write-backs park on
    // the exhausted pool. Then top the buffer up again.
    for (Lpn lpn = 100; lpn < 104; ++lpn)
        ssd.writeBuffer().insert(lpn);
    ssd.flushEngine().maybeStart();
    ASSERT_EQ(ssd.flushEngine().inFlight(), 2u);
    for (Lpn lpn = 104; ssd.writeBuffer().occupancy() <
                        ssd.writeBuffer().capacity();
         ++lpn)
        ssd.writeBuffer().insert(lpn);

    constexpr std::uint64_t kPages = 16;
    IoRequest r;
    r.kind = IoRequest::Kind::Write;
    r.bytes = kPages * c.geom.pageBytes;
    bool done = false;
    ssd.submit(r, [&done] { done = true; });
    Tick start = c.firmwareLatency + 10 * RetryQueue::kPeriod;
    e.runUntil(start);
    ASSERT_EQ(ssd.ioOutstanding(), kPages);

    constexpr std::uint64_t kTicks = 100;
    std::uint64_t before = e.executedEvents();
    e.runUntil(start + kTicks * RetryQueue::kPeriod);
    EXPECT_EQ(e.executedEvents() - before, 2 * kTicks);
    EXPECT_FALSE(done);
    EXPECT_EQ(ssd.ioOutstanding(), kPages);
}

TEST(SsdDeathTest, WedgedFlushStopsWithDiagnostic)
{
    // Write-backs that can never allocate (the free pool is exhausted
    // and nothing triggers GC) would retry forever. After 1 s the flush
    // wait stops the run, naming its waiters and the free-space state.
    auto wedge = [] {
        SsdConfig c = testConfig(ArchKind::Baseline);
        c.writeBuffer.mode = BufferMode::Real;
        c.writeBuffer.capacityPages = 4;
        Engine e;
        Ssd ssd(e, c);
        exhaustFreePool(ssd);
        for (Lpn lpn = 0; lpn < 4; ++lpn)
            ssd.writePage(lpn, [] {});
        e.run();
    };
    EXPECT_DEATH(wedge(),
                 "flush write-back wait wedged: 2 waiter\\(s\\), one "
                 "waiting 1\\.000 s; [0-9]+ free blocks in 16 units, 0 GC "
                 "units active");
}

TEST(SsdDeathTest, WedgedBufferedWriteStopsWithDiagnostic)
{
    // A flusher whose high watermark the buffer can never cross never
    // drains it: writes facing the full buffer wait 1 s, then the run
    // stops, naming the buffer state and the idle flusher.
    auto wedge = [] {
        SsdConfig c = testConfig(ArchKind::Baseline);
        c.writeBuffer.mode = BufferMode::Real;
        c.writeBuffer.capacityPages = 4;
        c.writeBuffer.flushHighWatermark = 1.0;
        Engine e;
        Ssd ssd(e, c);
        for (Lpn lpn = 100; lpn < 104; ++lpn)
            ssd.writeBuffer().insert(lpn);
        ssd.writePage(0, [] {});
        ssd.writePage(1, [] {});
        e.run();
    };
    EXPECT_DEATH(wedge(),
                 "buffered host write wait wedged: 2 waiter\\(s\\), one "
                 "waiting 1\\.000 s; write buffer 4/4 pages, 0 flushes in "
                 "flight");
}

TEST(SsdTest, IoBreakdownAccumulates)
{
    SsdConfig c = testConfig(ArchKind::Baseline);
    c.writeBuffer.mode = BufferMode::AlwaysMiss;
    Engine e;
    Ssd ssd(e, c);
    ssd.prefill(0.5, 0.0);
    for (Lpn l = 0; l < 4; ++l)
        ssd.readPage(l, [] {});
    e.run();
    EXPECT_EQ(ssd.ioBreakdown().count, 4u);
    LatencyBreakdown m = ssd.ioBreakdown().mean();
    EXPECT_GT(m.flashMem, 0u);
    EXPECT_GT(m.flashBus, 0u);
    EXPECT_GT(m.systemBus, 0u);
}

} // namespace
} // namespace dssd
