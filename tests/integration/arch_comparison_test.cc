/**
 * Integration tests asserting the paper's qualitative results: the
 * architecture ordering under GC/I-O interference (Fig 7, Fig 10).
 * These are shape checks — who wins — not absolute-number matches.
 */

#include <gtest/gtest.h>

#include <map>

#include "core/gc.hh"
#include "core/ssd.hh"
#include "hil/nvme_host.hh"

namespace dssd
{
namespace
{

SsdConfig
cfg(ArchKind arch)
{
    SsdConfig c = makeConfig(arch);
    c.geom.channels = 8;
    c.geom.ways = 4;
    c.geom.diesPerWay = 1;
    c.geom.planesPerDie = 4;
    c.geom.blocksPerPlane = 16;
    c.geom.pagesPerBlock = 16;
    return c;
}

struct RunResult
{
    double ioBytesPerSec = 0;
    double gcPagesPerSec = 0;
    double p99 = 0;
    double busGcBytes = 0;
};

/**
 * Run a fixed window of DRAM-hit I/O at QD 64 while a forced GC round
 * executes, and measure I/O bandwidth, GC throughput, and tail
 * latency. DRAM-hit I/O isolates front-end contention, which is the
 * effect the paper's Fig 10(a) measures.
 */
RunResult
runInterference(ArchKind arch)
{
    SsdConfig c = cfg(arch);
    c.writeBuffer.mode = BufferMode::AlwaysHit;
    Engine e;
    Ssd ssd(e, c);
    ssd.prefill(0.8, 0.4);

    SyntheticParams p;
    p.readRatio = 0.0;
    p.sequential = true;
    p.requestBytes = 4 * kKiB;
    p.footprintBytes = 8 * kMiB;
    p.count = 0; // unbounded; the window bounds the run
    SyntheticGenerator gen(p);
    NvmeHost host(
        e,
        [&ssd](const IoRequest &r, Engine::Callback cb) {
            ssd.submit(r, std::move(cb));
        },
        NvmeHostParams{});
    TenantParams tp;
    tp.queueDepth = 64;
    host.addTenant(tp, gen);
    host.start();

    bool gc_done = false;
    ssd.gc().forceAll(2, [&] { gc_done = true; });

    const Tick window = 40 * tickMs;
    e.runUntil(window);
    host.stop();
    e.run();

    RunResult r;
    r.ioBytesPerSec = host.ioBytes().averageRate(0, window);
    Tick gc_span = std::min(ssd.gc().lastGcEnd(), window);
    if (gc_span == 0)
        gc_span = window;
    r.gcPagesPerSec = static_cast<double>(ssd.gc().pagesMoved()) /
                      ticksToSec(gc_span);
    r.p99 = host.allLatency().percentile(99);
    r.busGcBytes =
        static_cast<double>(ssd.systemBus().channel().bytesMoved(tagGc));
    EXPECT_TRUE(gc_done) << archName(arch);
    return r;
}

class ArchComparison : public ::testing::Test
{
  protected:
    static std::map<ArchKind, RunResult> results;

    static void
    SetUpTestSuite()
    {
        for (ArchKind k :
             {ArchKind::Baseline, ArchKind::BW, ArchKind::DSSD,
              ArchKind::DSSDBus, ArchKind::DSSDNoc}) {
            results[k] = runInterference(k);
        }
    }
};

std::map<ArchKind, RunResult> ArchComparison::results;

TEST_F(ArchComparison, DssdFamilyKeepsGcOffTheSystemBus)
{
    EXPECT_GT(results[ArchKind::Baseline].busGcBytes, 0.0);
    EXPECT_GT(results[ArchKind::BW].busGcBytes, 0.0);
    // dSSD routes copybacks over the shared bus (one crossing)...
    EXPECT_LT(results[ArchKind::DSSD].busGcBytes,
              results[ArchKind::Baseline].busGcBytes);
    // ...while dSSD_b / dSSD_f avoid it entirely.
    EXPECT_DOUBLE_EQ(results[ArchKind::DSSDBus].busGcBytes, 0.0);
    EXPECT_DOUBLE_EQ(results[ArchKind::DSSDNoc].busGcBytes, 0.0);
}

TEST_F(ArchComparison, DssdNocBeatsBaselineOnIoBandwidthDuringGc)
{
    EXPECT_GT(results[ArchKind::DSSDNoc].ioBytesPerSec,
              results[ArchKind::Baseline].ioBytesPerSec);
}

TEST_F(ArchComparison, ExtraBusBandwidthAloneHelpsLess)
{
    // BW improves on Baseline but less than decoupling does (Fig 7a).
    EXPECT_GE(results[ArchKind::BW].ioBytesPerSec,
              results[ArchKind::Baseline].ioBytesPerSec * 0.99);
    EXPECT_GT(results[ArchKind::DSSDNoc].ioBytesPerSec,
              results[ArchKind::BW].ioBytesPerSec);
}

TEST_F(ArchComparison, TailLatencyCollapsesWithFullDecoupling)
{
    // Fig 10(a): dSSD_f tail-latency is dramatically lower than BW.
    EXPECT_LT(results[ArchKind::DSSDNoc].p99,
              results[ArchKind::BW].p99);
    EXPECT_LT(results[ArchKind::DSSDNoc].p99,
              results[ArchKind::Baseline].p99);
}

TEST(FnocVsDedicatedBus, ParallelLinksBeatTheSerializedBus)
{
    // Fig 7(a): dSSD_b serializes all flash-to-flash traffic on one
    // bus; the fNoC uses multiple links in parallel. Make GC clearly
    // interconnect-bound (small extra bandwidth, no host I/O) so the
    // structural difference dominates.
    auto gc_rate = [](ArchKind k) {
        SsdConfig c = cfg(k);
        c.onChipBandwidthFactor = 1.0625; // 0.5 GB/s extra on-chip BW
        Engine e;
        Ssd ssd(e, c);
        ssd.prefill(0.8, 0.4);
        bool done = false;
        ssd.gc().forceAll(2, [&] { done = true; });
        e.run();
        EXPECT_TRUE(done) << archName(k);
        Tick span = ssd.gc().lastGcEnd() - ssd.gc().firstGcStart();
        return static_cast<double>(ssd.gc().pagesMoved()) /
               ticksToSec(span);
    };
    double bus = gc_rate(ArchKind::DSSDBus);
    double noc = gc_rate(ArchKind::DSSDNoc);
    EXPECT_GT(noc, bus);
}

TEST_F(ArchComparison, EveryArchFinishesItsGcWork)
{
    for (auto &[k, r] : results)
        EXPECT_GT(r.gcPagesPerSec, 0.0) << archName(k);
}

} // namespace
} // namespace dssd
