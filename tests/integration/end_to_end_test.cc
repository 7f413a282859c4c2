/** Integration tests: full workloads through the whole stack. */

#include <gtest/gtest.h>

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
    c.geom.planesPerDie = 2;
    c.geom.blocksPerPlane = 16;
    c.geom.pagesPerBlock = 16;
    c.writeBuffer.capacityPages = 256;
    return c;
}

/** Run @p gen to completion through one closed-loop tenant of
 *  depth @p qd; returns the host for its stats. */
std::unique_ptr<NvmeHost>
runWorkload(Ssd &ssd, Engine &e, Generator &gen, unsigned qd)
{
    auto host = std::make_unique<NvmeHost>(
        e,
        [&ssd](const IoRequest &r, Engine::Callback cb) {
            ssd.submit(r, std::move(cb));
        },
        NvmeHostParams{});
    TenantParams tp;
    tp.queueDepth = qd;
    host->addTenant(tp, gen);
    host->start();
    e.run();
    return host;
}

TEST(EndToEndTest, SequentialWriteWorkloadCompletes)
{
    Engine e;
    Ssd ssd(e, cfg(ArchKind::Baseline));
    SyntheticParams p;
    p.requestBytes = 4 * kKiB;
    p.footprintBytes = 4 * kMiB;
    p.count = 500;
    SyntheticGenerator gen(p);
    auto host = runWorkload(ssd, e, gen, 64);
    EXPECT_EQ(host->completed(), 500u);
    EXPECT_GT(host->allLatency().mean(), 0.0);
}

TEST(EndToEndTest, MixedWorkloadOnAllArchitectures)
{
    for (ArchKind k : {ArchKind::Baseline, ArchKind::BW, ArchKind::DSSD,
                       ArchKind::DSSDBus, ArchKind::DSSDNoc}) {
        Engine e;
        Ssd ssd(e, cfg(k));
        ssd.prefill(0.5, 0.1);
        SyntheticParams p;
        p.readRatio = 0.5;
        p.sequential = false;
        p.requestBytes = 8 * kKiB;
        p.footprintBytes = 8 * kMiB;
        p.count = 300;
        SyntheticGenerator gen(p);
        auto host = runWorkload(ssd, e, gen, 32);
        EXPECT_EQ(host->completed(), 300u) << archName(k);
        EXPECT_GT(host->readLatency().count(), 0u) << archName(k);
        EXPECT_GT(host->writeLatency().count(), 0u) << archName(k);
    }
}

TEST(EndToEndTest, WritePressureTriggersGcAndSurvives)
{
    SsdConfig c = cfg(ArchKind::DSSDNoc);
    c.writeBuffer.capacityPages = 64;
    Engine e;
    Ssd ssd(e, c);
    ssd.prefill(0.85, 0.2);
    SyntheticParams p;
    p.sequential = false;
    p.requestBytes = 4 * kKiB;
    p.footprintBytes =
        ssd.mapping().lpnCount() * c.geom.pageBytes / 2;
    p.count = 3000;
    SyntheticGenerator gen(p);
    auto host = runWorkload(ssd, e, gen, 64);
    EXPECT_EQ(host->completed(), 3000u);
    EXPECT_GT(ssd.gc().blocksErased(), 0u);
    EXPECT_GT(ssd.gc().pagesMoved(), 0u);
    // WAF is sane: amplification exists but is bounded.
    EXPECT_GE(ssd.mapping().waf(), 1.0);
    EXPECT_LT(ssd.mapping().waf(), 10.0);
}

TEST(EndToEndTest, TraceSynthesizerRunsThroughTheStack)
{
    Engine e;
    Ssd ssd(e, cfg(ArchKind::DSSDNoc));
    ssd.prefill(0.5, 0.1);
    TraceSynthesizer gen(traceProfile("prn_0"), 8 * kMiB, 400, 3);
    auto host = runWorkload(ssd, e, gen, 64);
    EXPECT_EQ(host->completed(), 400u);
    EXPECT_GT(host->allLatency().percentile(99), 0.0);
}

TEST(EndToEndTest, DramHitWorkloadNeverTouchesFlash)
{
    SsdConfig c = cfg(ArchKind::DSSDNoc);
    c.writeBuffer.mode = BufferMode::AlwaysHit;
    Engine e;
    Ssd ssd(e, c);
    SyntheticParams p;
    p.readRatio = 1.0;
    p.requestBytes = 4 * kKiB;
    p.footprintBytes = 4 * kMiB;
    p.count = 200;
    SyntheticGenerator gen(p);
    auto host = runWorkload(ssd, e, gen, 16);
    EXPECT_EQ(host->completed(), 200u);
    for (unsigned ch = 0; ch < ssd.channelCount(); ++ch)
        EXPECT_EQ(ssd.channel(ch).reads(), 0u);
}

TEST(EndToEndTest, BandwidthSeriesCoversTheRun)
{
    Engine e;
    Ssd ssd(e, cfg(ArchKind::Baseline));
    SyntheticParams p;
    p.requestBytes = 16 * kKiB;
    p.footprintBytes = 16 * kMiB;
    p.count = 400;
    SyntheticGenerator gen(p);
    auto host = runWorkload(ssd, e, gen, 64);
    EXPECT_DOUBLE_EQ(host->ioBytes().total(), 400.0 * 16 * kKiB);
    EXPECT_GE(host->ioBytes().windows().size(), 1u);
}

} // namespace
} // namespace dssd
