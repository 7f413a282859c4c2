/**
 * @file
 * GC-interference demo: reproduces the paper's motivating observation
 * (Fig 2) interactively. Runs the same sequential-write workload on a
 * conventional SSD and on dSSD_f, triggers GC mid-run, and prints the
 * per-millisecond I/O bandwidth so the dip (and its absence) is
 * visible in the terminal.
 */

#include <cstdio>

#include "core/gc.hh"
#include "core/ssd.hh"
#include "hil/nvme_host.hh"

using namespace dssd;

namespace
{

void
run(ArchKind arch)
{
    SsdConfig config = makeConfig(arch);
    config.geom.ways = 4;
    config.geom.blocksPerPlane = 16;
    config.geom.pagesPerBlock = 16;
    config.writeBuffer.mode = BufferMode::AlwaysMiss;

    Engine engine;
    Ssd ssd(engine, config);
    ssd.prefill(0.8, 0.3);

    SyntheticParams wl;
    wl.requestBytes = 32 * kKiB; // high-bandwidth: all planes busy
    wl.sequential = true;
    wl.footprintBytes =
        ssd.mapping().lpnCount() * config.geom.pageBytes / 2;
    wl.count = 0;
    SyntheticGenerator gen(wl);
    NvmeHost host(
        engine,
        [&ssd](const IoRequest &req, Engine::Callback done) {
            ssd.submit(req, std::move(done));
        },
        NvmeHostParams{});
    TenantParams tenant;
    tenant.queueDepth = 64;
    host.addTenant(tenant, gen);
    host.start();

    // Let I/O reach steady state, then unleash GC.
    const Tick gc_at = 8 * tickMs;
    const Tick window = 24 * tickMs;
    engine.schedule(gc_at, [&ssd] { ssd.gc().forceAll(2, [] {}); });
    engine.runUntil(window);
    host.stop();
    engine.run();

    std::printf("\n=== %s ===  (GC fired at %.0f ms)\n", archName(arch),
                ticksToMs(gc_at));
    std::printf("%5s  %12s  %s\n", "t(ms)", "IO GB/s", "bar");
    auto series = host.ioBytes().ratePerSec();
    for (std::size_t i = 0; i < series.size() && i < 24; ++i) {
        double gbps = series[i] / 1e9;
        std::printf("%5zu  %12.3f  ", i, gbps);
        int bars = static_cast<int>(gbps * 12);
        for (int b = 0; b < bars && b < 60; ++b)
            std::printf("#");
        std::printf("\n");
    }
    std::printf("GC moved %llu pages; system-bus GC bytes: %llu\n",
                static_cast<unsigned long long>(ssd.gc().pagesMoved()),
                static_cast<unsigned long long>(
                    ssd.systemBus().channel().bytesMoved(tagGc)));
}

} // namespace

int
main()
{
    std::printf("Reproducing the Fig 2 motivation: watch I/O bandwidth "
                "dip when GC shares the front-end,\nand stay flat when "
                "the back-end is decoupled.\n");
    run(ArchKind::Baseline);
    run(ArchKind::DSSDNoc);
    return 0;
}
