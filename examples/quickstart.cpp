/**
 * @file
 * Quickstart: build a decoupled SSD (dSSD_f), run a mixed synthetic
 * workload at queue depth 64, and print the headline statistics.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>

#include "core/gc.hh"
#include "core/ssd.hh"
#include "hil/nvme_host.hh"

using namespace dssd;

int
main()
{
    // 1. Configure the SSD. makeConfig() gives the Table 1/2 defaults;
    //    we shrink capacity so the demo finishes in a second.
    SsdConfig config = makeConfig(ArchKind::DSSDNoc);
    config.geom.blocksPerPlane = 16;
    config.geom.pagesPerBlock = 16;

    // 2. Create the event engine and the device, and pre-fill it so
    //    garbage collection has work to do.
    Engine engine;
    Ssd ssd(engine, config);
    ssd.prefill(/*fill=*/0.8, /*invalid=*/0.3);

    std::printf("dSSD quickstart: %s, %u channels x %u ways x %u "
                "planes, %.1f MiB raw\n",
                archName(config.arch), config.geom.channels,
                config.geom.ways, config.geom.planesPerDie,
                static_cast<double>(config.geom.capacityBytes()) / kMiB);

    // 3. Describe a workload: 70/30 random read/write mix of 8 KB
    //    requests.
    SyntheticParams wl;
    wl.readRatio = 0.7;
    wl.sequential = false;
    wl.requestBytes = 8 * kKiB;
    wl.footprintBytes = ssd.mapping().lpnCount() *
                        config.geom.pageBytes / 2;
    wl.count = 2000;
    SyntheticGenerator gen(wl);

    // 4. Pump it through the host interface: one closed-loop tenant
    //    at queue depth 64.
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

    // 5. Kick one round of garbage collection to see the decoupled
    //    copyback path in action, then run to completion.
    ssd.gc().forceAll(/*victims_per_unit=*/1, [] {});
    engine.run();

    // 6. Report.
    std::printf("\ncompleted requests : %llu\n",
                static_cast<unsigned long long>(host.completed()));
    std::printf("avg latency        : %s\n",
                formatLatency(host.allLatency().mean()).c_str());
    std::printf("p99 latency        : %s\n",
                formatLatency(host.allLatency().percentile(99)).c_str());
    std::printf("I/O bandwidth      : %s\n",
                formatBandwidth(host.ioBytes().averageRate(
                                    0, engine.now()))
                    .c_str());
    std::printf("GC pages moved     : %llu (all via global copyback)\n",
                static_cast<unsigned long long>(ssd.gc().pagesMoved()));
    std::printf("system-bus GC bytes: %llu  <-- decoupling at work\n",
                static_cast<unsigned long long>(
                    ssd.systemBus().channel().bytesMoved(tagGc)));
    std::printf("fNoC packets       : %llu\n",
                static_cast<unsigned long long>(
                    ssd.noc()->packetsDelivered()));
    return 0;
}
