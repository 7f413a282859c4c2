/**
 * @file
 * Trace replay: runs a named workload synthesizer (or a user-supplied
 * trace file in "<ts_us> <R|W> <offset> <bytes>" format) through any
 * architecture and prints the latency profile.
 *
 * Usage:
 *   trace_replay [trace-name|path/to/trace.txt] [arch]
 *     trace-name: prn_0, src1_2, usr_2, hm_1, ... (default prn_0)
 *     arch      : baseline | bw | dssd | dssd_b | dssd_f (default)
 */

#include <cstdio>
#include <cstring>
#include <memory>

#include "core/gc.hh"
#include "core/ssd.hh"
#include "hil/nvme_host.hh"

using namespace dssd;

int
main(int argc, char **argv)
{
    const char *trace = argc > 1 ? argv[1] : "prn_0";
    std::optional<ArchKind> arch =
        argc > 2 ? parseArch(argv[2]) : ArchKind::DSSDNoc;
    if (!arch)
        fatal("unknown arch '%s'", argv[2]);

    SsdConfig config = makeConfig(*arch);
    config.geom.ways = 4;
    config.geom.blocksPerPlane = 16;
    config.geom.pagesPerBlock = 16;
    Engine engine;
    Ssd ssd(engine, config);
    ssd.prefill(0.8, 0.3);

    std::unique_ptr<Generator> gen;
    if (std::strchr(trace, '/') || std::strstr(trace, ".txt")) {
        gen = std::make_unique<TraceFileLoader>(trace);
        std::printf("replaying trace file %s on %s\n", trace,
                    archName(*arch));
    } else {
        TraceProfile prof = traceProfile(trace);
        std::uint64_t footprint =
            ssd.mapping().lpnCount() * config.geom.pageBytes / 2;
        gen = std::make_unique<TraceSynthesizer>(prof, footprint, 4000);
        std::printf("synthesizing %s (%.0f%% reads, ~%llu KB writes) "
                    "on %s\n",
                    trace, 100 * prof.readRatio,
                    static_cast<unsigned long long>(prof.writeBytes /
                                                    kKiB),
                    archName(*arch));
    }

    NvmeHost host(
        engine,
        [&ssd](const IoRequest &req, Engine::Callback done) {
            ssd.submit(req, std::move(done));
        },
        NvmeHostParams{});
    TenantParams tenant;
    tenant.queueDepth = 64;
    host.addTenant(tenant, *gen);
    host.start();
    // Background GC pressure, as in the paper's trace runs.
    ssd.gc().forceAll(1, [] {});
    engine.run();

    std::printf("\nrequests completed : %llu\n",
                static_cast<unsigned long long>(host.completed()));
    std::printf("reads / writes     : %llu / %llu\n",
                static_cast<unsigned long long>(
                    host.readLatency().count()),
                static_cast<unsigned long long>(
                    host.writeLatency().count()));
    std::printf("avg latency        : %s\n",
                formatLatency(host.allLatency().mean()).c_str());
    std::printf("p50 / p99 / p99.9  : %s / %s / %s\n",
                formatLatency(host.allLatency().percentile(50)).c_str(),
                formatLatency(host.allLatency().percentile(99)).c_str(),
                formatLatency(
                    host.allLatency().percentile(99.9)).c_str());
    std::printf("I/O bandwidth      : %s\n",
                formatBandwidth(
                    host.ioBytes().averageRate(0, engine.now()))
                    .c_str());
    std::printf("GC pages moved     : %llu, WAF %.2f\n",
                static_cast<unsigned long long>(ssd.gc().pagesMoved()),
                ssd.mapping().waf());
    return 0;
}
