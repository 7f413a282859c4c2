/**
 * @file
 * Fig 2: I/O bandwidth over time and system-bus utilization for the
 * low-bandwidth (4 KB, 1 of 8 planes) and high-bandwidth (32 KB, all
 * planes via multi-plane access) sequential-write scenarios on the
 * conventional (Baseline) SSD, with the GC window marked.
 */

#include <cstdio>

#include "bench/harness.hh"

using namespace dssd;
using namespace dssd::bench;

namespace
{

ExpParams
scenario(std::uint64_t req_bytes, const BenchOpts &o)
{
    ExpParams p;
    p.arch = ArchKind::Baseline;
    p.channels = 8;
    p.ways = 8;
    p.planes = 8;
    p.blocksPerPlane = o.full ? 96 : 48;
    p.pagesPerBlock = o.full ? 64 : 16;
    p.requestBytes = req_bytes;
    p.sequential = true;
    p.readRatio = 0.0;
    p.bufferMode = BufferMode::AlwaysMiss;
    // Leave free-block headroom so threshold GC stays quiet; the
    // forced round at gcDelay creates the Fig 2 dip.
    p.prefillFill = 0.5;
    p.prefillInvalid = 0.3;
    p.window = 30 * tickMs;
    p.gcDelay = 10 * tickMs;
    p.continuousGc = false;
    p.gcVictims = 2;
    p.seed = o.seed;
    return p;
}

void
report(const char *label, const ExpParams &p, const ExpResult &r)
{
    std::printf("\n[%s] %llu KB sequential writes, QD 64\n", label,
                static_cast<unsigned long long>(p.requestBytes / kKiB));
    std::printf("GC active: %.1f ms .. %.1f ms\n",
                ticksToMs(r.gcStart), ticksToMs(r.gcEnd));
    std::printf("%6s  %12s  %10s  %10s\n", "t(ms)", "IO-BW(GB/s)",
                "bus-IO(%)", "bus-GC(%)");
    std::size_t n = r.ioBwSeries.size();
    for (std::size_t i = 0; i < n; ++i) {
        double io = i < r.busIoSeries.size() ? r.busIoSeries[i] : 0.0;
        double gc = i < r.busGcSeries.size() ? r.busGcSeries[i] : 0.0;
        std::printf("%6zu  %12.3f  %10.1f  %10.1f\n", i,
                    r.ioBwSeries[i], 100 * io, 100 * gc);
    }
    std::printf("average I/O bandwidth: %.3f GB/s\n",
                r.ioBytesPerSec / 1e9);
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOpts o = BenchOpts::parse(
        argc, argv, {"--full", "--seed", "--threads"});
    std::vector<ExpParams> ps = {scenario(4 * kKiB, o),
                                 scenario(32 * kKiB, o)};
    std::vector<ExpResult> rs = runExperiments(ps, o.resolvedThreads());
    banner("Fig 2",
           "GC interference on I/O bandwidth and system-bus utilization "
           "(Baseline SSD, ULL flash)");
    report("low-bandwidth", ps[0], rs[0]);
    rule();
    report("high-bandwidth", ps[1], rs[1]);
    return 0;
}
