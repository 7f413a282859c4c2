/**
 * @file
 * Fig 7: (a) I/O and GC performance of Baseline / BW / dSSD / dSSD_b /
 * dSSD_f, normalized to Baseline, at equal total on-chip bandwidth;
 * (b) I/O system-bus utilization during GC for DRAM-hit and flash-write
 * I/O.
 */

#include <cstdio>

#include "bench/harness.hh"

using namespace dssd;
using namespace dssd::bench;

namespace
{

constexpr ArchKind kArchs[] = {ArchKind::Baseline, ArchKind::BW,
                               ArchKind::DSSD, ArchKind::DSSDBus,
                               ArchKind::DSSDNoc};

ExpParams
baseParams(const BenchOpts &o, ArchKind arch)
{
    bool full = o.full;
    ExpParams p;
    p.arch = arch;
    p.seed = o.seed;
    p.channels = 8;
    p.ways = full ? 8 : 4;
    p.planes = 8;
    p.blocksPerPlane = full ? 32 : 16;
    p.pagesPerBlock = full ? 32 : 16;
    // Optional array front-end: --shards=N runs every point on an
    // N-shard SsdArray (per-shard queue load kept constant), and
    // --engine-threads picks the engine-group execution mode.
    if (o.shards > 0) {
        p.shards = o.shards;
        p.queueDepth = 64 * o.shards;
    }
    p.engineThreads = o.engineThreads;
    p.requestBytes = 128 * kKiB; // high-bandwidth flash access (Sec 6.1)
    p.sequential = true;
    // Buffered writes (the paper's SSD stages all writes through the
    // DRAM write buffer): host data crosses the system bus into DRAM
    // and back out to flash, so the front end carries 2x the I/O
    // bytes — which is exactly the contention dSSD relieves.
    p.bufferMode = BufferMode::Real;
    p.window = 30 * tickMs;
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOpts o = BenchOpts::parse(
        argc, argv,
        {"--full", "--seed", "--threads", "--trace-out", "--stats", "--shards",
         "--engine-threads"});
    // Per arch: the buffered run of (a), then the DRAM-hit and the
    // flash-write runs of (b).
    const BufferMode modes[] = {BufferMode::Real, BufferMode::AlwaysHit,
                                BufferMode::AlwaysMiss};
    std::vector<ExpParams> ps;
    for (ArchKind k : kArchs) {
        for (BufferMode m : modes) {
            ExpParams p = baseParams(o, k);
            p.bufferMode = m;
            if (k == ArchKind::DSSDNoc && m == BufferMode::Real) {
                // Trace/stats attach to the fNoC run: it exercises
                // every track family (die ops, buses, NoC hops,
                // global-copyback stages).
                p.tracePath = o.traceOut;
                p.statsPath = o.stats;
            }
            ps.push_back(p);
        }
    }
    std::vector<ExpResult> rs = runExperiments(ps, o.resolvedThreads());
    const std::size_t n = std::size(kArchs);
    const std::size_t m = std::size(modes);

    banner("Fig 7(a)",
           "normalized I/O and GC performance, equal on-chip bandwidth");
    std::printf("%-10s  %12s  %12s  %10s  %10s\n", "config",
                "IO(GB/s)", "GC(pg/s)", "IO(norm)", "GC(norm)");
    const ExpResult &base = rs[0];
    for (std::size_t i = 0; i < n; ++i) {
        const ExpResult &r = rs[m * i];
        std::printf("%-10s  %12.3f  %12.0f  %10.3f  %10.3f\n",
                    archName(kArchs[i]), r.ioBytesPerSec / 1e9,
                    r.gcPagesPerSec, r.ioBytesPerSec / base.ioBytesPerSec,
                    r.gcPagesPerSec / base.gcPagesPerSec);
    }

    rule();
    banner("Fig 7(b)",
           "I/O system-bus utilization during GC: DRAM-hit vs flash-write");
    std::printf("%-10s  %16s  %16s\n", "config", "DRAM-hit util(%)",
                "flash-wr util(%)");
    for (std::size_t i = 0; i < n; ++i) {
        const ExpResult &hit = rs[m * i + 1];
        const ExpResult &miss = rs[m * i + 2];
        std::printf("%-10s  %16.1f  %16.1f\n", archName(kArchs[i]),
                    100 * hit.busIoUtil, 100 * miss.busIoUtil);
    }
    return 0;
}
