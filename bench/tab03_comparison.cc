/**
 * @file
 * Table 3: quantitative proxy for the paper's qualitative comparison —
 * average I/O performance, tail latency, GC performance, and bus
 * interference per scheme (PreemptiveGC, TinyTail, PaGC, dSSD).
 */

#include <cstdio>

#include "bench/harness.hh"

using namespace dssd;
using namespace dssd::bench;

int
main(int argc, char **argv)
{
    BenchOpts o = BenchOpts::parse(argc, argv, {"--seed", "--threads"});
    banner("Table 3",
           "scheme comparison under write pressure with GC "
           "(higher IO/GC better, lower p99/interference better)");
    struct Scheme
    {
        const char *label;
        ArchKind arch;
        GcPolicy pol;
    };
    const Scheme schemes[] = {
        {"PreemptiveGC", ArchKind::Baseline, GcPolicy::Preemptive},
        {"TinyTail", ArchKind::Baseline, GcPolicy::TinyTail},
        {"PaGC", ArchKind::Baseline, GcPolicy::Parallel},
        {"dSSD (ours)", ArchKind::DSSDNoc, GcPolicy::Parallel},
    };
    std::vector<ExpParams> ps;
    for (const Scheme &s : schemes) {
        ExpParams p;
        p.arch = s.arch;
        p.gcPolicy = s.pol;
        p.channels = 8;
        p.ways = 4;
        p.planes = 8;
        p.requestBytes = 16 * kKiB;
        p.bufferMode = BufferMode::AlwaysMiss;
        p.window = 30 * tickMs;
        p.seed = o.seed;
        ps.push_back(p);
    }
    std::vector<ExpResult> rs = runExperiments(ps, o.resolvedThreads());
    std::printf("%-14s  %10s  %10s  %12s  %14s\n", "scheme",
                "IO(GB/s)", "p99(us)", "GC(pages/s)",
                "bus-GC util(%)");
    for (std::size_t i = 0; i < rs.size(); ++i) {
        const ExpResult &r = rs[i];
        std::printf("%-14s  %10.3f  %10.1f  %12.0f  %14.1f\n",
                    schemes[i].label, r.ioBytesPerSec / 1e9,
                    r.p99LatencyUs, r.gcPagesPerSec, 100 * r.busGcUtil);
    }
    std::printf("\nFTL modification: Preemptive/TinyTail/PaGC require "
                "FTL changes; dSSD needs only copyback awareness.\n");
    return 0;
}
