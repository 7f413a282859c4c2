/**
 * @file
 * Fig 10: (a) I/O bandwidth and tail latency with 100% DRAM-cached
 * I/O while GC runs, for BW / dSSD / dSSD_f; (b) average I/O latency
 * across workload traces for Baseline / BW / TinyTail / dSSD_f.
 */

#include <cstdio>
#include <utility>

#include "bench/harness.hh"

using namespace dssd;
using namespace dssd::bench;

int
main(int argc, char **argv)
{
    BenchOpts o = BenchOpts::parse(argc, argv, {"--seed", "--threads"});
    auto point = [&](ArchKind arch, BufferMode buffer, Tick window) {
        ExpParams p;
        p.arch = arch;
        p.channels = 8;
        p.ways = 4;
        p.planes = 8;
        p.bufferMode = buffer;
        p.window = window;
        p.seed = o.seed;
        return p;
    };
    // (a): 4 KiB I/O, every request a DRAM hit; (b): every trace on
    // each scheme.
    const ArchKind hit_archs[] = {ArchKind::BW, ArchKind::DSSD,
                                  ArchKind::DSSDNoc};
    const char *traces[] = {"prn_0", "src1_2", "usr_2", "hm_1",
                            "proj_0", "web_0"};
    const std::pair<ArchKind, GcPolicy> schemes[] = {
        {ArchKind::Baseline, GcPolicy::Parallel},
        {ArchKind::BW, GcPolicy::Parallel},
        {ArchKind::BW, GcPolicy::TinyTail},
        {ArchKind::DSSDNoc, GcPolicy::Parallel}};
    std::vector<ExpParams> ps;
    for (ArchKind k : hit_archs)
        ps.push_back(point(k, BufferMode::AlwaysHit, 30 * tickMs));
    for (const char *t : traces) {
        for (auto [arch, pol] : schemes) {
            ExpParams p = point(arch, BufferMode::Real, 25 * tickMs);
            p.gcPolicy = pol;
            p.traceName = t;
            ps.push_back(p);
        }
    }
    std::vector<ExpResult> rs = runExperiments(ps, o.resolvedThreads());

    banner("Fig 10(a)",
           "100% DRAM-cached I/O under GC: bandwidth and tail latency");
    std::printf("%-10s  %12s  %12s  %12s\n", "config", "IO(GB/s)",
                "p99(us)", "p99.9(us)");
    std::size_t at = 0;
    for (ArchKind k : hit_archs) {
        const ExpResult &r = rs[at++];
        std::printf("%-10s  %12.3f  %12.1f  %12.1f\n", archName(k),
                    r.ioBytesPerSec / 1e9, r.p99LatencyUs,
                    r.p999LatencyUs);
    }

    rule();
    banner("Fig 10(b)", "average I/O latency across traces (normalized "
                        "to Baseline; lower is better)");
    std::printf("%-8s  %10s  %10s  %10s  %10s\n", "trace", "Baseline",
                "BW", "TinyTail", "dSSD_f");
    double sums[4] = {0, 0, 0, 0};
    for (const char *t : traces) {
        double lat[4];
        for (double &l : lat)
            l = rs[at++].avgLatencyUs;
        std::printf("%-8s  %10.3f  %10.3f  %10.3f  %10.3f\n", t, 1.0,
                    lat[1] / lat[0], lat[2] / lat[0], lat[3] / lat[0]);
        for (int j = 0; j < 4; ++j)
            sums[j] += lat[j] / lat[0];
    }
    int n = static_cast<int>(std::size(traces));
    std::printf("%-8s  %10.3f  %10.3f  %10.3f  %10.3f\n", "average",
                sums[0] / n, sums[1] / n, sums[2] / n, sums[3] / n);
    return 0;
}
