/**
 * @file
 * Fig 11: p99 tail latency under GC for workload traces — (a) prn_0
 * percentile profile, (b) average tail-latency improvement of dSSD_f
 * over Baseline / BW / PreemptiveGC / TinyTail across traces.
 */

#include <cstdio>

#include "bench/harness.hh"

using namespace dssd;
using namespace dssd::bench;

namespace
{

struct Scheme
{
    const char *label;
    ArchKind arch;
    GcPolicy pol;
};

constexpr Scheme kSchemes[] = {
    {"Baseline", ArchKind::Baseline, GcPolicy::Parallel},
    {"BW", ArchKind::BW, GcPolicy::Parallel},
    {"PreemptiveGC", ArchKind::Baseline, GcPolicy::Preemptive},
    {"TinyTail", ArchKind::BW, GcPolicy::TinyTail},
    {"dSSD_f", ArchKind::DSSDNoc, GcPolicy::Parallel},
};

ExpParams
traceParams(const char *trace, const Scheme &s, const BenchOpts &o)
{
    ExpParams p;
    p.arch = s.arch;
    p.gcPolicy = s.pol;
    p.channels = 8;
    p.ways = 4;
    p.planes = 8;
    // Optional array front-end (--shards / --engine-threads); the
    // trace's LPN space then stripes across the shards.
    if (o.shards > 0)
        p.shards = o.shards;
    p.engineThreads = o.engineThreads;
    p.traceName = trace;
    p.bufferMode = BufferMode::Real;
    // Open-loop replay at a moderate arrival rate: the device is not
    // saturated, so the tail is shaped by GC interference, exactly as
    // in the paper's timestamped trace runs.
    p.traceIops = 40000.0;
    // Sustained GC pressure over the whole window (the paper assumes
    // GC is triggered throughout); the scheduling policy still gates
    // individual copies, so PreemptiveGC postpones into I/O gaps and
    // TinyTail slices.
    p.gcCopiesInFlight = 8; // bursty PaGC-style collection
    p.window = 25 * tickMs;
    p.seed = o.seed;
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOpts o = BenchOpts::parse(
        argc, argv, {"--seed", "--threads", "--shards", "--engine-threads"});
    // Every trace on every scheme; (a) reads the prn_0 row of (b).
    const char *traces[] = {"prn_0", "src1_2", "usr_2", "hm_1",
                            "proj_0", "mds_0", "web_0", "rsrch_0"};
    constexpr std::size_t n = std::size(kSchemes);
    std::vector<ExpParams> ps;
    for (const char *t : traces)
        for (const Scheme &s : kSchemes)
            ps.push_back(traceParams(t, s, o));
    std::vector<ExpResult> rs = runExperiments(ps, o.resolvedThreads());
    auto p99 = [&](std::size_t t, std::size_t s) {
        return rs[t * n + s].p99LatencyUs;
    };

    banner("Fig 11(a)", "prn_0 99% tail latency per scheme");
    std::printf("%-14s  %12s  %14s\n", "scheme", "p99(us)",
                "dSSD_f speedup");
    for (std::size_t s = 0; s < n; ++s) {
        std::printf("%-14s  %12.1f  %13.2fx\n", kSchemes[s].label,
                    p99(0, s), p99(0, s) / p99(0, n - 1));
    }

    rule();
    banner("Fig 11(b)",
           "average p99 tail-latency reduction of dSSD_f across traces");
    double gain[n - 1] = {};
    for (std::size_t t = 0; t < std::size(traces); ++t)
        for (std::size_t s = 0; s + 1 < n; ++s)
            gain[s] += p99(t, s) / p99(t, n - 1);
    std::printf("%-14s  %22s\n", "vs scheme",
                "avg p99 reduction (x)");
    for (std::size_t s = 0; s + 1 < n; ++s) {
        std::printf("%-14s  %21.2fx\n", kSchemes[s].label,
                    gain[s] / std::size(traces));
    }
    return 0;
}
