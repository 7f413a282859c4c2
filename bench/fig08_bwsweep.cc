/**
 * @file
 * Fig 8: I/O and GC performance improvement (normalized to Baseline)
 * as total on-chip bandwidth scales x1.25..x4, for the low- and
 * high-bandwidth flash scenarios, comparing Baseline-with-more-bus
 * (BW) against dSSD_f with the same total bandwidth.
 *
 * Sweep points are independent simulations, so they fan out across the
 * harness worker pool (--threads N); rows print in sweep order either
 * way.
 */

#include <cstdio>
#include <vector>

#include "bench/harness.hh"
#include "sim/log.hh"

using namespace dssd;
using namespace dssd::bench;

namespace
{

constexpr double kFactors[] = {1.25, 1.5, 2.0, 3.0, 4.0};
constexpr ArchKind kArchs[] = {ArchKind::BW, ArchKind::DSSDNoc};

void
sweep(const char *label, std::uint64_t req_bytes, const BenchOpts &o,
      JsonSeriesWriter &json)
{
    ExpParams base;
    base.channels = 8;
    base.ways = o.full ? 8 : 4;
    base.planes = 8;
    base.blocksPerPlane = o.full ? 32 : 16;
    base.pagesPerBlock = o.full ? 32 : 16;
    base.requestBytes = req_bytes;
    base.bufferMode = BufferMode::Real;
    base.window = 25 * tickMs;
    base.seed = o.seed;

    // Point 0 is the Baseline normalizer; the rest is the sweep grid.
    std::vector<ExpParams> ps;
    ExpParams p0 = base;
    p0.arch = ArchKind::Baseline;
    ps.push_back(p0);
    for (double f : kFactors) {
        for (ArchKind k : kArchs) {
            ExpParams p = base;
            p.arch = k;
            p.onChipFactor = f;
            ps.push_back(p);
        }
    }
    std::vector<ExpResult> rs = runExperiments(ps, o.resolvedThreads());
    const ExpResult &r0 = rs[0];

    std::printf("\n[%s flash: %llu KB writes]\n", label,
                static_cast<unsigned long long>(req_bytes / kKiB));
    std::printf("%-8s  %-8s  %10s  %10s\n", "factor", "config",
                "IO(norm)", "GC(norm)");
    std::size_t idx = 1;
    for (double f : kFactors) {
        for (ArchKind k : kArchs) {
            const ExpResult &r = rs[idx++];
            double io = r.ioBytesPerSec / r0.ioBytesPerSec;
            double gc = r.gcPagesPerSec / r0.gcPagesPerSec;
            std::printf("x%-7.2f  %-8s  %10.3f  %10.3f\n", f,
                        archName(k), io, gc);
            json.add(strformat("%s/%s/io_norm", label, archName(k)), io);
            json.add(strformat("%s/%s/gc_norm", label, archName(k)), gc);
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOpts o = BenchOpts::parse(
        argc, argv, {"--full", "--seed", "--threads", "--json"});
    JsonSeriesWriter json;
    banner("Fig 8", "performance vs amount of on-chip bandwidth");
    sweep("low", 4 * kKiB, o, json);
    rule();
    sweep("high", 128 * kKiB, o, json);
    json.writeIfRequested(o, "fig08_bwsweep");
    return 0;
}
