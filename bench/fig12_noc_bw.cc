/**
 * @file
 * Fig 12: GC performance as the fNoC router-channel bandwidth is
 * varied (expressed as a ratio to the 1 GB/s flash-channel bandwidth),
 * for (a) different channel counts and (b) different ways per channel.
 *
 * Both grids are batched through the parallel sweep runner; printing
 * happens afterwards in sweep order, so the tables are identical for
 * any --threads value.
 */

#include <cstdio>
#include <vector>

#include "bench/harness.hh"
#include "sim/log.hh"

using namespace dssd;
using namespace dssd::bench;

namespace
{

ExpParams
gcParams(unsigned channels, unsigned ways, double ratio,
         std::uint64_t seed)
{
    ExpParams p;
    p.arch = ArchKind::DSSDNoc;
    p.channels = channels;
    p.ways = ways;
    p.planes = 4;
    p.blocksPerPlane = 16;
    p.pagesPerBlock = 16;
    p.queueDepth = 0; // pure GC traffic, as in the Fig 12 study
    p.nocLinkGb = ratio * 1.0;
    p.window = 40 * tickMs;
    p.gcVictims = 4;
    p.seed = seed;
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOpts o = BenchOpts::parse(
        argc, argv, {"--seed", "--threads", "--json"});
    const double ratios[] = {0.25, 0.5, 1.0, 2.0, 4.0};
    const unsigned chans[] = {4u, 8u, 16u};
    const unsigned ways[] = {1u, 2u, 4u, 8u};

    // One batch covers both sub-figures.
    std::vector<ExpParams> ps;
    for (double ratio : ratios)
        for (unsigned ch : chans)
            ps.push_back(gcParams(ch, 1, ratio, o.seed));
    std::size_t part_b = ps.size();
    for (double ratio : ratios)
        for (unsigned w : ways)
            ps.push_back(gcParams(8, w, ratio, o.seed));
    std::vector<ExpResult> rs = runExperiments(ps, o.resolvedThreads());

    JsonSeriesWriter json;
    banner("Fig 12(a)",
           "GC performance vs router-channel bandwidth, by #channels");
    std::printf("%-10s", "ratio");
    for (unsigned ch : chans)
        std::printf("  %8uch", ch);
    std::printf("   (GC pages/s)\n");
    std::size_t idx = 0;
    for (double ratio : ratios) {
        std::printf("x%-9.2f", ratio);
        for (unsigned ch : chans) {
            double v = rs[idx++].gcPagesPerSec;
            std::printf("  %10.0f", v);
            json.add(strformat("a/%uch", ch), v);
        }
        std::printf("\n");
    }

    rule();
    banner("Fig 12(b)",
           "GC performance vs router-channel bandwidth, by ways "
           "(8 channels)");
    std::printf("%-10s", "ratio");
    for (unsigned w : ways)
        std::printf("  %7uway", w);
    std::printf("   (GC pages/s)\n");
    idx = part_b;
    for (double ratio : ratios) {
        std::printf("x%-9.2f", ratio);
        for (unsigned w : ways) {
            double v = rs[idx++].gcPagesPerSec;
            std::printf("  %10.0f", v);
            json.add(strformat("b/%uway", w), v);
        }
        std::printf("\n");
    }
    std::printf("\nExpected shape: saturation near x2 for 8 channels "
                "(bisection = N/2 x flash-channel bandwidth).\n");
    json.writeIfRequested(o, "fig12_noc_bw");
    return 0;
}
