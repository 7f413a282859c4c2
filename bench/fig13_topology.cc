/**
 * @file
 * Fig 13: (a) GC performance of 1-D mesh / ring / crossbar fNoCs at
 * equal bisection bandwidth; (b) sensitivity to router buffer size.
 *
 * All grid points run through the parallel sweep runner and print in
 * sweep order afterwards.
 */

#include <cstdio>
#include <vector>

#include "bench/harness.hh"
#include "noc/topology.hh"
#include "sim/log.hh"

using namespace dssd;
using namespace dssd::bench;

namespace
{

ExpParams
gcParams(const std::string &topo, double bisection_gb, unsigned buffers,
         std::uint64_t seed)
{
    auto t = makeTopology(topo, 8);
    ExpParams p;
    p.arch = ArchKind::DSSDNoc;
    p.channels = 8;
    p.ways = 2;
    p.planes = 4;
    p.queueDepth = 0;
    p.nocTopology = topo;
    p.nocLinkGb = bisection_gb / t->bisectionLinks();
    p.nocBuffers = buffers;
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
    const char *topos[] = {"mesh", "ring", "crossbar"};
    const double bisections[] = {0.5, 1.0, 2.0, 4.0};
    const unsigned buffers[] = {1u, 2u, 4u, 8u};
    const double bisections_b[] = {0.5, 2.0};

    std::vector<ExpParams> ps;
    for (double bb : bisections)
        for (const char *t : topos)
            ps.push_back(gcParams(t, bb, 4, o.seed));
    std::size_t part_b = ps.size();
    for (unsigned buf : buffers) {
        for (double bb : bisections_b) {
            ps.push_back(gcParams("mesh", bb, buf, o.seed));
            ps.push_back(gcParams("ring", bb, buf, o.seed));
        }
    }
    std::vector<ExpResult> rs = runExperiments(ps, o.resolvedThreads());

    JsonSeriesWriter json;
    banner("Fig 13(a)",
           "GC performance vs bisection bandwidth, equal across "
           "topologies");
    std::printf("%-12s  %10s  %10s  %10s   (GC pages/s)\n", "Bb(GB/s)",
                "mesh", "ring", "crossbar");
    std::size_t idx = 0;
    for (double bb : bisections) {
        std::printf("%-12.1f", bb);
        for (const char *t : topos) {
            double v = rs[idx++].gcPagesPerSec;
            std::printf("  %10.0f", v);
            json.add(strformat("a/%s", t), v);
        }
        std::printf("\n");
    }

    rule();
    banner("Fig 13(b)", "router buffer-size sensitivity");
    std::printf("%-10s  %-12s  %10s  %10s   (GC pages/s)\n", "buffers",
                "Bb(GB/s)", "mesh", "ring");
    idx = part_b;
    for (unsigned buf : buffers) {
        for (double bb : bisections_b) {
            std::printf("%-10u  %-12.1f", buf, bb);
            double mesh = rs[idx++].gcPagesPerSec;
            double ring = rs[idx++].gcPagesPerSec;
            std::printf("  %10.0f", mesh);
            std::printf("  %10.0f\n", ring);
            json.add("b/mesh", mesh);
            json.add("b/ring", ring);
        }
    }
    std::printf("\nExpected shape: mesh ~ crossbar at sufficient Bb; "
                "ring trails (serialization); buffers matter only when "
                "bandwidth is scarce.\n");
    json.writeIfRequested(o, "fig13_topology");
    return 0;
}
