/**
 * @file
 * Fig 9: latency breakdown for (a) I/O requests and (b) copyback as
 * the number of planes grows, Baseline vs dSSD_f. Components: flash
 * memory (array), flash bus, system bus, DRAM, ECC, fNoC.
 */

#include <cstdio>

#include "bench/harness.hh"

using namespace dssd;
using namespace dssd::bench;

namespace
{

void
printRow(const ExpParams &p, const LatencyBreakdown &bd)
{
    std::printf("%-8s  %6u  %9.1f  %9.1f  %9.1f  %8.1f  %7.1f  %7.1f\n",
                archName(p.arch), p.planes, ticksToUs(bd.flashMem),
                ticksToUs(bd.flashBus), ticksToUs(bd.systemBus),
                ticksToUs(bd.dram), ticksToUs(bd.ecc),
                ticksToUs(bd.noc));
}

void
header()
{
    std::printf("%-8s  %6s  %9s  %9s  %9s  %8s  %7s  %7s\n", "config",
                "planes", "flash(us)", "fbus(us)", "sbus(us)",
                "dram(us)", "ecc(us)", "noc(us)");
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOpts o = BenchOpts::parse(
        argc, argv, {"--seed", "--threads", "--trace-out", "--stats"});
    // One run per point gives both its I/O and its copyback breakdown.
    std::vector<ExpParams> ps;
    for (unsigned planes : {1u, 2u, 4u, 8u}) {
        for (ArchKind k : {ArchKind::Baseline, ArchKind::DSSDNoc}) {
            ExpParams p;
            p.arch = k;
            p.channels = 8;
            p.ways = 4;
            p.planes = planes;
            p.blocksPerPlane = 16;
            p.pagesPerBlock = 16;
            p.requestBytes = 4 * kKiB * planes;
            p.bufferMode = BufferMode::AlwaysMiss;
            p.window = 20 * tickMs;
            p.seed = o.seed;
            if (planes == 8 && k == ArchKind::DSSDNoc) {
                // Fig 9 *is* the span instrumentation summed per
                // component; attach the trace to the densest point so
                // the breakdown bars can be eyeballed against the
                // per-request spans in Perfetto.
                p.tracePath = o.traceOut;
                p.statsPath = o.stats;
            }
            ps.push_back(p);
        }
    }
    std::vector<ExpResult> rs = runExperiments(ps, o.resolvedThreads());

    banner("Fig 9", "latency breakdown vs number of planes");
    std::printf("\n(a) I/O request latency breakdown\n");
    header();
    for (std::size_t i = 0; i < ps.size(); ++i)
        printRow(ps[i], rs[i].ioBreakdown);

    std::printf("\n(b) copyback latency breakdown\n");
    header();
    for (std::size_t i = 0; i < ps.size(); ++i)
        printRow(ps[i], rs[i].cbBreakdown);
    return 0;
}
