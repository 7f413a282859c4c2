/**
 * @file
 * Ablation: dynamic superblock management in the *timed* simulator.
 *
 * Complements the fast-path lifetime study (bench_fig14_lifetime) by
 * running STATIC / RECYCLED / RESERV through the full datapath on a
 * dSSD_f, so the cost side of the trade is visible: how much time the
 * hardware repair (same-channel global copyback of one sub-block)
 * costs versus the conventional whole-superblock relocation, and how
 * wall-clock-per-byte evolves as the device wears out.
 */

#include <cstdio>

#include "bench/harness.hh"
#include "core/dsm.hh"

using namespace dssd;
using namespace dssd::bench;

namespace
{

void
runScheme(DsmScheme scheme, bool full, std::uint64_t seed)
{
    SsdConfig c = makeConfig(ArchKind::DSSDNoc);
    c.geom = paperTlcGeometry();
    c.geom.blocksPerPlane = full ? 64 : 24;
    c.geom.pagesPerBlock = full ? 32 : 8;
    c.timing = tlcTiming();
    Engine engine;
    Ssd ssd(engine, c);
    SuperblockMapping map(c.geom);

    DsmParams p;
    p.scheme = scheme;
    p.wear.peMean = full ? 200 : 60;
    p.wear.peSigma = 0.148 * p.wear.peMean;
    p.reservedFraction = 0.07;
    p.seed = seed;

    DynamicSuperblockEngine eng(ssd, map, p);
    eng.run(full ? 20000 : 4000, [] {});
    engine.run();

    const DsmStats &s = eng.stats();
    double tb = static_cast<double>(s.bytesWritten) / 1e12;
    double sec = ticksToSec(engine.now());
    std::printf("%-9s  %8llu  %10.4f  %8.3f  %6u  %8llu  %10llu  %10llu\n",
                dsmSchemeName(scheme),
                static_cast<unsigned long long>(s.cycles), tb, sec,
                s.deadSuperblocks,
                static_cast<unsigned long long>(s.remapEvents),
                static_cast<unsigned long long>(s.repairPagesCopied),
                static_cast<unsigned long long>(s.deathPagesCopied));
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOpts o = BenchOpts::parse(argc, argv, {"--full", "--seed"});
    banner("Ablation",
           "dynamic superblock management through the timed datapath "
           "(dSSD_f, TLC)");
    std::printf("%-9s  %8s  %10s  %8s  %6s  %8s  %10s  %10s\n", "scheme",
                "cycles", "written(TB)", "simtime", "dead", "remaps",
                "repairpgs", "deathpgs");
    for (DsmScheme s :
         {DsmScheme::Static, DsmScheme::Recycled, DsmScheme::Reserv})
        runScheme(s, o.full, o.seed);
    std::printf("\nReading the table: RECYCLED/RESERV convert expensive "
                "whole-superblock deaths (deathpgs, via the front-end-free "
                "GC path) into cheap single-sub-block repairs (repairpgs, "
                "same-channel copyback), sustaining more written bytes "
                "before the pool collapses.\n");
    return 0;
}
