/**
 * @file
 * Table 1: prints the simulation parameters actually instantiated by
 * the default configuration so they can be checked against the paper.
 */

#include <cstdio>

#include "bench/harness.hh"

using namespace dssd;
using namespace dssd::bench;

int
main(int argc, char **argv)
{
    BenchOpts::parse(argc, argv, {});
    banner("Table 1", "simulation parameters");

    SsdConfig c = makeConfig(ArchKind::DSSDNoc, false);
    std::printf("system-bus        : %s\n",
                formatBandwidth(
                    toGbPerSec(c.effectiveSystemBusBandwidth()) * 1e9)
                    .c_str());
    std::printf("DRAM              : %s\n",
                formatBandwidth(toGbPerSec(c.dramBandwidth) * 1e9)
                    .c_str());
    std::printf("flash bus         : %s\n",
                formatBandwidth(toGbPerSec(c.channel.busBandwidth) * 1e9)
                    .c_str());
    std::printf("geometry          : %u channels x %u ways x %u dies x "
                "%u planes\n",
                c.geom.channels, c.geom.ways, c.geom.diesPerWay,
                c.geom.planesPerDie);
    std::printf("blocks x pages    : %u x %u (%llu KB pages)\n",
                c.geom.blocksPerPlane, c.geom.pagesPerBlock,
                static_cast<unsigned long long>(c.geom.pageBytes / kKiB));
    std::printf("capacity          : %.1f GiB raw\n",
                static_cast<double>(c.geom.capacityBytes()) / kGiB);
    std::printf("over-provision    : %.0f%%\n", 100 * c.overProvision);

    NandTiming ull = ullTiming();
    std::printf("flash (ULL)       : read %.0f us, write %.0f us, "
                "erase %.0f ms\n",
                ticksToUs(ull.readMin), ticksToUs(ull.programMin),
                ticksToMs(ull.erase));
    NandTiming tlc = tlcTiming();
    std::printf("memory (TLC)      : read %.0f-%.0f us, write "
                "%.0f-%.0f us, erase %.0f ms\n",
                ticksToUs(tlc.readMin), ticksToUs(tlc.readMax),
                ticksToUs(tlc.programMin), ticksToUs(tlc.programMax),
                ticksToMs(tlc.erase));
    std::printf("wear model        : gaussian E=5578, sigma=826.9, "
                "7%% provision\n");
    std::printf("fNoC              : topology=%s, k=%u, n=1, "
                "routing=dim-order\n",
                c.nocTopology.c_str(), c.geom.channels);
    return 0;
}
