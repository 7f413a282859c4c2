/**
 * @file
 * Table 2: the five architecture configurations and their bandwidth
 * provisioning (equal total on-chip bandwidth for all non-baselines).
 */

#include <cstdio>

#include "bench/harness.hh"

using namespace dssd;
using namespace dssd::bench;

int
main(int argc, char **argv)
{
    BenchOpts::parse(argc, argv, {});
    banner("Table 2", "architecture configurations compared");
    std::printf("%-10s  %10s  %12s  %10s  %s\n", "name", "sys-bus",
                "interconnect", "total", "description");
    struct Row
    {
        ArchKind arch;
        const char *desc;
    };
    const Row rows[] = {
        {ArchKind::Baseline, "conventional SSD with parallel GC"},
        {ArchKind::BW, "baseline + extra system-bus bandwidth"},
        {ArchKind::DSSD, "decoupled SSD, copyback over system bus"},
        {ArchKind::DSSDBus, "dSSD + dedicated flash-controller bus"},
        {ArchKind::DSSDNoc, "dSSD + fNoC (1-D mesh)"},
    };
    for (const Row &r : rows) {
        SsdConfig c = makeConfig(r.arch);
        double sb = toGbPerSec(c.effectiveSystemBusBandwidth());
        double ic = isDecoupled(r.arch) &&
                            r.arch != ArchKind::DSSD
                        ? toGbPerSec(c.interconnectBandwidth())
                        : 0.0;
        std::printf("%-10s  %8.2fGB/s  %10.2fGB/s  %8.2fGB/s  %s\n",
                    archName(r.arch), sb, ic, sb + ic, r.desc);
    }
    return 0;
}
