/**
 * @file
 * Sec 6.5: area-overhead accounting of the dSSD additions (integrated
 * ECC, fNoC routers, dBUFs, SRT/RBT tables).
 */

#include <cstdio>

#include "bench/harness.hh"
#include "overhead/area.hh"

using namespace dssd;
using namespace dssd::bench;

int
main(int argc, char **argv)
{
    BenchOpts::parse(argc, argv, {});
    banner("Sec 6.5", "dSSD hardware overhead");

    AreaParams p;
    AreaReport r = computeArea(p);
    std::printf("SSD controller reference area: %.0f mm^2 (8 channels)\n\n",
                p.controllerAreaMm2);
    std::printf("%-24s  %10s  %10s\n", "component", "area(mm^2)",
                "overhead");
    std::printf("%-24s  %10.3f  %9.2f%%\n", "ECC engines (8x LDPC)",
                r.eccAreaMm2, r.eccPct);
    std::printf("%-24s  %10.3f  %9.2f%%\n", "fNoC routers (8x)",
                r.routerAreaMm2, r.routerPct);
    std::printf("%-24s  %10.3f  %9.2f%%\n", "dBUFs (8x 2x32KB)",
                r.dbufAreaMm2, r.dbufPct);
    std::printf("%-24s  %10s  %9.2f%%\n", "total", "", r.totalPct);

    std::printf("\nper-controller tables:\n");
    std::printf("  SRT (%zu entries x %u bits): %.0f B\n", p.srtEntries,
                p.srtEntryBits, r.srtBytesPerController);
    std::printf("  RBT (no reservation):        %.0f B\n",
                r.rbtBytesPerController);
    AreaParams pr = p;
    pr.reservedFraction = 0.07;
    pr.blocksPerChannel = 2768;
    AreaReport rr = computeArea(pr);
    std::printf("  RBT (RESERV 7%%):             %.0f B (~1 KB/channel)\n",
                rr.rbtBytesPerController);
    return 0;
}
