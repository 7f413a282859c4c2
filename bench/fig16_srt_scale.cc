/**
 * @file
 * Fig 16: (a) endurance improvement vs SRT capacity for growing SSD
 * capacities (number of superblocks); (b) active SRT entries vs
 * remapping events for RECYCLED and RESERV with an unbounded SRT.
 *
 * Every endurance run fans out over the harness worker pool; tables
 * print afterwards in sweep order.
 */

#include <cstdio>
#include <vector>

#include "bench/harness.hh"
#include "reliability/endurance.hh"
#include "sim/log.hh"

using namespace dssd;
using namespace dssd::bench;

namespace
{

EnduranceParams
eparams(std::uint32_t superblocks, std::uint64_t seed)
{
    EnduranceParams p;
    p.channels = 8;
    p.superblocks = superblocks;
    // Scaled wear so the largest capacity stays tractable; the
    // sigma/mean ratio matches Table 1.
    p.wear.peMean = 300.0;
    p.wear.peSigma = 44.4;
    p.stopBadFraction = 0.5;
    p.seed = seed;
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOpts o = BenchOpts::parse(
        argc, argv, {"--full", "--seed", "--threads", "--json"});
    unsigned threads = o.resolvedThreads();
    JsonSeriesWriter json;

    banner("Fig 16(a)",
           "endurance improvement vs SRT entries, by SSD capacity "
           "(norm to BASELINE)");
    const std::uint32_t caps_small[] = {512, 2048, 8192};
    const std::uint32_t caps_full[] = {4096, 32768, 131072};
    const std::uint32_t *caps = o.full ? caps_full : caps_small;
    const std::size_t entries[] = {16u, 64u, 256u, 1024u, 4096u};
    std::printf("%-12s", "SRT entries");
    for (int c = 0; c < 3; ++c)
        std::printf("  %8usb", caps[c]);
    std::printf("\n");
    // The BASELINE normalizer depends only on the capacity, so one run
    // per capacity serves every row; the RECYCLED grid is one run per
    // (entries x capacity) cell.
    std::vector<double> norm(3);
    parallelFor(norm.size(), threads, [&](std::size_t c) {
        EnduranceParams p = eparams(caps[c], o.seed);
        p.scheme = SuperblockScheme::Baseline;
        norm[c] = EnduranceSim(p).run().dataUntilBadFraction(
            0.10, p.superblocks);
    });
    std::vector<double> improved(5 * 3);
    parallelFor(improved.size(), threads, [&](std::size_t cell) {
        EnduranceParams p = eparams(caps[cell % 3], o.seed);
        p.scheme = SuperblockScheme::Recycled;
        p.srtCapacityPerChannel = entries[cell / 3];
        improved[cell] = EnduranceSim(p).run().dataUntilBadFraction(
            0.10, p.superblocks);
    });
    for (std::size_t e = 0; e < 5; ++e) {
        std::printf("%-12zu", entries[e]);
        for (std::size_t c = 0; c < 3; ++c) {
            double v = improved[e * 3 + c] / norm[c];
            std::printf("  %10.3f", v);
            json.add(strformat("a/%usb", caps[c]), v);
        }
        std::printf("\n");
    }

    rule();
    banner("Fig 16(b)",
           "active SRT entries vs remapping events (infinite SRT, "
           "channel 0)");
    const SuperblockScheme schemes[] = {SuperblockScheme::Recycled,
                                        SuperblockScheme::Reserv};
    std::vector<EnduranceResult> rb(2);
    parallelFor(2, threads, [&](std::size_t i) {
        EnduranceParams p = eparams(o.full ? 8192 : 2048, o.seed);
        p.scheme = schemes[i];
        p.srtCapacityPerChannel = 0;
        p.stopBadFraction = 0.9;
        p.reservedFraction = 0.07;
        rb[i] = EnduranceSim(p).run();
    });
    for (std::size_t i = 0; i < 2; ++i) {
        const EnduranceResult &r = rb[i];
        std::printf("\n[%s] (%zu samples, high-water %zu)\n",
                    schemeName(schemes[i]), r.srtActivity.size(),
                    r.srtHighWater);
        std::size_t n = r.srtActivity.size();
        std::size_t stride = std::max<std::size_t>(1, n / 10);
        for (std::size_t j = 0; j < n; j += stride) {
            std::printf("  remaps %8llu  ->  active %6zu\n",
                        static_cast<unsigned long long>(
                            r.srtActivity[j].remapEvents),
                        r.srtActivity[j].activeEntries);
        }
    }
    std::printf("\nExpected shape: active entries grow, then saturate "
                "once no static superblocks remain; RESERV sits "
                "higher.\n");
    json.writeIfRequested(o, "fig16_srt_scale");
    return 0;
}
