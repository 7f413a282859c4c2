/**
 * @file
 * Fig 14: (a) bad superblocks vs data written for BASELINE / RECYCLED
 * / RESERV; (b) endurance improvement vs block-wear variation, with
 * WAS as the software upper bound; (c) the I/O-latency overhead of
 * WAS's RBER scans as the number of scanned blocks grows.
 *
 * Every EnduranceSim / scan-overhead point is an independent seeded
 * simulation, so each sub-figure fans out over the harness worker
 * pool and prints afterwards in sweep order.
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
eparams(bool full, std::uint64_t seed)
{
    EnduranceParams p;
    p.channels = 8;
    p.superblocks = full ? 4096 : 1024;
    p.pagesPerBlock = 32;
    p.pageBytes = 16 * kKiB;
    if (full) {
        p.wear.peMean = 5578.0;
        p.wear.peSigma = 826.9;
    } else {
        // Scaled wear, same sigma/mean ratio as Table 1.
        p.wear.peMean = 800.0;
        p.wear.peSigma = 118.6;
    }
    p.reservedFraction = 0.07;
    p.stopBadFraction = 0.5;
    p.seed = seed;
    return p;
}

void
printCurve(const char *label, const EnduranceResult &r, unsigned steps)
{
    std::printf("\n[%s] bad superblocks vs data written (TB)\n", label);
    std::size_t n = r.curve.size();
    std::size_t stride = std::max<std::size_t>(1, n / steps);
    for (std::size_t i = 0; i < n; i += stride) {
        std::printf("  %10.3f TB  ->  %6u bad\n",
                    r.curve[i].dataWrittenBytes / 1e12,
                    r.curve[i].badSuperblocks);
    }
    std::printf("  first bad superblock at %.3f TB\n",
                r.dataUntilFirstBad() / 1e12);
}

/** Mean write latency (us) with @p scan_blocks WAS probe reads. */
double
scanOverheadLatency(unsigned scan_blocks)
{
    SsdConfig c = makeConfig(ArchKind::Baseline);
    c.geom.channels = 8;
    c.geom.ways = 4;
    c.geom.planesPerDie = 4;
    c.geom.blocksPerPlane = 16;
    c.geom.pagesPerBlock = 16;
    c.writeBuffer.mode = BufferMode::AlwaysMiss;
    Engine e;
    Ssd ssd(e, c);
    ssd.prefill(0.6, 0.1);
    SyntheticParams sp;
    sp.requestBytes = 4 * kKiB;
    sp.footprintBytes = 8 * kMiB;
    sp.count = 0;
    SyntheticGenerator gen(sp);
    NvmeHost host(
        e,
        [&ssd](const IoRequest &r, Engine::Callback cb) {
            ssd.submit(r, std::move(cb));
        },
        NvmeHostParams{});
    TenantParams tp;
    tp.queueDepth = 64;
    host.addTenant(tp, gen);
    host.start();
    // Spread scan reads over the window.
    const Tick window = 20 * tickMs;
    if (scan_blocks > 0) {
        Tick gap = window / scan_blocks;
        for (unsigned i = 0; i < scan_blocks; ++i) {
            e.scheduleAbs(1 + static_cast<Tick>(i) * gap, [&ssd, i] {
                Lpn probe = (static_cast<Lpn>(i) * 131) %
                            ssd.mapping().lpnCount();
                ssd.readPage(probe, [] {});
            });
        }
    }
    e.runUntil(window);
    host.stop();
    e.run();
    return host.writeLatency().mean() / tickUs;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOpts o = BenchOpts::parse(
        argc, argv, {"--full", "--seed", "--threads", "--json"});
    unsigned threads = o.resolvedThreads();
    JsonSeriesWriter json;

    banner("Fig 14(a)", "lifetime: bad superblocks vs data written");
    const SuperblockScheme schemes_a[] = {SuperblockScheme::Baseline,
                                          SuperblockScheme::Recycled,
                                          SuperblockScheme::Reserv};
    std::vector<EnduranceResult> ra(3);
    parallelFor(3, threads, [&](std::size_t i) {
        EnduranceParams p = eparams(o.full, o.seed);
        p.scheme = schemes_a[i];
        ra[i] = EnduranceSim(p).run();
    });
    const EnduranceResult &rb = ra[0], &rr = ra[1], &rs = ra[2];
    printCurve("BASELINE", rb, 12);
    printCurve("RECYCLED", rr, 12);
    printCurve("RESERV (7%)", rs, 12);
    EnduranceParams pa = eparams(o.full, o.seed);
    double frac = 0.10;
    std::printf("\nendurance at %.0f%% bad superblocks (data written, "
                "normalized to BASELINE):\n",
                100 * frac);
    double base = rb.dataUntilBadFraction(frac, pa.superblocks);
    std::printf("  BASELINE  1.000\n");
    std::printf("  RECYCLED  %.3f\n",
                rr.dataUntilBadFraction(frac, pa.superblocks) / base);
    std::printf("  RESERV    %.3f\n",
                rs.dataUntilBadFraction(frac, pa.superblocks) / base);
    std::printf("  RESERV first-bad delay: %.1f%%\n",
                100.0 * (rs.dataUntilFirstBad() / rb.dataUntilFirstBad() -
                         1.0));
    json.add("a/recycled_norm",
             rr.dataUntilBadFraction(frac, pa.superblocks) / base);
    json.add("a/reserv_norm",
             rs.dataUntilBadFraction(frac, pa.superblocks) / base);

    rule();
    banner("Fig 14(b)", "endurance improvement vs block-wear variation");
    std::printf("%-12s  %10s  %10s  %10s   (norm to BASELINE)\n",
                "sigma/mean", "RECYCLED", "RESERV", "WAS");
    const double rels[] = {0.05, 0.10, 0.148, 0.20, 0.30};
    const SuperblockScheme schemes_b[] = {SuperblockScheme::Baseline,
                                          SuperblockScheme::Recycled,
                                          SuperblockScheme::Reserv,
                                          SuperblockScheme::Was};
    // Flat grid: rels x (baseline + 3 schemes).
    std::vector<double> data_b(5 * 4);
    parallelFor(data_b.size(), threads, [&](std::size_t i) {
        EnduranceParams pv = eparams(o.full, o.seed);
        pv.wear.peSigma = rels[i / 4] * pv.wear.peMean;
        pv.scheme = schemes_b[i % 4];
        data_b[i] = EnduranceSim(pv).run().dataUntilBadFraction(
            frac, pv.superblocks);
    });
    for (std::size_t r = 0; r < 5; ++r) {
        double b = data_b[r * 4];
        double recycled = data_b[r * 4 + 1] / b;
        double reserv = data_b[r * 4 + 2] / b;
        double was = data_b[r * 4 + 3] / b;
        std::printf("%-12.3f  %10.3f  %10.3f  %10.3f\n", rels[r],
                    recycled, reserv, was);
        json.add("b/recycled", recycled);
        json.add("b/reserv", reserv);
        json.add("b/was", was);
    }

    rule();
    banner("Fig 14(c)", "WAS RBER-scan overhead on average I/O latency");
    // WAS reads >= one page per block over the front-end to refresh
    // endurance estimates; model the scan as extra host-path reads
    // concurrent with a synthetic write workload.
    std::printf("%-14s  %14s  %12s\n", "blocks scanned",
                "avg lat (us)", "norm");
    const unsigned scans[] = {0u,     2048u,  8192u,
                              32768u, 65536u, 131072u};
    std::vector<double> lat_c(6);
    parallelFor(lat_c.size(), threads, [&](std::size_t i) {
        lat_c[i] = scanOverheadLatency(scans[i]);
    });
    double norm = lat_c[0];
    for (std::size_t i = 0; i < lat_c.size(); ++i) {
        std::printf("%-14u  %14.1f  %12.2f\n", scans[i], lat_c[i],
                    lat_c[i] / norm);
        json.add("c/avg_lat_us", lat_c[i]);
    }
    json.writeIfRequested(o, "fig14_lifetime");
    return 0;
}
