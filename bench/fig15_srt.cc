/**
 * @file
 * Fig 15: (a) worst-case synthetic performance impact as the number
 * of active SRT entries grows (ULL vs TLC, read vs write); (b) the
 * endurance/performance-overhead metric per trace, grouped into read-
 * and write-intensive sets (RESERV dSSD vs BASELINE).
 *
 * The synthetic grid and the per-trace pairs batch through the
 * parallel sweep runner; printing stays in sweep order.
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

ExpParams
latParams(bool tlc, double read_ratio, unsigned srt_entries,
          const char *trace, std::uint64_t seed)
{
    ExpParams p;
    p.arch = ArchKind::DSSDNoc;
    p.channels = 8;
    p.ways = 4;
    p.planes = tlc ? 2 : 8;
    // Enough blocks per channel (>= 2048) that the SRT-entry sweep is
    // not capped by device size.
    p.blocksPerPlane = tlc ? 256 : 64;
    p.pagesPerBlock = 16;
    p.tlc = tlc;
    p.readRatio = read_ratio;
    p.sequential = false;
    p.requestBytes = tlc ? 16 * kKiB : 4 * kKiB;
    p.bufferMode = BufferMode::AlwaysMiss;
    p.traceName = trace;
    p.srtRemapsPerChannel = srt_entries;
    p.srtCapacity = 4096;
    p.runGc = false; // isolate the remapping effect
    p.window = 20 * tickMs;
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

    banner("Fig 15(a)",
           "performance impact vs active SRT entries (random I/O, "
           "normalized to 0 entries)");
    std::printf("%-8s  %10s  %10s  %10s  %10s\n", "entries", "ULL-rd",
                "ULL-wr", "TLC-rd", "TLC-wr");
    const unsigned entries[] = {0u, 128u, 512u, 1024u, 2048u};
    // Per entry count: ULL-read, ULL-write, TLC-read, TLC-write.
    std::vector<ExpParams> ps;
    for (unsigned n : entries) {
        ps.push_back(latParams(false, 1.0, n, nullptr, o.seed));
        ps.push_back(latParams(false, 0.0, n, nullptr, o.seed));
        ps.push_back(latParams(true, 1.0, n, nullptr, o.seed));
        ps.push_back(latParams(true, 0.0, n, nullptr, o.seed));
    }
    std::vector<ExpResult> rs = runExperiments(ps, threads);
    const char *cols[4] = {"ull_rd", "ull_wr", "tlc_rd", "tlc_wr"};
    double base[4] = {0, 0, 0, 0};
    for (std::size_t e = 0; e < 5; ++e) {
        double v[4];
        for (int i = 0; i < 4; ++i)
            v[i] = rs[e * 4 + static_cast<std::size_t>(i)].avgLatencyUs;
        if (entries[e] == 0)
            for (int i = 0; i < 4; ++i)
                base[i] = v[i];
        std::printf("%-8u  %10.3f  %10.3f  %10.3f  %10.3f\n", entries[e],
                    v[0] / base[0], v[1] / base[1], v[2] / base[2],
                    v[3] / base[3]);
        for (int i = 0; i < 4; ++i)
            json.add(strformat("a/%s", cols[i]), v[i] / base[i]);
    }

    rule();
    banner("Fig 15(b)",
           "endurance / performance-overhead metric per trace "
           "(RESERV vs BASELINE; higher is better)");
    // Endurance gain of RESERV, shared by all traces.
    const SuperblockScheme eschemes[] = {SuperblockScheme::Baseline,
                                         SuperblockScheme::Reserv};
    std::vector<double> edata(2);
    parallelFor(2, threads, [&](std::size_t i) {
        EnduranceParams ep;
        ep.superblocks = o.full ? 4096 : 1024;
        ep.wear.peMean = o.full ? 5578.0 : 800.0;
        ep.wear.peSigma = 0.148 * ep.wear.peMean;
        ep.seed = o.seed;
        ep.scheme = eschemes[i];
        edata[i] = EnduranceSim(ep).run().dataUntilBadFraction(
            0.10, ep.superblocks);
    });
    double endurance_gain = edata[1] / edata[0];
    std::printf("RESERV endurance gain: %.3f\n\n", endurance_gain);

    std::printf("%-10s  %-6s  %12s  %12s\n", "trace", "class",
                "perf ovhd", "metric");
    const char *traces[] = {"usr_2", "hm_1", "web_0", "proj_3",
                            "prn_0", "src1_2", "proj_0", "rsrch_0"};
    // Per trace: remap-free baseline, then the steady-state active
    // remap population — a ~12% slice of the channel's blocks (Fig
    // 16(b) saturates near this level), not the worst-case full-device
    // remapping of Fig 15(a).
    std::vector<ExpParams> tp;
    for (const char *t : traces) {
        tp.push_back(latParams(true, 0, 0, t, o.seed));
        tp.push_back(latParams(true, 0, 256, t, o.seed));
    }
    std::vector<ExpResult> tr = runExperiments(tp, threads);
    double sum_read = 0, sum_write = 0;
    int n_read = 0, n_write = 0;
    for (std::size_t i = 0; i < 8; ++i) {
        const char *t = traces[i];
        TraceProfile prof = traceProfile(t);
        double lat0 = tr[i * 2].avgLatencyUs;
        double lat1 = tr[i * 2 + 1].avgLatencyUs;
        double ovhd = lat1 / lat0;
        double metric = endurance_gain / ovhd;
        bool rd = isReadIntensive(prof);
        std::printf("%-10s  %-6s  %12.3f  %12.3f\n", t,
                    rd ? "read" : "write", ovhd, metric);
        json.add("b/perf_ovhd", ovhd);
        json.add("b/metric", metric);
        if (rd) {
            sum_read += metric;
            ++n_read;
        } else {
            sum_write += metric;
            ++n_write;
        }
    }
    std::printf("\naverage metric (read-intensive):  %.3f\n",
                sum_read / n_read);
    std::printf("average metric (write-intensive): %.3f\n",
                sum_write / n_write);
    std::printf("(BASELINE metric = 1.0 by construction)\n");
    json.writeIfRequested(o, "fig15_srt");
    return 0;
}
