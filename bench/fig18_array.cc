/**
 * @file
 * Fig 18: host-bandwidth scaling of the sharded SsdArray front-end,
 * 1 to 8 shards, Baseline vs dSSD_f, under a write-heavy workload with
 * forced GC.
 *
 * Every shard is a full independent device (its own FTL, write buffer,
 * GC, channels, and — on dSSD_f — decoupled controllers and fNoC), so
 * aggregate host bandwidth should scale close to linearly with the
 * shard count while per-shard GC interference keeps the same shape the
 * single-device figures show. The queue depth scales with the shard
 * count so the host keeps every shard loaded.
 */

#include <cstdio>
#include <vector>

#include "bench/harness.hh"
#include "sim/log.hh"

using namespace dssd;
using namespace dssd::bench;

namespace
{

constexpr unsigned kShards[] = {1, 2, 4, 8};
constexpr ArchKind kArchs[] = {ArchKind::Baseline, ArchKind::DSSDNoc};

} // namespace

int
main(int argc, char **argv)
{
    BenchOpts o = BenchOpts::parse(
        argc, argv,
        {"--full", "--seed", "--threads", "--json", "--trace-out", "--stats",
         "--engine-threads", "--timing"});
    JsonSeriesWriter json;
    banner("Fig 18", "host bandwidth scaling with SsdArray shards");

    ExpParams base;
    base.channels = 8;
    base.ways = o.full ? 8 : 4;
    base.planes = 8;
    base.blocksPerPlane = o.full ? 32 : 16;
    base.pagesPerBlock = o.full ? 32 : 16;
    base.requestBytes = 4 * kKiB;
    base.readRatio = 0.0;
    base.sequential = true;
    base.bufferMode = BufferMode::Real;
    base.window = 10 * tickMs;
    base.seed = o.seed;

    std::vector<ExpParams> ps;
    for (ArchKind k : kArchs) {
        for (unsigned s : kShards) {
            ExpParams p = base;
            p.arch = k;
            p.shards = s;
            p.engineThreads = o.engineThreads;
            // Keep per-shard load constant: QD 32 per shard.
            p.queueDepth = 32 * s;
            ps.push_back(p);
        }
    }
    // Observability hooks go to one representative point: dSSD_f at
    // the largest shard count (the configuration the scaling and CI
    // bit-identity claims are about).
    for (ExpParams &p : ps) {
        if (p.arch == ArchKind::DSSDNoc &&
            p.shards == kShards[std::size(kShards) - 1]) {
            p.tracePath = o.traceOut;
            p.statsPath = o.stats;
        }
    }

    auto label = [](const ExpParams &p) {
        return strformat("%s shards=%u engine-threads=%u",
                         archName(p.arch), p.shards, p.engineThreads);
    };
    std::vector<double> wall_ms;
    std::vector<ExpResult> rs = runTimed(ps, o, label, wall_ms);

    std::printf("\n%-8s  %-7s  %12s  %9s  %12s\n", "config", "shards",
                "IO BW", "scaling", "GC pages/s");
    std::size_t idx = 0;
    for (ArchKind k : kArchs) {
        double bw1 = 0;
        for (unsigned s : kShards) {
            const ExpResult &r = rs[idx++];
            if (s == 1)
                bw1 = r.ioBytesPerSec;
            double scaling = bw1 > 0 ? r.ioBytesPerSec / bw1 : 0;
            std::printf("%-8s  %-7u  %12s  %8.2fx  %12.0f\n",
                        archName(k), s,
                        formatBandwidth(r.ioBytesPerSec).c_str(),
                        scaling, r.gcPagesPerSec);
            json.add(strformat("%s/io_gbps", archName(k)),
                     r.ioBytesPerSec / 1e9);
            json.add(strformat("%s/scaling", archName(k)), scaling);
            if (o.timing) {
                json.add(strformat("%s/wall_ms", archName(k)),
                         wall_ms[idx - 1]);
            }
        }
        rule();
    }
    json.writeIfRequested(o, "fig18_array");
    return 0;
}
