/**
 * @file
 * Fig 19: array tail latency vs load under array-level GC
 * coordination and rotating parity, Baseline vs dSSD_f.
 *
 * Uncoordinated per-shard GC is what destroys array-level tail
 * latency: a striped request is as slow as whichever shard happens to
 * be collecting, so at high load the array p99.9 degenerates to the
 * per-shard GC latency. The sweep compares the ArrayGcScheduler
 * policies (uncoordinated / staggered / token / greedy) across queue
 * depths, with parity off and on: parity adds one parity-page write
 * per data write (stolen bandwidth) but lets reads reconstruct from
 * the N-1 peer shards while their data shard holds a GC grant, which
 * is where the degraded-read path earns its keep.
 *
 * Every point runs the same forced-GC interference loop the other
 * figures use, so GC pressure persists over the whole window. The
 * whole sweep is deterministic: stdout, --json and --stats are
 * byte-identical run to run (CI diffs two runs). --engine-threads=1
 * runs the engine group; 0 (the default) is the legacy shared-engine
 * timing model, where the scheduler still makes the same grant
 * decisions (unit-tested) but same-tick I/O interleavings — and
 * hence percentiles — legitimately differ.
 */

#include <cstdio>
#include <vector>

#include "bench/harness.hh"
#include "sim/log.hh"

using namespace dssd;
using namespace dssd::bench;

namespace
{

constexpr unsigned kShards = 4;
constexpr unsigned kDepths[] = {8, 32, 128};
constexpr ArchKind kArchs[] = {ArchKind::Baseline, ArchKind::DSSDNoc};
constexpr ArrayGcPolicy kPolicies[] = {
    ArrayGcPolicy::Uncoordinated,
    ArrayGcPolicy::Staggered,
    ArrayGcPolicy::TokenBucket,
    ArrayGcPolicy::GlobalGreedy,
};
constexpr bool kParity[] = {false, true};

} // namespace

int
main(int argc, char **argv)
{
    BenchOpts o = BenchOpts::parse(
        argc, argv,
        {"--full", "--seed", "--threads", "--json", "--trace-out", "--stats",
         "--engine-threads", "--timing"});
    JsonSeriesWriter json;
    banner("Fig 19",
           "array p99/p99.9 vs load: GC coordination + parity");

    ExpParams base;
    base.channels = 4;
    base.ways = o.full ? 4 : 2;
    base.planes = 4;
    base.blocksPerPlane = 16;
    base.pagesPerBlock = 16;
    base.requestBytes = 4 * kKiB;
    base.readRatio = 0.5;
    base.sequential = false;
    base.bufferMode = BufferMode::Real;
    base.shards = kShards;
    base.window = 10 * tickMs;
    base.seed = o.seed;

    std::vector<ExpParams> ps;
    for (ArchKind k : kArchs) {
        for (bool parity : kParity) {
            for (ArrayGcPolicy policy : kPolicies) {
                for (unsigned qd : kDepths) {
                    ExpParams p = base;
                    p.arch = k;
                    p.parity = parity;
                    p.arrayGc = policy;
                    p.queueDepth = qd;
                    p.engineThreads = o.engineThreads;
                    ps.push_back(p);
                }
            }
        }
    }
    // Observability hooks go to one representative point: dSSD_f,
    // parity on, staggered, highest load — the configuration the
    // degraded-read and CI bit-identity claims are about.
    for (ExpParams &p : ps) {
        if (p.arch == ArchKind::DSSDNoc && p.parity &&
            p.arrayGc == ArrayGcPolicy::Staggered &&
            p.queueDepth == kDepths[std::size(kDepths) - 1]) {
            p.tracePath = o.traceOut;
            p.statsPath = o.stats;
        }
    }

    auto label = [](const ExpParams &p) {
        return strformat("%s %s%s qd=%u engine-threads=%u",
                         archName(p.arch), arrayGcPolicyName(p.arrayGc),
                         p.parity ? "+parity" : "", p.queueDepth,
                         p.engineThreads);
    };
    std::vector<double> wall_ms;
    std::vector<ExpResult> rs = runTimed(ps, o, label, wall_ms);

    std::size_t idx = 0;
    for (ArchKind k : kArchs) {
        for (bool parity : kParity) {
            std::printf("\n%s, %u shards, parity %s\n", archName(k),
                        kShards, parity ? "on" : "off");
            std::printf("%-14s", "policy");
            for (unsigned qd : kDepths)
                std::printf("  %7s%-3u %7s%-3u %7s%-3u", "p99@", qd,
                            "p999@", qd, "rdp999@", qd);
            std::printf("\n");
            for (ArrayGcPolicy policy : kPolicies) {
                std::printf("%-14s", arrayGcPolicyName(policy));
                for (std::size_t d = 0; d < std::size(kDepths); ++d) {
                    const ExpResult &r = rs[idx++];
                    std::printf("  %10.1f %10.1f %10.1f",
                                r.p99LatencyUs, r.p999LatencyUs,
                                r.readP999LatencyUs);
                    const char *par = parity ? "parity" : "noparity";
                    json.add(strformat("%s/%s/%s/p99_us", archName(k),
                                       par, arrayGcPolicyName(policy)),
                             r.p99LatencyUs);
                    json.add(strformat("%s/%s/%s/p999_us", archName(k),
                                       par, arrayGcPolicyName(policy)),
                             r.p999LatencyUs);
                    json.add(strformat("%s/%s/%s/read_p999_us",
                                       archName(k), par,
                                       arrayGcPolicyName(policy)),
                             r.readP999LatencyUs);
                    if (o.timing) {
                        json.add(strformat("%s/%s/%s/wall_ms",
                                           archName(k), par,
                                           arrayGcPolicyName(policy)),
                                 wall_ms[idx - 1]);
                    }
                }
                std::printf("\n");
            }
            rule();
        }
    }
    json.writeIfRequested(o, "fig19_arraygc");
    return 0;
}
