/**
 * @file
 * Fig 21: GC policy tournament — victim selection x allocation x
 * preemption, swept over architectures and workloads.
 *
 * The policy seam (ftl/policy.hh) makes victim selection and host
 * allocation interchangeable strategies; this bench races them.
 * Unlike the other figures, GC here is threshold-driven (gcForced
 * off): write amplification is the property under test, and forced
 * rounds would fix the GC rate by fiat. Each {arch, workload} block
 * runs every policy combination at QD 128 and reports the measured
 * WAF next to the latency tail:
 *
 *  - cost-benefit and windowed-greedy victim selection shed WAF on
 *    skewed (hot/cold) streams by giving hot blocks time to
 *    self-invalidate before collection;
 *  - the conflict-aware allocator steers host writes off planes busy
 *    with GC, trading stripe uniformity for tail latency;
 *  - preemptible GC (+pre) pauses rounds at copy-quantum granularity
 *    while host I/O is outstanding, which is where the p99.9 moves.
 *
 * The sweep is deterministic: stdout, --json and --stats are
 * byte-identical for any engine-group worker count >= 1 (CI diffs
 * --engine-threads=1 vs 8 and double-runs the default).
 */

#include <cstdio>
#include <vector>

#include "bench/harness.hh"
#include "sim/log.hh"

using namespace dssd;
using namespace dssd::bench;

namespace
{

struct Combo
{
    const char *name;   ///< table row / json key segment
    const char *victim; ///< VictimPolicy factory name
    const char *alloc;  ///< AllocPolicy factory name
    bool preempt;       ///< preemptible GC rounds
};

const Combo kCombos[] = {
    {"greedy+rr", "greedy", "rr", false},
    {"costbenefit+rr", "costbenefit", "rr", false},
    {"windowed+rr", "windowed", "rr", false},
    {"greedy+conflict", "greedy", "conflict", false},
    {"greedy+rr+pre", "greedy", "rr", true},
    {"costbenefit+conflict+pre", "costbenefit", "conflict", true},
};

struct Workload
{
    const char *name;
    double hotFraction;
    double hotAccessRatio;
};

const Workload kWorkloads[] = {
    {"uniform", 0.0, 0.0}, // uniform random, write-heavy
    {"hotcold", 0.2, 0.8}, // 80% of accesses on 20% of the footprint
};

constexpr ArchKind kArchs[] = {ArchKind::Baseline, ArchKind::DSSDNoc};
constexpr unsigned kQueueDepth = 128;

} // namespace

int
main(int argc, char **argv)
{
    BenchOpts o = BenchOpts::parse(
        argc, argv,
        {"--full", "--seed", "--threads", "--json", "--trace-out", "--stats",
         "--faults", "--fault-seed", "--engine-threads", "--timing"});
    JsonSeriesWriter json;
    banner("Fig 21",
           "GC policy tournament: WAF + p99.9 per {policy, arch, "
           "workload}");

    ExpParams base;
    base.channels = 4;
    base.ways = o.full ? 4 : 2;
    base.planes = 4;
    base.blocksPerPlane = 16;
    base.pagesPerBlock = 16;
    base.requestBytes = 4 * kKiB;
    base.readRatio = 0.2;
    base.sequential = false;
    // Always-miss buffering: the hot/cold working set is smaller than
    // the real write buffer, which would absorb the skewed stream
    // before the FTL ever saw it — WAF is an FTL property here.
    base.bufferMode = BufferMode::AlwaysMiss;
    // High utilization (65% of the logical space is live): victim
    // blocks carry enough valid pages that victim choice moves WAF.
    base.footprintFraction = 0.65;
    base.queueDepth = kQueueDepth;
    base.shards = 1;
    // Threshold-driven GC: the policies under test decide when and
    // what to collect; forced rounds would pin the GC rate.
    base.gcForced = false;
    base.window = 10 * tickMs;
    base.seed = o.seed;
    if (o.faults) {
        base.fault.enabled = true;
        base.fault.seed = o.faultSeed;
    }

    std::vector<ExpParams> ps;
    for (ArchKind k : kArchs) {
        for (const Workload &w : kWorkloads) {
            for (const Combo &c : kCombos) {
                ExpParams p = base;
                p.arch = k;
                p.hotFraction = w.hotFraction;
                p.hotAccessRatio = w.hotAccessRatio;
                p.victimPolicy = c.victim;
                p.allocPolicy = c.alloc;
                p.gcPreempt = c.preempt;
                p.engineThreads = o.engineThreads;
                ps.push_back(p);
            }
        }
    }
    // Observability hooks go to one representative point: dSSD_f,
    // hot/cold, the full-zoo combination — the configuration whose
    // policy-tagged ftl.policy.* stats the docs reference.
    for (ExpParams &p : ps) {
        if (p.arch == ArchKind::DSSDNoc && p.hotAccessRatio > 0.0 &&
            p.victimPolicy == std::string("costbenefit") &&
            p.gcPreempt) {
            p.tracePath = o.traceOut;
            p.statsPath = o.stats;
        }
    }

    auto label = [](const ExpParams &p) {
        return strformat("%s %s/%s%s engine-threads=%u",
                         archName(p.arch), p.victimPolicy.c_str(),
                         p.allocPolicy.c_str(), p.gcPreempt ? "+pre" : "",
                         p.engineThreads);
    };
    std::vector<double> wall_ms;
    std::vector<ExpResult> rs = runTimed(ps, o, label, wall_ms);

    std::size_t idx = 0;
    for (ArchKind k : kArchs) {
        for (const Workload &w : kWorkloads) {
            std::printf("\n%s, %s workload, QD %u\n", archName(k),
                        w.name, kQueueDepth);
            std::printf("%-26s %8s %10s %10s %12s\n", "policy", "WAF",
                        "p99 us", "p99.9 us", "gc pages");
            for (const Combo &c : kCombos) {
                const ExpResult &r = rs[idx++];
                std::printf("%-26s %8.3f %10.1f %10.1f %12llu\n",
                            c.name, r.waf, r.p99LatencyUs,
                            r.p999LatencyUs,
                            static_cast<unsigned long long>(
                                r.gcPagesMoved));
                json.add(strformat("%s/%s/%s/waf", archName(k), w.name,
                                   c.name),
                         r.waf);
                json.add(strformat("%s/%s/%s/p99_us", archName(k),
                                   w.name, c.name),
                         r.p99LatencyUs);
                json.add(strformat("%s/%s/%s/p999_us", archName(k),
                                   w.name, c.name),
                         r.p999LatencyUs);
                if (o.timing) {
                    json.add(strformat("%s/%s/%s/wall_ms", archName(k),
                                       w.name, c.name),
                             wall_ms[idx - 1]);
                }
            }
            rule();
        }
    }
    json.writeIfRequested(o, "fig21_tournament");
    return 0;
}
