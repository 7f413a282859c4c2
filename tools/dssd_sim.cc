/**
 * @file
 * dssd_sim — command-line front-end for the simulator.
 *
 * Runs any architecture / GC policy / workload combination and prints
 * the full statistics block (bandwidth, latency profile, per-component
 * breakdown, bus utilization, GC activity). Useful for exploring
 * configurations beyond the per-figure benches.
 *
 * Examples:
 *   dssd_sim --arch=dssd_f --req-kb=128 --window-ms=50
 *   dssd_sim --arch=baseline --policy=tinytail --trace=prn_0
 *   dssd_sim --arch=dssd_b --read-ratio=0.7 --random --buffer=real
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.hh"

using namespace dssd;
using namespace dssd::bench;

namespace
{

/// NVMe's ceiling on submission-queue entries.
constexpr std::uint64_t kMaxQueueDepth = 65536;
/// 11.6 simulated days: the window in ticks stays far from overflow.
constexpr std::uint64_t kMaxWindowMs = 1000000000;
/// --seeds runs one full experiment per seed.
constexpr std::uint64_t kMaxSeeds = 65536;

/** A geometry count (channels, ways, ...): at least 1. */
std::uint32_t
geometryOpt(const char *flag, const char *text)
{
    return static_cast<std::uint32_t>(
        parseUnsignedOpt(flag, text, 1, 65536));
}

GcPolicy
parsePolicy(const std::string &s)
{
    if (s == "pagc")
        return GcPolicy::Parallel;
    if (s == "preemptive")
        return GcPolicy::Preemptive;
    if (s == "tinytail")
        return GcPolicy::TinyTail;
    fatal("--policy needs pagc|preemptive|tinytail, got '%s'", s.c_str());
}

BufferMode
parseBuffer(const std::string &s)
{
    if (s == "real")
        return BufferMode::Real;
    if (s == "hit")
        return BufferMode::AlwaysHit;
    if (s == "miss")
        return BufferMode::AlwaysMiss;
    fatal("--buffer needs real|hit|miss, got '%s'", s.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    ExpParams p;
    p.arch = ArchKind::DSSDNoc;
    std::string trace;
    std::string topology;
    std::optional<ArrayGcPolicy> array_gc;
    unsigned seeds = 1;
    // The flags the benches take too: parsed into BenchOpts, then
    // copied into the experiment.
    BenchOpts o;

    std::vector<Option> table = {
        {"--arch", "A", "baseline|bw|dssd|dssd_b|dssd_f (default dssd_f)",
         [&](const char *v) {
             auto arch = parseArch(v);
             if (!arch)
                 fatal("--arch needs baseline|bw|dssd|dssd_b|dssd_f, "
                       "got '%s'", v);
             p.arch = *arch;
         }},
        {"--policy", "P", "GC scheduling: pagc|preemptive|tinytail",
         [&](const char *v) { p.gcPolicy = parsePolicy(v); }},
        {"--gc-policy", "P", "victim selection: greedy|costbenefit|windowed",
         [&](const char *v) {
             if (!isVictimPolicy(v))
                 fatal("--gc-policy needs greedy|costbenefit|windowed, "
                       "got '%s'", v);
             p.victimPolicy = v;
         }},
        {"--alloc-policy", "P", "host-write allocation: rr|conflict",
         [&](const char *v) {
             if (!isAllocPolicy(v))
                 fatal("--alloc-policy needs rr|conflict, got '%s'", v);
             p.allocPolicy = v;
         }},
        {"--gc-preempt", nullptr, "preemptible/partial GC rounds",
         [&](const char *) { p.gcPreempt = true; }},
        {"--trace", "NAME", "replay a named trace profile (prn_0, ...)",
         [&](const char *v) { trace = v; }},
        {"--req-kb", "N", "synthetic request size in KB (default 4)",
         [&](const char *v) {
             p.requestBytes = parseUnsignedOpt("--req-kb", v, 1, kMiB) * kKiB;
         }},
        {"--read-ratio", "R", "fraction of reads (default 0)",
         [&](const char *v) {
             p.readRatio = parseRealOpt("--read-ratio", v, 0.0, 1.0);
         }},
        {"--random", nullptr, "random offsets (default sequential)",
         [&](const char *) { p.sequential = false; }},
        {"--buffer", "B", "real|hit|miss (default miss)",
         [&](const char *v) { p.bufferMode = parseBuffer(v); }},
        {"--qd", "N", "queue depth (default 64)",
         [&](const char *v) {
             p.queueDepth = static_cast<unsigned>(
                 parseUnsignedOpt("--qd", v, 1, kMaxQueueDepth));
         }},
        {"--array-gc", "P", "array GC: uncoordinated|staggered|token|greedy",
         [&](const char *v) {
             array_gc = parseArrayGcPolicy(v);
             if (!array_gc)
                 fatal("--array-gc needs uncoordinated|staggered|token|"
                       "greedy, got '%s'", v);
         }},
        {"--parity", nullptr, "rotating-parity striping + degraded reads",
         [&](const char *) { p.parity = true; }},
        {"--window-ms", "N", "measurement window, whole ms (default 30)",
         [&](const char *v) {
             p.window = msToTicks(static_cast<double>(
                 parseUnsignedOpt("--window-ms", v, 1, kMaxWindowMs)));
         }},
        {"--channels", "N", "channels (default 8)",
         [&](const char *v) { p.channels = geometryOpt("--channels", v); }},
        {"--ways", "N", "ways per channel (default 4)",
         [&](const char *v) { p.ways = geometryOpt("--ways", v); }},
        {"--planes", "N", "planes per die (default 8)",
         [&](const char *v) { p.planes = geometryOpt("--planes", v); }},
        {"--blocks", "N", "blocks per plane (default 16)",
         [&](const char *v) {
             p.blocksPerPlane = geometryOpt("--blocks", v);
         }},
        {"--pages", "N", "pages per block (default 16)",
         [&](const char *v) { p.pagesPerBlock = geometryOpt("--pages", v); }},
        {"--tlc", nullptr, "TLC timing and 16 KB pages (default ULL)",
         [&](const char *) { p.tlc = true; }},
        {"--topology", "T", "dSSD_f's fNoC: mesh|ring|crossbar (default mesh)",
         [&](const char *v) {
             topology = v;
             if (topology != "mesh" && topology != "ring" &&
                 topology != "crossbar")
                 fatal("--topology needs mesh|ring|crossbar, got '%s'", v);
         }},
        {"--factor", "F", "on-chip bandwidth factor (default 1.25)",
         [&](const char *v) {
             p.onChipFactor = parseRealOpt("--factor", v, 0.0, INFINITY, true);
         }},
        {"--no-gc", nullptr, "do not force GC during the window",
         [&](const char *) { p.runGc = false; }},
        {"--srt-remaps", "N", "pre-populate N SRT remaps per channel",
         [&](const char *v) {
             p.srtRemapsPerChannel = static_cast<unsigned>(
                 parseUnsignedOpt("--srt-remaps", v, 0, UINT32_MAX));
         }},
        {"--rber-scale", "F", "scale raw-bit-error rates (implies --faults)",
         [&](const char *v) {
             p.fault.enabled = true;
             p.fault.rberScale =
                 parseRealOpt("--rber-scale", v, 0.0, INFINITY);
         }},
        {"--seeds", "N", "replicate over seeds seed..seed+N-1",
         [&](const char *v) {
             seeds = static_cast<unsigned>(
                 parseUnsignedOpt("--seeds", v, 1, kMaxSeeds));
         }},
    };
    std::vector<Option> shared = o.options(
        {"--seed", "--threads", "--trace-out", "--stats", "--faults",
         "--fault-seed", "--shards", "--engine-threads", "--tenants",
         "--arbiter", "--arrival", "--slo"});
    table.insert(table.end(), shared.begin(), shared.end());
    // The flags this run names, for the precondition checks below.
    std::set<std::string> given;
    for (Option &opt : table) {
        opt.set = [&given, name = opt.name,
                   set = std::move(opt.set)](const char *v) {
            given.insert(name);
            set(v);
        };
    }
    parseOptions(argc, argv, table);
    auto has = [&given](const char *flag) { return given.count(flag) > 0; };

    // A flag whose precondition is missing would change nothing.
    const std::pair<bool, const char *> unmet[] = {
        {!o.arbiter.empty() && o.tenants.empty(), "--arbiter needs --tenants"},
        {!o.arrival.empty() && o.tenants.empty(), "--arrival needs --tenants"},
        {o.sloUs > 0.0 && o.tenants.empty(), "--slo needs --tenants"},
        {p.parity && o.shards < 2, "--parity needs --shards >= 2"},
        {array_gc && o.shards < 2, "--array-gc needs --shards >= 2"},
        {!topology.empty() && p.arch != ArchKind::DSSDNoc,
         "--topology needs --arch=dssd_f"},
        // Baseline has no on-chip bandwidth to scale.
        {has("--factor") && p.arch == ArchKind::Baseline,
         "--factor needs --arch=bw|dssd|dssd_b|dssd_f"},
        {has("--srt-remaps") && !isDecoupled(p.arch),
         "--srt-remaps needs --arch=dssd|dssd_b|dssd_f"},
        {has("--threads") && seeds < 2, "--threads needs --seeds >= 2"},
        // A trace replaces the synthetic stream; tenants replace both
        // the trace and the single closed-loop queue.
        {has("--req-kb") && !trace.empty(),
         "--req-kb needs a synthetic workload, not --trace"},
        {has("--read-ratio") && !trace.empty(),
         "--read-ratio needs a synthetic workload, not --trace"},
        {has("--random") && !trace.empty(),
         "--random needs a synthetic workload, not --trace"},
        {has("--qd") && !o.tenants.empty(),
         "--qd needs the single host queue, not --tenants"},
        {!trace.empty() && !o.tenants.empty(),
         "--trace needs the single host queue, not --tenants"},
    };
    for (const auto &[missing, message] : unmet)
        if (missing)
            fatal("%s", message);

    p.seed = o.seed;
    p.tracePath = o.traceOut;
    p.statsPath = o.stats;
    if (o.faults) {
        p.fault.enabled = true;
        p.fault.seed = o.faultSeed;
    }
    p.shards = std::max(1u, o.shards);
    p.engineThreads = o.engineThreads;
    p.arrayGc = array_gc.value_or(p.arrayGc);
    if (!topology.empty())
        p.nocTopology = topology;
    if (!trace.empty())
        p.traceName = trace.c_str();
    if (!o.tenants.empty()) {
        if (!o.arbiter.empty())
            p.arbiter = *parseArbiterPolicy(o.arbiter);
        ArrivalParams ap;
        if (!o.arrival.empty())
            ap = *parseArrivalSpec(o.arrival);
        std::vector<TenantParams> ts = *parseTenantSpec(o.tenants);
        for (TenantParams &t : ts) {
            if (t.sloTargetUs == 0.0)
                t.sloTargetUs = o.sloUs;
            HostTenant ht;
            ht.tenant = t;
            ht.readRatio = p.readRatio;
            ht.sequential = p.sequential;
            ht.requestBytes = p.requestBytes;
            ht.arrival = ap;
            p.hostTenants.push_back(ht);
        }
    }

    if (seeds > 1) {
        // Seed-replication mode: fan the runs over the worker pool and
        // summarize per seed (results are printed in seed order and
        // independent of the thread count).
        std::vector<ExpParams> ps(seeds, p);
        for (unsigned i = 0; i < seeds; ++i) {
            ps[i].seed = p.seed + i;
            if (i > 0) {
                // One output file, one run: only the base seed traces.
                ps[i].tracePath.clear();
                ps[i].statsPath.clear();
            }
        }
        std::vector<ExpResult> rs = runExperiments(ps, o.threads);
        std::printf("dssd_sim: %s, %u seeds starting at %llu\n",
                    archName(p.arch), seeds,
                    static_cast<unsigned long long>(p.seed));
        std::printf("%-6s  %12s  %10s  %10s  %10s\n", "seed", "BW",
                    "avg(us)", "p99(us)", "p99.9(us)");
        for (unsigned i = 0; i < seeds; ++i) {
            const ExpResult &r = rs[i];
            std::printf("%-6llu  %12s  %10.1f  %10.1f  %10.1f\n",
                        static_cast<unsigned long long>(ps[i].seed),
                        formatBandwidth(r.ioBytesPerSec).c_str(),
                        r.avgLatencyUs, r.p99LatencyUs, r.p999LatencyUs);
        }
        return 0;
    }

    std::printf("dssd_sim: %s, %ux%ux%u %s, %s%s, QD %u, window %.0f ms, "
                "GC %s (%s)\n",
                archName(p.arch), p.channels, p.ways, p.planes,
                p.tlc ? "TLC" : "ULL",
                p.traceName ? p.traceName
                            : strformat("%.0f%%rd %s %lluKB",
                                        100 * p.readRatio,
                                        p.sequential ? "seq" : "rand",
                                        (unsigned long long)(
                                            p.requestBytes / kKiB))
                                  .c_str(),
                p.shards > 1
                    ? strformat(", %u shards%s%s", p.shards,
                                p.arrayGc != ArrayGcPolicy::Uncoordinated
                                    ? strformat(" [%s]",
                                                arrayGcPolicyName(
                                                    p.arrayGc))
                                          .c_str()
                                    : "",
                                p.parity ? " +parity" : "")
                          .c_str()
                    : "",
                p.queueDepth, ticksToMs(p.window),
                p.runGc ? "on" : "off", gcPolicyName(p.gcPolicy));
    if (!p.hostTenants.empty()) {
        std::printf("host: %zu tenants, arbiter %s, arrival %s\n",
                    p.hostTenants.size(), arbiterPolicyName(p.arbiter),
                    o.arrival.empty() ? "closed" : o.arrival.c_str());
    }

    ExpResult r = runExperiment(p);

    std::printf("\nI/O bandwidth      : %s (%llu requests)\n",
                formatBandwidth(r.ioBytesPerSec).c_str(),
                static_cast<unsigned long long>(r.ioCompleted));
    std::printf("latency avg/p99/p99.9 : %.1f / %.1f / %.1f us\n",
                r.avgLatencyUs, r.p99LatencyUs, r.p999LatencyUs);
    for (std::size_t t = 0; t < r.tenants.size(); ++t) {
        const TenantResult &tr = r.tenants[t];
        std::printf("tenant %-12zu: %s, avg/p99/p99.9 "
                    "%.1f/%.1f/%.1f us, SLO %.4f (%llu violations, "
                    "%llu dropped)\n",
                    t, formatBandwidth(tr.ioBytesPerSec).c_str(),
                    tr.avgLatencyUs, tr.p99LatencyUs, tr.p999LatencyUs,
                    tr.sloCompliance,
                    static_cast<unsigned long long>(tr.sloViolations),
                    static_cast<unsigned long long>(tr.dropped));
    }
    std::printf("GC                 : %llu pages moved, %.0f pages/s\n",
                static_cast<unsigned long long>(r.gcPagesMoved),
                r.gcPagesPerSec);
    std::printf("system bus util    : I/O %.1f%%, GC %.1f%%\n",
                100 * r.busIoUtil, 100 * r.busGcUtil);
    LatencyBreakdown &io = r.ioBreakdown;
    std::printf("I/O breakdown (us) : flash %.1f, fbus %.1f, sbus %.1f, "
                "dram %.1f, ecc %.1f, noc %.1f, fw %.1f\n",
                ticksToUs(io.flashMem), ticksToUs(io.flashBus),
                ticksToUs(io.systemBus), ticksToUs(io.dram),
                ticksToUs(io.ecc), ticksToUs(io.noc),
                ticksToUs(io.other));
    LatencyBreakdown &cb = r.cbBreakdown;
    std::printf("copyback breakdown : flash %.1f, fbus %.1f, sbus %.1f, "
                "dram %.1f, ecc %.1f, noc %.1f\n",
                ticksToUs(cb.flashMem), ticksToUs(cb.flashBus),
                ticksToUs(cb.systemBus), ticksToUs(cb.dram),
                ticksToUs(cb.ecc), ticksToUs(cb.noc));
    return 0;
}
