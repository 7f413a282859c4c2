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

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

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

[[noreturn]] void
usage()
{
    std::printf(
        "usage: dssd_sim [options]\n"
        "  --arch=A        baseline|bw|dssd|dssd_b|dssd_f (default dssd_f)\n"
        "  --policy=P      pagc|preemptive|tinytail (default pagc)\n"
        "  --gc-policy=P   victim selection: greedy|costbenefit|windowed\n"
        "                  (default greedy)\n"
        "  --alloc-policy=P  host-write allocation: rr|conflict\n"
        "                  (default rr)\n"
        "  --gc-preempt    preemptible/partial GC rounds\n"
        "  --trace=NAME    replay a named trace profile (prn_0, ...)\n"
        "  --req-kb=N      synthetic request size in KB (default 4)\n"
        "  --read-ratio=R  fraction of reads (default 0)\n"
        "  --random        random offsets (default sequential)\n"
        "  --buffer=B      real|hit|miss (default miss)\n"
        "  --qd=N          queue depth (default 64)\n"
        "  --tenants=SPEC  multi-tenant host front-end: a count or\n"
        "                  ';'-separated \"qd:N,w:N,prio:N,rate:B,\n"
        "                  burst:B,slo:US,name:S\" groups\n"
        "  --arbiter=P     submission-queue arbitration: rr|wrr|prio\n"
        "                  (default rr; needs --tenants)\n"
        "  --arrival=SPEC  open-loop arrivals for every tenant:\n"
        "                  closed | poisson:IOPS | pareto:IOPS[:ALPHA]\n"
        "                  [,diurnal:AMP[:PERIOD_MS]]\n"
        "                  [,burst:FACTOR[:ON_MS[:OFF_MS]]]\n"
        "  --slo=US        per-tenant latency SLO target in us\n"
        "                  (tenants with slo:0 inherit it)\n"
        "  --shards=N      run an N-shard SsdArray front-end (default 1)\n"
        "  --engine-threads=N  per-shard engines under the conservative\n"
        "                  engine group with N workers (0 = one shared\n"
        "                  engine; any N >= 1 is bit-identical to N=1)\n"
        "  --array-gc=P    array GC coordination policy: uncoordinated|\n"
        "                  staggered|token|greedy (default uncoordinated)\n"
        "  --parity        rotating-parity striping + degraded reads\n"
        "                  (needs --shards >= 2)\n"
        "  --window-ms=N   measurement window, whole ms (default 30)\n"
        "  --channels=N --ways=N --planes=N   geometry (8/4/8)\n"
        "  --blocks=N --pages=N               per-plane geometry (16/16)\n"
        "  --tlc           TLC timing and 16 KB pages (default ULL)\n"
        "  --topology=T    mesh|ring|crossbar for dSSD_f (default mesh)\n"
        "  --factor=F      on-chip bandwidth factor (default 1.25)\n"
        "  --no-gc         do not force GC during the window\n"
        "  --srt-remaps=N  pre-populate N SRT remaps per channel\n"
        "  --faults        enable the fault-injection model\n"
        "  --fault-seed=N  fault-model RNG seed (implies --faults)\n"
        "  --rber-scale=F  scale raw-bit-error severity (implies --faults)\n"
        "  --seed=N\n"
        "  --seeds=N       replicate over seeds seed..seed+N-1\n"
        "  --threads=N     worker threads for --seeds (default: all)\n"
        "  --trace-out=F   write a Chrome trace_event JSON of the run\n"
        "  --stats=F       dump the stat registry as JSON (- = stdout)\n");
    std::exit(1);
}

bool
flagValue(const char *arg, const char *name, const char **out)
{
    std::size_t n = std::strlen(name);
    if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') {
        *out = arg + n + 1;
        return true;
    }
    return false;
}

ArchKind
parseArch(const std::string &s)
{
    if (s == "baseline")
        return ArchKind::Baseline;
    if (s == "bw")
        return ArchKind::BW;
    if (s == "dssd")
        return ArchKind::DSSD;
    if (s == "dssd_b")
        return ArchKind::DSSDBus;
    if (s == "dssd_f")
        return ArchKind::DSSDNoc;
    fatal("unknown arch '%s'", s.c_str());
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
    fatal("unknown policy '%s'", s.c_str());
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
    fatal("unknown buffer mode '%s'", s.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    ExpParams p;
    p.arch = ArchKind::DSSDNoc;
    std::string trace;
    std::string tenants_spec;
    std::string arrival_spec;
    double slo_us = 0.0;
    unsigned seeds = 1;
    unsigned threads = 0;

    for (int i = 1; i < argc; ++i) {
        const char *v = nullptr;
        if (flagValue(argv[i], "--arch", &v))
            p.arch = parseArch(v);
        else if (flagValue(argv[i], "--policy", &v))
            p.gcPolicy = parsePolicy(v);
        else if (flagValue(argv[i], "--gc-policy", &v)) {
            if (!isVictimPolicy(v))
                fatal("unknown --gc-policy '%s' (supported: greedy "
                      "costbenefit windowed)",
                      v);
            p.victimPolicy = v;
        } else if (flagValue(argv[i], "--alloc-policy", &v)) {
            if (!isAllocPolicy(v))
                fatal("unknown --alloc-policy '%s' (supported: rr "
                      "conflict)",
                      v);
            p.allocPolicy = v;
        } else if (std::strcmp(argv[i], "--gc-preempt") == 0)
            p.gcPreempt = true;
        else if (flagValue(argv[i], "--trace", &v))
            trace = v;
        else if (flagValue(argv[i], "--req-kb", &v))
            p.requestBytes = parseUnsignedOpt("--req-kb", v, 1, kMiB) * kKiB;
        else if (flagValue(argv[i], "--read-ratio", &v))
            p.readRatio = parseRealOpt("--read-ratio", v, 0.0, 1.0);
        else if (std::strcmp(argv[i], "--random") == 0)
            p.sequential = false;
        else if (flagValue(argv[i], "--buffer", &v))
            p.bufferMode = parseBuffer(v);
        else if (flagValue(argv[i], "--qd", &v))
            p.queueDepth = static_cast<unsigned>(
                parseUnsignedOpt("--qd", v, 1, kMaxQueueDepth));
        else if (flagValue(argv[i], "--tenants", &v))
            tenants_spec = v;
        else if (flagValue(argv[i], "--arbiter", &v)) {
            auto policy = parseArbiterPolicy(v);
            if (!policy)
                fatal("unknown --arbiter policy '%s' (supported: rr "
                      "wrr prio)",
                      v);
            p.arbiter = *policy;
        } else if (flagValue(argv[i], "--arrival", &v))
            arrival_spec = v;
        else if (flagValue(argv[i], "--slo", &v))
            slo_us = parseRealOpt("--slo", v, 0.0, INFINITY, true);
        else if (flagValue(argv[i], "--shards", &v))
            p.shards = static_cast<unsigned>(
                parseUnsignedOpt("--shards", v, 1, kMaxParallelism));
        else if (flagValue(argv[i], "--array-gc", &v)) {
            auto policy = parseArrayGcPolicy(v);
            if (!policy) {
                fatal("unknown --array-gc policy '%s' (supported: "
                      "uncoordinated staggered token greedy)",
                      v);
            }
            p.arrayGc = *policy;
        } else if (std::strcmp(argv[i], "--parity") == 0)
            p.parity = true;
        else if (flagValue(argv[i], "--engine-threads", &v))
            p.engineThreads = static_cast<unsigned>(
                parseUnsignedOpt("--engine-threads", v, 0, kMaxParallelism));
        else if (flagValue(argv[i], "--window-ms", &v))
            p.window = msToTicks(static_cast<double>(
                parseUnsignedOpt("--window-ms", v, 1, kMaxWindowMs)));
        else if (flagValue(argv[i], "--channels", &v))
            p.channels = geometryOpt("--channels", v);
        else if (flagValue(argv[i], "--ways", &v))
            p.ways = geometryOpt("--ways", v);
        else if (flagValue(argv[i], "--planes", &v))
            p.planes = geometryOpt("--planes", v);
        else if (flagValue(argv[i], "--blocks", &v))
            p.blocksPerPlane = geometryOpt("--blocks", v);
        else if (flagValue(argv[i], "--pages", &v))
            p.pagesPerBlock = geometryOpt("--pages", v);
        else if (std::strcmp(argv[i], "--tlc") == 0)
            p.tlc = true;
        else if (flagValue(argv[i], "--topology", &v))
            p.nocTopology = v;
        else if (flagValue(argv[i], "--factor", &v))
            p.onChipFactor = parseRealOpt("--factor", v, 0.0, INFINITY, true);
        else if (std::strcmp(argv[i], "--no-gc") == 0)
            p.runGc = false;
        else if (flagValue(argv[i], "--srt-remaps", &v))
            p.srtRemapsPerChannel = static_cast<unsigned>(
                parseUnsignedOpt("--srt-remaps", v, 0, UINT32_MAX));
        else if (std::strcmp(argv[i], "--faults") == 0)
            p.fault.enabled = true;
        else if (flagValue(argv[i], "--fault-seed", &v)) {
            p.fault.enabled = true;
            p.fault.seed = parseUnsignedOpt("--fault-seed", v, 0);
        } else if (flagValue(argv[i], "--rber-scale", &v)) {
            p.fault.enabled = true;
            p.fault.rberScale =
                parseRealOpt("--rber-scale", v, 0.0, INFINITY);
        }
        else if (flagValue(argv[i], "--trace-out", &v))
            p.tracePath = v;
        else if (flagValue(argv[i], "--stats", &v))
            p.statsPath = v;
        else if (flagValue(argv[i], "--seeds", &v))
            seeds = static_cast<unsigned>(
                parseUnsignedOpt("--seeds", v, 1, kMaxSeeds));
        else if (flagValue(argv[i], "--seed", &v))
            p.seed = parseUnsignedOpt("--seed", v, 0);
        else if (flagValue(argv[i], "--threads", &v))
            threads = static_cast<unsigned>(
                parseUnsignedOpt("--threads", v, 0, kMaxParallelism));
        else
            usage();
    }
    if (!trace.empty())
        p.traceName = trace.c_str();

    if (!tenants_spec.empty()) {
        auto ts = parseTenantSpec(tenants_spec);
        if (!ts)
            fatal("bad --tenants spec '%s'", tenants_spec.c_str());
        ArrivalParams ap;
        if (!arrival_spec.empty()) {
            auto parsed = parseArrivalSpec(arrival_spec);
            if (!parsed)
                fatal("bad --arrival spec '%s'", arrival_spec.c_str());
            ap = *parsed;
        }
        for (TenantParams &t : *ts) {
            if (t.sloTargetUs == 0.0)
                t.sloTargetUs = slo_us;
            HostTenant ht;
            ht.tenant = t;
            ht.readRatio = p.readRatio;
            ht.sequential = p.sequential;
            ht.requestBytes = p.requestBytes;
            ht.arrival = ap;
            p.hostTenants.push_back(ht);
        }
    } else if (!arrival_spec.empty() || slo_us > 0.0) {
        fatal("--arrival/--slo need --tenants");
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
        std::vector<ExpResult> rs = runExperiments(ps, threads);
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
                    arrival_spec.empty() ? "closed"
                                         : arrival_spec.c_str());
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
