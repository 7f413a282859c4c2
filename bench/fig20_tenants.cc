/**
 * @file
 * Fig 20: multi-tenant SLO compliance and tail latency under
 * open-loop fleet load, Baseline vs dSSD_f.
 *
 * Two experiments drive several tenants of the NVMe host front-end
 * (hil/nvme_host.hh) instead of the single closed-loop tenant the
 * other figures use:
 *
 *  (a) Load sweep: four identical tenants submit Poisson open-loop
 *      traffic at a swept aggregate rate. Offered load beyond device
 *      capacity builds real submission-queue backlog, so per-tenant
 *      p99.9 and SLO compliance collapse past the knee — the overload
 *      behavior a closed-loop driver cannot express.
 *
 *  (b) Noisy neighbor: one bursty heavy-tailed tenant (bounded-Pareto
 *      inter-arrivals, 8x on/off bursts) shares the device with three
 *      steady Poisson tenants. Round-robin arbitration lets the
 *      neighbor's bursts queue ahead of everyone; weighted-round-robin
 *      (steady tenants weighted 4:1) and strict priority (steady
 *      tenants one level up) keep the steady tenants' compliance high
 *      at the same offered load.
 *
 * The device-slot budget is kept below the summed queue depths so
 * arbitration — not the queues — decides admission order.
 *
 * Determinism: stdout, --json and --stats are byte-identical run to
 * run and for any --engine-threads value. The host front-end requires
 * the engine-group completion order, so --engine-threads=0 (the
 * legacy shared-engine path) is normalized to 1 here: every point
 * runs the SsdArray front-end, where 1 worker is the serial reference
 * and any N >= 1 is bit-identical to it (CI diffs 0 vs 1 vs 8).
 *
 * Overrides: --arbiter pins one policy, --slo retargets every
 * tenant's latency SLO, --arrival replaces the sweep's per-tenant
 * arrival spec, and --tenants replaces experiment (a)'s tenant set.
 */

#include <cstdio>
#include <vector>

#include "bench/harness.hh"
#include "sim/log.hh"

using namespace dssd;
using namespace dssd::bench;

namespace
{

constexpr ArchKind kArchs[] = {ArchKind::Baseline, ArchKind::DSSDNoc};
constexpr ArbiterPolicy kPolicies[] = {
    ArbiterPolicy::RoundRobin,
    ArbiterPolicy::WeightedRoundRobin,
    ArbiterPolicy::StrictPriority,
};
/// Aggregate offered load points, thousands of IOPS (split evenly
/// over the four tenants). The middle point sits near the reduced
/// geometry's service capacity; the last is firmly in overload.
constexpr double kLoadsKiops[] = {100.0, 250.0, 500.0};
/// Default per-tenant latency SLO (us); --slo overrides.
constexpr double kSloUs = 2000.0;
constexpr unsigned kTenants = 4;
constexpr unsigned kTenantQd = 32;
/// Shared device-slot budget; below kTenants * kTenantQd so the
/// arbiter is what orders admission.
constexpr unsigned kDeviceDepth = 16;

ExpParams
baseParams(const BenchOpts &o)
{
    ExpParams p;
    p.channels = 4;
    p.ways = o.full ? 4 : 2;
    p.planes = 4;
    p.blocksPerPlane = 16;
    p.pagesPerBlock = 16;
    p.bufferMode = BufferMode::Real;
    p.shards = 1;
    // Host front-end points always run the SsdArray/engine-group
    // path: 0 (legacy shared engine) normalizes to the 1-worker
    // serial reference so output is byte-identical for any value.
    p.engineThreads = std::max(1u, o.engineThreads);
    p.hostDeviceDepth = kDeviceDepth;
    p.window = 10 * tickMs;
    p.seed = o.seed;
    return p;
}

HostTenant
makeTenant(double slo_us, const ArrivalParams &arrival)
{
    HostTenant ht;
    ht.tenant.queueDepth = kTenantQd;
    ht.tenant.sloTargetUs = slo_us;
    ht.readRatio = 0.5;
    ht.sequential = false;
    ht.requestBytes = 4 * kKiB;
    ht.arrival = arrival;
    return ht;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOpts o = BenchOpts::parse(
        argc, argv,
        {"--full", "--seed", "--threads", "--json", "--trace-out", "--stats",
         "--engine-threads", "--timing", "--tenants", "--arbiter", "--arrival",
         "--slo"});
    JsonSeriesWriter json;
    banner("Fig 20",
           "multi-tenant SLO compliance vs open-loop load");

    double slo_us = o.sloUs > 0.0 ? o.sloUs : kSloUs;
    std::vector<ArbiterPolicy> policies;
    if (!o.arbiter.empty())
        policies.push_back(*parseArbiterPolicy(o.arbiter));
    else
        policies.assign(std::begin(kPolicies), std::end(kPolicies));

    //
    // (a) Load sweep: four identical Poisson tenants.
    //
    std::vector<ExpParams> ps;
    for (ArchKind k : kArchs) {
        for (ArbiterPolicy pol : policies) {
            for (double kiops : kLoadsKiops) {
                ExpParams p = baseParams(o);
                p.arch = k;
                p.arbiter = pol;
                std::vector<TenantParams> spec_tenants;
                if (!o.tenants.empty())
                    spec_tenants = *parseTenantSpec(o.tenants);
                unsigned n = spec_tenants.empty()
                                 ? kTenants
                                 : static_cast<unsigned>(
                                       spec_tenants.size());
                for (unsigned t = 0; t < n; ++t) {
                    ArrivalParams ap;
                    if (!o.arrival.empty()) {
                        ap = *parseArrivalSpec(o.arrival);
                    } else {
                        ap.kind = ArrivalKind::Poisson;
                        ap.iops = kiops * 1e3 / n;
                    }
                    HostTenant ht = makeTenant(slo_us, ap);
                    if (!spec_tenants.empty()) {
                        ht.tenant = spec_tenants[t];
                        if (ht.tenant.sloTargetUs == 0.0)
                            ht.tenant.sloTargetUs = slo_us;
                    }
                    p.hostTenants.push_back(ht);
                }
                ps.push_back(p);
            }
        }
    }

    //
    // (b) Noisy neighbor: tenant 0 bursty Pareto, tenants 1-3 steady
    // Poisson with 4x WRR weight and one priority level up.
    //
    std::size_t noisy_begin = ps.size();
    for (ArchKind k : kArchs) {
        for (ArbiterPolicy pol : policies) {
            ExpParams p = baseParams(o);
            p.arch = k;
            p.arbiter = pol;

            // The neighbor is noisy in bytes, not just arrivals:
            // 32 KiB requests mean round-robin's per-request fairness
            // hands it most of the device bandwidth, which is exactly
            // what byte-deficit WRR and strict priority correct.
            ArrivalParams noisy_ap;
            noisy_ap.kind = ArrivalKind::Pareto;
            noisy_ap.iops = 40e3;
            noisy_ap.paretoAlpha = 1.3;
            noisy_ap.burstFactor = 8.0;
            noisy_ap.burstOn = 1 * tickMs;
            noisy_ap.burstOff = 4 * tickMs;
            HostTenant noisy = makeTenant(slo_us, noisy_ap);
            noisy.tenant.name = "noisy";
            noisy.tenant.queueDepth = 64;
            noisy.requestBytes = 32 * kKiB;
            p.hostTenants.push_back(noisy);

            for (unsigned t = 1; t < kTenants; ++t) {
                ArrivalParams ap;
                ap.kind = ArrivalKind::Poisson;
                ap.iops = 80e3;
                HostTenant steady = makeTenant(slo_us, ap);
                steady.tenant.name = strformat("steady%u", t);
                steady.tenant.weight = 4;
                steady.tenant.priority = 1;
                p.hostTenants.push_back(steady);
            }
            ps.push_back(p);
        }
    }
    // Observability hooks go to one representative point: the dSSD_f
    // weighted-round-robin noisy-neighbor run (the configuration the
    // CI bit-identity diffs are about).
    for (std::size_t i = noisy_begin; i < ps.size(); ++i) {
        if (ps[i].arch == ArchKind::DSSDNoc &&
            ps[i].arbiter == ArbiterPolicy::WeightedRoundRobin) {
            ps[i].tracePath = o.traceOut;
            ps[i].statsPath = o.stats;
        }
    }

    auto label = [](const ExpParams &p) {
        return strformat("%s %s %zu tenants engine-threads=%u",
                         archName(p.arch), arbiterPolicyName(p.arbiter),
                         p.hostTenants.size(), p.engineThreads);
    };
    std::vector<double> wall_ms;
    std::vector<ExpResult> rs = runTimed(ps, o, label, wall_ms);

    std::size_t idx = 0;
    for (ArchKind k : kArchs) {
        for (ArbiterPolicy pol : policies) {
            std::printf("\n%s, arbiter %s, SLO %.0f us\n", archName(k),
                        arbiterPolicyName(pol), slo_us);
            std::printf("%-12s %10s %10s %12s %10s\n", "load(kIOPS)",
                        "p99_us", "p999_us", "min_compl", "dropped");
            for (double kiops : kLoadsKiops) {
                const ExpResult &r = rs[idx++];
                double min_compl = 1.0;
                std::uint64_t dropped = 0;
                for (const TenantResult &t : r.tenants) {
                    min_compl = std::min(min_compl, t.sloCompliance);
                    dropped += t.dropped;
                }
                std::printf("%-12.0f %10.1f %10.1f %12.4f %10llu\n",
                            kiops, r.p99LatencyUs, r.p999LatencyUs,
                            min_compl,
                            static_cast<unsigned long long>(dropped));
                const char *arb = arbiterPolicyName(pol);
                json.add(strformat("%s/%s/offered_kiops", archName(k),
                                   arb),
                         kiops);
                json.add(strformat("%s/%s/p999_us", archName(k), arb),
                         r.p999LatencyUs);
                json.add(strformat("%s/%s/min_compliance", archName(k),
                                   arb),
                         min_compl);
                if (o.timing) {
                    json.add(strformat("%s/%s/wall_ms", archName(k),
                                       arb),
                             wall_ms[idx - 1]);
                }
            }
            rule();
        }
    }

    std::printf("\nnoisy neighbor: bursty tenant 0 vs steady 1-3 "
                "(steady weight 4, priority 1)\n");
    std::printf("%-10s %-8s %12s %14s %14s %12s\n", "arch", "arbiter",
                "noisy_compl", "steady_compl", "steady_p999", "dropped");
    for (std::size_t i = noisy_begin; i < ps.size(); ++i) {
        const ExpParams &p = ps[i];
        const ExpResult &r = rs[i];
        double steady_compl = 1.0;
        double steady_p999 = 0.0;
        std::uint64_t dropped = 0;
        for (std::size_t t = 1; t < r.tenants.size(); ++t) {
            steady_compl =
                std::min(steady_compl, r.tenants[t].sloCompliance);
            steady_p999 =
                std::max(steady_p999, r.tenants[t].p999LatencyUs);
        }
        for (const TenantResult &t : r.tenants)
            dropped += t.dropped;
        std::printf("%-10s %-8s %12.4f %14.4f %14.1f %12llu\n",
                    archName(p.arch), arbiterPolicyName(p.arbiter),
                    r.tenants[0].sloCompliance, steady_compl,
                    steady_p999,
                    static_cast<unsigned long long>(dropped));
        const char *arb = arbiterPolicyName(p.arbiter);
        json.add(strformat("%s/%s/noisy/steady_compliance",
                           archName(p.arch), arb),
                 steady_compl);
        json.add(strformat("%s/%s/noisy/noisy_compliance",
                           archName(p.arch), arb),
                 r.tenants[0].sloCompliance);
        json.add(strformat("%s/%s/noisy/steady_p999_us",
                           archName(p.arch), arb),
                 steady_p999);
    }
    rule();

    json.writeIfRequested(o, "fig20_tenants");
    return 0;
}
