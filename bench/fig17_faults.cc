/**
 * @file
 * Fig 17 (extension): behaviour under media faults — (a) effective
 * bandwidth and tail latency vs. raw-bit-error-rate scale for Baseline
 * vs. dSSD_f, (b) superblock deaths per DSM scheme when random media
 * faults are merged into the wear model.
 *
 * The paper's figures assume a healthy device; this bench turns on the
 * fault-injection subsystem (src/fault) and sweeps its severity. Two
 * effects should be visible:
 *
 *  - the recovery ladder (read-retry rounds, soft decode, front-end
 *    re-reads of failed copybacks) costs Baseline more tail than
 *    dSSD_f, because Baseline recovers over the shared front-end while
 *    the decoupled controllers absorb most retries locally;
 *  - RECYCLED/RESERV repair faulted sub-blocks from the RBT, so they
 *    retire fewer superblocks than STATIC for the same fault stream.
 */

#include <cstdio>

#include "bench/harness.hh"
#include "core/dsm.hh"

using namespace dssd;
using namespace dssd::bench;

namespace
{

constexpr double kScales[] = {0.0, 0.5, 1.0, 2.0, 4.0};

ExpParams
faultPoint(const BenchOpts &o, ArchKind arch, double scale)
{
    ExpParams p;
    p.arch = arch;
    p.readRatio = 0.7;
    p.sequential = false;
    p.bufferMode = BufferMode::AlwaysMiss;
    p.window = (o.full ? 30 : 15) * tickMs;
    p.seed = o.seed;
    // Optional array front-end (--shards / --engine-threads); the
    // fault model then runs independently per shard.
    if (o.shards > 0) {
        p.shards = o.shards;
        p.queueDepth = 64 * o.shards;
    }
    p.engineThreads = o.engineThreads;
    p.fault.enabled = true;
    p.fault.seed = o.faultSeed;
    p.fault.rberScale = scale;
    // Exercise the fNoC CRC/retransmit path on dSSD_f as well; the
    // rate scales with the same knob so "more faults" means more of
    // everything.
    if (arch == ArchKind::DSSDNoc)
        p.fault.nocCrcProb = 1e-4 * scale;
    return p;
}

void
runDsmScheme(DsmScheme scheme, const BenchOpts &o, double scale,
             JsonSeriesWriter &json)
{
    SsdConfig c = makeConfig(ArchKind::DSSDNoc);
    c.geom = paperTlcGeometry();
    c.geom.blocksPerPlane = o.full ? 64 : 24;
    c.geom.pagesPerBlock = o.full ? 32 : 8;
    c.timing = tlcTiming();
    c.fault.enabled = true;
    c.fault.seed = o.faultSeed;
    c.fault.rberScale = scale;

    Engine engine;
    Ssd ssd(engine, c);
    SuperblockMapping map(c.geom);

    DsmParams p;
    p.scheme = scheme;
    p.wear.peMean = o.full ? 200 : 60;
    p.wear.peSigma = 0.148 * p.wear.peMean;
    p.reservedFraction = 0.07;
    p.seed = o.seed;

    DynamicSuperblockEngine eng(ssd, map, p);
    eng.run(o.full ? 20000 : 4000, [] {});
    engine.run();

    const DsmStats &s = eng.stats();
    double tb = static_cast<double>(s.bytesWritten) / 1e12;
    std::printf("%-9s  %8llu  %10.4f  %6u  %8llu  %8llu  %10llu  %10llu\n",
                dsmSchemeName(scheme),
                static_cast<unsigned long long>(s.cycles), tb,
                s.deadSuperblocks,
                static_cast<unsigned long long>(s.faultEvents),
                static_cast<unsigned long long>(s.remapEvents),
                static_cast<unsigned long long>(s.repairPagesCopied),
                static_cast<unsigned long long>(s.deathPagesCopied));
    std::string tag = dsmSchemeName(scheme);
    json.add(tag + "_dead", s.deadSuperblocks);
    json.add(tag + "_fault_events", static_cast<double>(s.faultEvents));
    json.add(tag + "_written_tb", tb);
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOpts o = BenchOpts::parse(
        argc, argv,
        {"--full", "--seed", "--threads", "--json", "--trace-out", "--stats",
         "--fault-seed", "--shards", "--engine-threads"});
    JsonSeriesWriter json;

    banner("Fig 17(a)",
           "bandwidth and tail latency vs. RBER scale (70%rd rand 4KB)");

    std::vector<ExpParams> ps;
    for (double scale : kScales) {
        ps.push_back(faultPoint(o, ArchKind::Baseline, scale));
        ps.push_back(faultPoint(o, ArchKind::DSSDNoc, scale));
    }
    // Observability hooks go to one representative point: dSSD_f at
    // the nominal fault rate.
    for (ExpParams &p : ps) {
        if (p.arch == ArchKind::DSSDNoc && p.fault.rberScale == 1.0) {
            p.tracePath = o.traceOut;
            p.statsPath = o.stats;
        }
    }
    std::vector<ExpResult> rs = runExperiments(ps, o.resolvedThreads());

    std::printf("%-6s  %12s  %9s  %9s  %12s  %9s  %9s\n", "scale",
                "base BW", "base p99", "p99.9", "dSSD_f BW", "p99",
                "p99.9");
    for (std::size_t i = 0; i < std::size(kScales); ++i) {
        const ExpResult &b = rs[2 * i];
        const ExpResult &d = rs[2 * i + 1];
        std::printf("%-6.2g  %12s  %9.1f  %9.1f  %12s  %9.1f  %9.1f\n",
                    kScales[i], formatBandwidth(b.ioBytesPerSec).c_str(),
                    b.p99LatencyUs, b.p999LatencyUs,
                    formatBandwidth(d.ioBytesPerSec).c_str(),
                    d.p99LatencyUs, d.p999LatencyUs);
        json.add("scale", kScales[i]);
        json.add("baseline_bw", b.ioBytesPerSec);
        json.add("baseline_p99_us", b.p99LatencyUs);
        json.add("baseline_p999_us", b.p999LatencyUs);
        json.add("dssdf_bw", d.ioBytesPerSec);
        json.add("dssdf_p99_us", d.p99LatencyUs);
        json.add("dssdf_p999_us", d.p999LatencyUs);
    }
    if (rs[0].p99LatencyUs > 0 && rs[1].p99LatencyUs > 0) {
        std::size_t last = std::size(kScales) - 1;
        std::printf("\ntail degradation at scale %.2g: Baseline %.2fx, "
                    "dSSD_f %.2fx\n",
                    kScales[last],
                    rs[2 * last].p99LatencyUs / rs[0].p99LatencyUs,
                    rs[2 * last + 1].p99LatencyUs / rs[1].p99LatencyUs);
    }

    rule();
    banner("Fig 17(b)",
           "superblock deaths per DSM scheme with media faults merged "
           "into wear (dSSD_f, TLC, RBER scale 2)");
    std::printf("%-9s  %8s  %10s  %6s  %8s  %8s  %10s  %10s\n", "scheme",
                "cycles", "written(TB)", "dead", "faults", "remaps",
                "repairpgs", "deathpgs");
    for (DsmScheme s :
         {DsmScheme::Static, DsmScheme::Recycled, DsmScheme::Reserv})
        runDsmScheme(s, o, 2.0, json);
    std::printf("\nReading the tables: the recovery ladder inflates "
                "everyone's tail as the error rate grows, but Baseline "
                "pays for every retry on the shared front-end while "
                "dSSD_f retries inside the channel controllers; and "
                "RECYCLED/RESERV convert faulted sub-blocks into RBT "
                "repairs instead of whole-superblock deaths.\n");

    json.writeIfRequested(o, "fig17_faults");
    return 0;
}
