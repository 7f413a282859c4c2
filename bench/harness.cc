#include "bench/harness.hh"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>

#include "sim/log.hh"
#include "sim/registry.hh"
#include "sim/trace.hh"

namespace dssd
{
namespace bench
{

namespace
{

bool
isDigit(char c)
{
    return std::isdigit(static_cast<unsigned char>(c)) != 0;
}

/** Print the usage text generated from @p table, then fail with @p error. */
[[noreturn]] void
usageError(const char *argv0, const std::vector<Option> &table,
           const std::string &error)
{
    const char *slash = std::strrchr(argv0, '/');
    std::fprintf(stderr, "usage: %s%s\n", slash ? slash + 1 : argv0,
                 table.empty() ? "" : " [options]");
    for (const Option &opt : table) {
        std::string flag = opt.arg ? strformat("%s=%s", opt.name, opt.arg)
                                   : opt.name;
        std::fprintf(stderr, "  %-20s%s\n", flag.c_str(), opt.help);
    }
    fatal("%s", error.c_str());
}

} // namespace

std::uint64_t
parseUnsignedOpt(const char *flag, const char *text, std::uint64_t lo,
                 std::uint64_t hi)
{
    errno = 0;
    char *end = nullptr;
    std::uint64_t v = std::strtoull(text, &end, 10);
    if (!isDigit(text[0]) || *end != '\0' || errno == ERANGE || v < lo ||
        v > hi) {
        fatal("%s needs an integer in [%llu, %llu], got '%s'", flag,
              static_cast<unsigned long long>(lo),
              static_cast<unsigned long long>(hi), text);
    }
    return v;
}

double
parseRealOpt(const char *flag, const char *text, double lo, double hi,
             bool lo_open)
{
    errno = 0;
    char *end = nullptr;
    double v = std::strtod(text, &end);
    bool digit_first =
        isDigit(text[0]) || (text[0] == '.' && isDigit(text[1]));
    if (!digit_first || *end != '\0' || errno == ERANGE || v < lo ||
        (lo_open && v == lo) || v > hi) {
        fatal("%s needs a number in %c%g, %g%c, got '%s'", flag,
              lo_open ? '(' : '[', lo, hi, std::isinf(hi) ? ')' : ']',
              text);
    }
    return v;
}

void
parseOptions(int argc, char **argv, const std::vector<Option> &table)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::size_t eq = arg.find('=');
        std::string name = arg.substr(0, eq);
        auto opt = std::find_if(
            table.begin(), table.end(),
            [&](const Option &o) { return name == o.name; });
        if (opt == table.end())
            usageError(argv[0], table, "unknown option '" + name + "'");
        if (!opt->arg) {
            if (eq != std::string::npos)
                usageError(argv[0], table, name + " takes no value");
            opt->set(nullptr);
        } else if (eq != std::string::npos) {
            opt->set(argv[i] + eq + 1);
        } else if (i + 1 < argc) {
            opt->set(argv[++i]);
        } else {
            usageError(argv[0], table, name + " needs a value");
        }
    }
}

BenchOpts
BenchOpts::parse(int argc, char **argv,
                 std::initializer_list<const char *> accepts)
{
    BenchOpts o;
    parseOptions(argc, argv, o.options(accepts));
    return o;
}

std::vector<Option>
BenchOpts::options(std::initializer_list<const char *> names)
{
    auto parallelism = [](const char *flag, const char *v, unsigned lo) {
        return static_cast<unsigned>(
            parseUnsignedOpt(flag, v, lo, kMaxParallelism));
    };
    std::vector<Option> table = {
        {"--full", nullptr, "run a larger geometry, nearer Table 1 (slow)",
         [this](const char *) { full = true; }},
        {"--seed", "N", "workload seed (default 1)",
         [this](const char *v) { seed = parseUnsignedOpt("--seed", v, 0); }},
        {"--threads", "N",
         "worker threads for independent runs (default 0 = all cores)",
         [this, parallelism](const char *v) {
             threads = parallelism("--threads", v, 0);
         }},
        {"--json", "FILE", "also write every printed series as JSON",
         [this](const char *v) { json = v; }},
        {"--trace-out", "FILE", "write a Chrome trace_event JSON of one run",
         [this](const char *v) { traceOut = v; }},
        {"--stats", "FILE",
         "dump one run's stat registry as JSON (- = stdout)",
         [this](const char *v) { stats = v; }},
        {"--faults", nullptr, "enable the fault-injection model",
         [this](const char *) { faults = true; }},
        {"--fault-seed", "N", "fault RNG seed (default 99; implies --faults)",
         [this](const char *v) {
             faults = true;
             faultSeed = parseUnsignedOpt("--fault-seed", v, 0);
         }},
        {"--shards", "N", "run an N-shard SsdArray front-end",
         [this, parallelism](const char *v) {
             shards = parallelism("--shards", v, 1);
         }},
        {"--engine-threads", "N",
         "1 = per-shard engines under the engine group, 0 = one shared "
         "engine",
         [this](const char *v) {
             engineThreads = static_cast<unsigned>(
                 parseUnsignedOpt("--engine-threads", v, 0, 1));
         }},
        {"--timing", nullptr,
         "print wall-clock timings to stderr (stdout is unchanged)",
         [this](const char *) { timing = true; }},
        {"--tenants", "SPEC",
         "host tenants: a count or ';'-separated "
         "qd:N,w:N,prio:N,rate:B,burst:B,slo:US,name:S groups",
         [this](const char *v) {
             if (!parseTenantSpec(v))
                 fatal("--tenants needs a count or ';'-separated "
                       "qd:N,w:N,prio:N,rate:B,burst:B,slo:US,name:S "
                       "groups, got '%s'", v);
             tenants = v;
         }},
        {"--arbiter", "P", "submission-queue arbitration: rr|wrr|prio",
         [this](const char *v) {
             if (!parseArbiterPolicy(v))
                 fatal("--arbiter needs rr|wrr|prio, got '%s'", v);
             arbiter = v;
         }},
        {"--arrival", "SPEC",
         "closed, or poisson:IOPS|pareto:IOPS[:ALPHA][,diurnal:..][,burst:..]",
         [this](const char *v) {
             if (!parseArrivalSpec(v))
                 fatal("--arrival needs closed|poisson:IOPS|pareto:IOPS"
                       "[:ALPHA], then optional ,diurnal:AMP[:PERIOD_MS] "
                       "and ,burst:FACTOR[:ON_MS[:OFF_MS]], got '%s'", v);
             arrival = v;
         }},
        {"--slo", "US", "per-tenant latency SLO target in us",
         [this](const char *v) {
             sloUs = parseRealOpt("--slo", v, 0.0, INFINITY, true);
         }},
    };
    std::vector<Option> picked;
    for (const char *name : names) {
        auto opt = std::find_if(
            table.begin(), table.end(),
            [&](const Option &o) { return std::strcmp(o.name, name) == 0; });
        if (opt == table.end())
            panic("BenchOpts has no flag '%s'", name);
        picked.push_back(*opt);
    }
    return picked;
}

unsigned
BenchOpts::resolvedThreads() const
{
    if (threads > 0)
        return threads;
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

void
banner(const std::string &id, const std::string &what)
{
    std::printf("==============================================================\n");
    std::printf("%s — %s\n", id.c_str(), what.c_str());
    std::printf("==============================================================\n");
}

void
rule()
{
    std::printf("--------------------------------------------------------------\n");
}

SsdConfig
makeExpConfig(const ExpParams &p)
{
    SsdConfig c = makeConfig(p.arch);
    c.geom.channels = p.channels;
    c.geom.ways = p.ways;
    c.geom.diesPerWay = 1;
    c.geom.planesPerDie = p.planes;
    c.geom.blocksPerPlane = p.blocksPerPlane;
    c.geom.pagesPerBlock = p.pagesPerBlock;
    if (p.tlc) {
        c.timing = tlcTiming();
        c.geom.pageBytes = 16 * kKiB;
    }
    c.systemBusBandwidth = gbPerSec(p.systemBusGb);
    c.onChipBandwidthFactor =
        p.arch == ArchKind::Baseline ? 1.0 : p.onChipFactor;
    c.writeBuffer.mode = p.bufferMode;
    c.writeBuffer.capacityPages = 4096;
    c.flushInFlight = 64;
    c.gc.policy = p.gcPolicy;
    c.gc.copiesInFlightPerUnit = p.gcCopiesInFlight;
    c.gc.victimPolicy = p.victimPolicy;
    c.gc.allocPolicy = p.allocPolicy;
    c.gc.victimWindow = p.victimWindow;
    c.gc.preemptible = p.gcPreempt;
    c.nocTopology = p.nocTopology;
    if (p.nocLinkGb > 0.0) {
        c.nocExplicitBandwidth = true;
        c.noc.linkBandwidth = gbPerSec(p.nocLinkGb);
    }
    c.noc.bufferPackets = p.nocBuffers;
    c.decoupled.srtEntries = p.srtCapacity;
    c.fault = p.fault;
    c.seed = p.seed;
    return c;
}

namespace
{

/** Install @p count random in-channel remaps into every SRT. */
void
populateSrt(Ssd &ssd, unsigned count, Rng &rng)
{
    const FlashGeometry &g = ssd.config().geom;
    std::uint32_t blocks_per_channel =
        g.ways * g.diesPerWay * g.planesPerDie * g.blocksPerPlane;
    for (unsigned ch = 0; ch < g.channels; ++ch) {
        DecoupledController *dc = ssd.decoupledController(ch);
        if (!dc)
            return;
        for (unsigned i = 0; i < count; ++i) {
            ChannelBlockId from = static_cast<ChannelBlockId>(
                rng.uniformInt(0, blocks_per_channel - 1));
            ChannelBlockId to = static_cast<ChannelBlockId>(
                rng.uniformInt(0, blocks_per_channel - 1));
            dc->srt().insert(from, to);
        }
    }
}

} // namespace

ExpResult
runExperiment(const ExpParams &p)
{
    SsdConfig cfg = makeExpConfig(p);
    Engine engine;

    std::unique_ptr<Tracer> tracer;
    if (!p.tracePath.empty()) {
#if DSSD_TRACING
        tracer = std::make_unique<Tracer>(p.tracePath);
        engine.setTracer(tracer.get());
#else
        warn("--trace-out requested but tracing was compiled out "
             "(-DDSSD_TRACE=OFF); no trace will be written");
#endif
    }

    // One plain Ssd at shards == 1 (bit-identical to the pre-array
    // harness); an SsdArray front-end above N shards — or whenever the
    // engine group is requested — otherwise.
    std::unique_ptr<Ssd> single;
    std::unique_ptr<SsdArray> array;
    if (p.shards > 1 || p.engineThreads > 0) {
        SsdArrayParams ap;
        ap.shards = p.shards;
        ap.engineThreads = p.engineThreads;
        ap.gc.policy = p.arrayGc;
        ap.gc.maxConcurrent = p.arrayGcMaxConcurrent;
        ap.parity = p.parity;
        array = std::make_unique<SsdArray>(engine, cfg, ap);
        array->prefill(p.prefillFill, p.prefillInvalid);
    } else {
        single = std::make_unique<Ssd>(engine, cfg);
        single->prefill(p.prefillFill, p.prefillInvalid);
    }

    Rng rng(p.seed + 7);
    if (p.srtRemapsPerChannel > 0) {
        if (single) {
            populateSrt(*single, p.srtRemapsPerChannel, rng);
        } else {
            for (unsigned s = 0; s < array->shardCount(); ++s)
                populateSrt(array->shard(s), p.srtRemapsPerChannel, rng);
        }
    }
    Lpn lpn_count =
        single ? single->mapping().lpnCount() : array->lpnCount();

    std::unique_ptr<Generator> gen;
    if (p.traceName) {
        std::uint64_t footprint = std::min<std::uint64_t>(
            lpn_count * cfg.geom.pageBytes / 2, 512 * kMiB);
        footprint = std::max<std::uint64_t>(footprint, 2 * kMiB);
        gen = std::make_unique<TraceSynthesizer>(
            traceProfile(p.traceName), footprint, 0, p.seed,
            p.traceIops);
    } else {
        SyntheticParams sp;
        sp.readRatio = p.readRatio;
        sp.sequential = p.sequential;
        sp.requestBytes = p.requestBytes;
        sp.hotFraction = p.hotFraction;
        sp.hotAccessRatio = p.hotAccessRatio;
        double frac = p.footprintFraction > 0.0 ? p.footprintFraction
                                                : 0.5;
        sp.footprintBytes = std::max<std::uint64_t>(
            static_cast<std::uint64_t>(
                static_cast<double>(lpn_count * cfg.geom.pageBytes) *
                frac),
            4 * p.requestBytes);
        sp.count = 0; // unbounded; the window bounds the run
        sp.seed = p.seed;
        gen = std::make_unique<SyntheticGenerator>(sp);
    }

    auto submit_fn = [s = single.get(), a = array.get()](
                         const IoRequest &r, Engine::Callback cb) {
        if (s)
            s->submit(r, std::move(cb));
        else
            a->submit(r, std::move(cb));
    };

    // One host front-end: the fleet tenants when the experiment names
    // them, else one closed-loop tenant of queueDepth on the
    // experiment's generator, else (queueDepth 0) no host I/O at all.
    NvmeHostParams hp;
    hp.policy = p.arbiter;
    hp.deviceDepth = p.hostDeviceDepth;
    NvmeHost host(engine, submit_fn, hp);
    std::vector<std::unique_ptr<Generator>> tenant_gens;
    for (std::size_t i = 0; i < p.hostTenants.size(); ++i) {
        const HostTenant &ht = p.hostTenants[i];
        SyntheticParams sp;
        sp.readRatio = ht.readRatio;
        sp.sequential = ht.sequential;
        sp.requestBytes = ht.requestBytes;
        sp.footprintBytes = std::max<std::uint64_t>(
            lpn_count * cfg.geom.pageBytes / 2, 4 * ht.requestBytes);
        sp.count = 0;
        // Distinct request and arrival streams per tenant, both
        // derived from the experiment seed.
        sp.seed = p.seed + 1000 * (i + 1);
        std::unique_ptr<Generator> g =
            std::make_unique<SyntheticGenerator>(sp);
        bool open = ht.arrival.kind != ArrivalKind::Closed;
        if (open) {
            g = std::make_unique<OpenLoopGenerator>(
                std::move(g), ht.arrival, p.seed + 1000 * (i + 1) + 500);
        }
        host.addTenant(ht.tenant, *g, open);
        tenant_gens.push_back(std::move(g));
    }
    if (p.hostTenants.empty() && p.queueDepth > 0) {
        TenantParams tp;
        tp.queueDepth = p.queueDepth;
        host.addTenant(tp, *gen);
    }
    const bool has_host = host.tenantCount() > 0;
    if (has_host)
        host.start();

    // GC load: forced rounds, re-armed until the window closes so GC
    // pressure persists for the whole measurement (the paper assumes
    // GC triggered throughout).
    struct GcLoop
    {
        std::function<void(unsigned, Engine::Callback)> force;
        Engine &engine;
        const ExpParams &p;
        bool stopped = false;

        void
        arm()
        {
            force(p.gcVictims, [this] {
                if (!stopped && p.continuousGc &&
                    engine.now() < p.window) {
                    engine.schedule(1, [this] { arm(); });
                }
            });
        }
    };
    std::unique_ptr<GcLoop> gc_loop;
    if (p.runGc && p.gcForced) {
        std::function<void(unsigned, Engine::Callback)> force;
        if (single) {
            force = [s = single.get()](unsigned v, Engine::Callback cb) {
                s->gc().forceAll(v, std::move(cb));
            };
        } else {
            force = [a = array.get()](unsigned v, Engine::Callback cb) {
                a->forceAllGc(v, std::move(cb));
            };
        }
        gc_loop = std::make_unique<GcLoop>(
            GcLoop{std::move(force), engine, p});
        if (p.gcDelay > 0)
            engine.schedule(p.gcDelay, [&gl = *gc_loop] { gl.arm(); });
        else
            gc_loop->arm();
    }

    // Drive through the array when one exists so the engine group's
    // epoch protocol runs; plain engine driving otherwise. Identical
    // behavior in legacy mode (the array forwards to the engine).
    if (array)
        array->runUntil(p.window);
    else
        engine.runUntil(p.window);
    if (gc_loop)
        gc_loop->stopped = true;
    if (has_host)
        host.stop();
    if (array)
        array->run();
    else
        engine.run();

#if DSSD_TRACING
    if (tracer) {
        // Bus-utilization counter tracks, one sample per recorder
        // window, so the Perfetto timeline shows the same series the
        // figures plot.
        UtilizationRecorder &rec =
            single ? single->busRecorder()
                   : array->shard(0).busRecorder();
        int pid = tracer->process("counters");
        auto io_series = rec.series(tagIo);
        auto gc_series = rec.series(tagGc);
        for (std::size_t w = 0; w < io_series.size(); ++w) {
            Tick at = static_cast<Tick>(w) * rec.window();
            tracer->counter(pid, "sysbus-io-util", at, io_series[w]);
            tracer->counter(pid, "sysbus-gc-util", at, gc_series[w]);
        }
        tracer->finish();
        engine.setTracer(nullptr);
    }
#endif

    if (!p.statsPath.empty()) {
        StatRegistry reg;
        if (single)
            single->registerStats(reg, "ssd0");
        else
            array->registerStats(reg, "ssd0");
        if (has_host)
            host.registerStats(reg, "host");
        reg.writeJson(p.statsPath);
    }

    // Without host I/O every host stat is empty and reads as zero.
    ExpResult r;
    r.ioBytesPerSec = host.ioBytes().averageRate(0, p.window);
    const SampleStat all = host.allLatency();
    r.avgLatencyUs = all.mean() / tickUs;
    r.p99LatencyUs = all.percentile(99) / tickUs;
    r.p999LatencyUs = all.percentile(99.9) / tickUs;
    const SampleStat reads = host.readLatency();
    r.readAvgLatencyUs = reads.mean() / tickUs;
    r.readP99LatencyUs = reads.percentile(99) / tickUs;
    r.readP999LatencyUs = reads.percentile(99.9) / tickUs;
    r.ioCompleted = host.completed();
    for (double v : host.ioBytes().ratePerSec())
        r.ioBwSeries.push_back(v / 1e9);
    for (unsigned t = 0; t < p.hostTenants.size(); ++t) {
        const TenantStats &ts = host.tenantStats(t);
        TenantResult tr;
        tr.ioBytesPerSec = ts.ioBytes().averageRate(0, p.window);
        const SampleStat lat = ts.latency();
        tr.avgLatencyUs = lat.mean() / tickUs;
        tr.p99LatencyUs = lat.percentile(99) / tickUs;
        tr.p999LatencyUs = lat.percentile(99.9) / tickUs;
        tr.sloCompliance = ts.sloCompliance();
        tr.completed = ts.completed();
        tr.dropped = ts.dropped();
        tr.sloViolations = ts.sloViolations();
        r.tenants.push_back(tr);
    }
    r.gcPagesMoved =
        single ? single->gc().pagesMoved() : array->gcPagesMoved();
    // FTL write accounting: prefill resets the host-write counter, so
    // this is the measured window's WAF.
    if (single) {
        r.hostPageWrites = single->mapping().hostWrites();
        r.gcRelocated = single->mapping().gcRelocations();
    } else {
        for (unsigned s = 0; s < array->shardCount(); ++s) {
            r.hostPageWrites += array->shard(s).mapping().hostWrites();
            r.gcRelocated += array->shard(s).mapping().gcRelocations();
        }
    }
    if (r.hostPageWrites > 0) {
        r.waf = static_cast<double>(r.hostPageWrites + r.gcRelocated) /
                static_cast<double>(r.hostPageWrites);
    }
    Tick gc_first =
        single ? single->gc().firstGcStart() : array->gcFirstStart();
    Tick gc_last = single ? single->gc().lastGcEnd() : array->gcLastEnd();
    Tick gc_start = gc_first == maxTick ? 0 : gc_first;
    Tick gc_end = std::max(gc_last, gc_start + 1);
    r.gcStart = gc_start;
    r.gcEnd = gc_end;
    if (r.gcPagesMoved > 0) {
        r.gcPagesPerSec = static_cast<double>(r.gcPagesMoved) /
                          ticksToSec(gc_end - gc_start);
    }
    // Bus-utilization series come from shard 0 in array mode (each
    // shard has its own system bus; shard 0 is representative).
    UtilizationRecorder &rec0 = single ? single->busRecorder()
                                       : array->shard(0).busRecorder();
    r.busIoUtil = rec0.busyFraction(tagIo, 0, p.window);
    r.busGcUtil = rec0.busyFraction(tagGc, 0, p.window);
    r.busIoSeries = rec0.series(tagIo);
    r.busGcSeries = rec0.series(tagGc);
    BreakdownStats io_bd =
        single ? single->ioBreakdown() : array->ioBreakdown();
    BreakdownStats cb_bd =
        single ? single->copybackBreakdown() : array->copybackBreakdown();
    r.ioBreakdown = io_bd.mean();
    r.cbBreakdown = cb_bd.mean();
    return r;
}

std::vector<ExpResult>
runTimed(const std::vector<ExpParams> &ps, const BenchOpts &o,
         const std::function<std::string(const ExpParams &)> &label,
         std::vector<double> &wall_ms)
{
    wall_ms.assign(ps.size(), 0.0);
    if (!o.timing)
        return runExperiments(ps, o.resolvedThreads());
    std::vector<ExpResult> rs(ps.size());
    for (std::size_t i = 0; i < ps.size(); ++i) {
        auto t0 = std::chrono::steady_clock::now();
        rs[i] = runExperiment(ps[i]);
        auto t1 = std::chrono::steady_clock::now();
        wall_ms[i] =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        std::fprintf(stderr, "[timing] %s: %.1f ms\n",
                     label(ps[i]).c_str(), wall_ms[i]);
    }
    return rs;
}

void
parallelFor(std::size_t n, unsigned threads,
            const std::function<void(std::size_t)> &fn)
{
    if (threads == 0) {
        unsigned hw = std::thread::hardware_concurrency();
        threads = hw > 0 ? hw : 1;
    }
    std::size_t workers = std::min<std::size_t>(threads, n);
    if (workers <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
        pool.emplace_back([&] {
            for (std::size_t i = next.fetch_add(1); i < n;
                 i = next.fetch_add(1))
                fn(i);
        });
    }
    for (std::thread &t : pool)
        t.join();
}

std::vector<ExpResult>
runExperiments(const std::vector<ExpParams> &ps, unsigned threads)
{
    std::vector<ExpResult> out(ps.size());
    parallelFor(ps.size(), threads,
                [&](std::size_t i) { out[i] = runExperiment(ps[i]); });
    return out;
}

//
// JsonSeriesWriter
//

void
JsonSeriesWriter::add(const std::string &name, double v)
{
    for (std::size_t i = 0; i < _order.size(); ++i) {
        if (_order[i] == name) {
            _series[i].push_back(v);
            return;
        }
    }
    _order.push_back(name);
    _series.push_back({v});
}

void
JsonSeriesWriter::write(const std::string &path,
                        const std::string &bench) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        fatal("cannot open --json file '%s'", path.c_str());
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"series\": {",
                 bench.c_str());
    for (std::size_t i = 0; i < _order.size(); ++i) {
        std::fprintf(f, "%s\n    \"%s\": [", i ? "," : "",
                     _order[i].c_str());
        for (std::size_t j = 0; j < _series[i].size(); ++j)
            std::fprintf(f, "%s%.17g", j ? ", " : "", _series[i][j]);
        std::fprintf(f, "]");
    }
    std::fprintf(f, "\n  }\n}\n");
    std::fclose(f);
}

void
JsonSeriesWriter::writeIfRequested(const BenchOpts &opts,
                                   const std::string &bench) const
{
    if (!opts.json.empty())
        write(opts.json, bench);
}

} // namespace bench
} // namespace dssd
