/**
 * @file
 * Host-cost benchmark of the dSSD simulator.
 *
 * Drives the library through its public entry points (Engine, Ssd /
 * SsdArray, NvmeHost, SyntheticGenerator / OpenLoopGenerator) on one
 * of three workloads, repeats the simulation until the measurement
 * budget is spent, checks the simulated outputs, and prints one JSON
 * result line. See README.md next to this file for the workloads, the
 * metrics and what each layer metric is expected to move.
 *
 * Usage:
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--smoke] [--inject KIND] [--commit ID] [--spans-out F]
 *
 * With --trace 0 the result holds the end-to-end metrics (host time
 * measured with no wrappers timed); with --trace 1 it holds the
 * per-layer metrics from runs whose calls into each layer are wrapped
 * in timed spans, alternated with untraced runs so the tracing
 * overhead is measured too.
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/array.hh"
#include "core/config.hh"
#include "core/gc.hh"
#include "core/ssd.hh"
#include "hil/nvme_host.hh"
#include "sim/registry.hh"
#include "sim/trace.hh"
#include "workload/arrival.hh"
#include "workload/generator.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace dssd;

namespace
{

using Clock = std::chrono::steady_clock;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "buffered-seqwrite|direct-randwrite|array-readmix "
                 "--seed N --seconds S --trace 0|1 [--smoke] "
                 "[--inject zero-io|perturb-fingerprint|baseline-arch] "
                 "[--commit ID] [--spans-out FILE]\n",
                 msg);
    std::exit(2);
}

//
// Spans: the benchmark's own timers around each call into a layer.
//

enum SpanKind : unsigned
{
    spConstruct,
    spPrefill,
    spRun,
    spDrain,
    spNext,
    spSubmit,
    spComplete,
    spGcForce,
    spFinalize,
    numSpanKinds,
};

const char *const kSpanNames[numSpanKinds] = {
    "setup.construct", "setup.prefill", "sim.run",
    "sim.drain",       "workload.next", "hil.submit",
    "hil.complete",    "core.gc_force", "sim.stats_finalize",
};

/**
 * In-memory span recorder. A span's self time is its duration minus
 * the time its child spans cover; totals are kept per kind for every
 * span, and the first kMaxRecords spans are kept verbatim (start, end,
 * parent, request id) for the span file written at exit.
 */
class Spans
{
  public:
    struct Total
    {
        std::uint64_t calls = 0;
        std::int64_t totalNs = 0;
        std::int64_t selfNs = 0;
    };

    struct Record
    {
        std::int64_t t0;
        std::int64_t t1;
        std::int32_t parent; ///< record index, -1 at top level
        std::uint32_t req;   ///< host request id (0: none)
        SpanKind kind;
    };

    static constexpr std::size_t kMaxRecords = std::size_t{1} << 17;

    void
    open(SpanKind kind, std::uint32_t req)
    {
        std::int32_t rec = -1;
        if (_records.size() < kMaxRecords) {
            rec = static_cast<std::int32_t>(_records.size());
            std::int32_t parent = _stack.empty() ? -1 : _stack.back().record;
            _records.push_back({0, 0, parent, req, kind});
        }
        _stack.push_back({kind, rec, nowNs(), 0});
    }

    void
    close()
    {
        std::int64_t t1 = nowNs();
        Frame f = _stack.back();
        _stack.pop_back();
        std::int64_t dur = t1 - f.t0;
        Total &t = _totals[f.kind];
        ++t.calls;
        t.totalNs += dur;
        t.selfNs += dur - f.childNs;
        if (!_stack.empty())
            _stack.back().childNs += dur;
        if (f.record >= 0) {
            _records[f.record].t0 = f.t0;
            _records[f.record].t1 = t1;
        }
    }

    const Total &total(SpanKind k) const { return _totals[k]; }

    /** Chrome trace_event JSON (loads in Perfetto / chrome://tracing). */
    bool
    writeChromeJson(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::int64_t base = _records.empty() ? 0 : _records.front().t0;
        std::fprintf(f, "{\"traceEvents\": [");
        for (std::size_t i = 0; i < _records.size(); ++i) {
            const Record &r = _records[i];
            std::fprintf(f,
                         "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                         "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                         "\"args\": {\"id\": %zu, \"parent\": %d, "
                         "\"req\": %u}}",
                         i ? "," : "", kSpanNames[r.kind],
                         static_cast<double>(r.t0 - base) / 1e3,
                         static_cast<double>(r.t1 - r.t0) / 1e3, i,
                         r.parent, r.req);
        }
        std::fprintf(f, "\n]}\n");
        return std::fclose(f) == 0;
    }

  private:
    struct Frame
    {
        SpanKind kind;
        std::int32_t record;
        std::int64_t t0;
        std::int64_t childNs;
    };

    std::vector<Frame> _stack;
    std::array<Total, numSpanKinds> _totals{};
    std::vector<Record> _records;
};

/** RAII span; a null recorder (untraced run) makes it a no-op. */
class Scope
{
  public:
    Scope(Spans *spans, SpanKind kind, std::uint32_t req = 0)
        : _spans(spans)
    {
        if (_spans)
            _spans->open(kind, req);
    }
    ~Scope()
    {
        if (_spans)
            _spans->close();
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Spans *_spans;
};

/** Counts issued requests; times next() on traced runs. */
class BenchGenerator : public Generator
{
  public:
    BenchGenerator(std::unique_ptr<Generator> inner, Spans *spans)
        : _inner(std::move(inner)), _spans(spans)
    {
    }

    std::optional<IoRequest>
    next() override
    {
        Scope s(_spans, spNext);
        auto r = _inner->next();
        if (r)
            ++_issued;
        return r;
    }

    const std::string &name() const override { return _inner->name(); }
    std::uint64_t issued() const { return _issued; }

  private:
    std::unique_ptr<Generator> _inner;
    Spans *_spans;
    std::uint64_t _issued = 0;
};

/**
 * Completion callbacks of traced requests in flight. The timed wrapper
 * handed to the device names a slot here instead of owning the host's
 * callback: the device copies a callback once per page, and a wrapper
 * that owned another std::function would double the allocations of
 * every copy, slowing the traced run for reasons of its own making.
 */
class ParkedCallbacks
{
  public:
    std::uint32_t
    park(Engine::Callback cb)
    {
        if (_free.empty()) {
            _slots.push_back(std::move(cb));
            return static_cast<std::uint32_t>(_slots.size() - 1);
        }
        std::uint32_t slot = _free.back();
        _free.pop_back();
        _slots[slot] = std::move(cb);
        return slot;
    }

    Engine::Callback
    take(std::uint32_t slot)
    {
        Engine::Callback cb = std::move(_slots[slot]);
        _free.push_back(slot);
        return cb;
    }

  private:
    std::vector<Engine::Callback> _slots;
    std::vector<std::uint32_t> _free;
};

//
// Workloads.
//

struct Workload
{
    const char *name;
    ArchKind arch;
    unsigned channels, ways, planes;
    unsigned shards; ///< 0: one plain Ssd; N: N-shard SsdArray (group)
    BufferMode buffer;
    double readRatio;
    bool sequential;
    std::uint64_t requestBytes;
    double footprint;    ///< fraction of the logical space
    unsigned queueDepth;
    double openLoopIops; ///< 0: closed loop
    bool forcedGc;       ///< continuous forced rounds, 2 victims/unit
    Tick window;
    Tick smokeWindow;
};

// Why each workload exists is recorded in README.md.
const Workload kWorkloads[] = {
    {"buffered-seqwrite", ArchKind::DSSDNoc, 8, 4, 8, 0, BufferMode::Real,
     0.0, true, 128 * kKiB, 0.5, 64, 0.0, true, 120 * tickMs, 1 * tickMs},
    {"direct-randwrite", ArchKind::Baseline, 8, 4, 4, 0,
     BufferMode::AlwaysMiss, 0.2, false, 4 * kKiB, 0.65, 128, 0.0, false,
     400 * tickMs, 2 * tickMs},
    {"array-readmix", ArchKind::DSSDNoc, 8, 4, 8, 8, BufferMode::Real, 0.7,
     false, 4 * kKiB, 0.5, 32, 1e6, false, 700 * tickMs, 120 * tickMs},
};

constexpr unsigned kGcVictims = 2;
constexpr double kPrefillFill = 0.8;
constexpr double kPrefillInvalid = 0.3;
/// ECC backlog is sampled at this simulated interval.
constexpr Tick kSampleSlice = tickMs;

SsdConfig
makeWorkloadConfig(const Workload &w, ArchKind arch, std::uint64_t seed)
{
    SsdConfig c = makeConfig(arch);
    c.geom.channels = w.channels;
    c.geom.ways = w.ways;
    c.geom.diesPerWay = 1;
    c.geom.planesPerDie = w.planes;
    c.geom.blocksPerPlane = 16;
    c.geom.pagesPerBlock = 16;
    c.onChipBandwidthFactor = arch == ArchKind::Baseline ? 1.0 : 1.25;
    c.writeBuffer.mode = w.buffer;
    c.writeBuffer.capacityPages = 4096;
    c.flushInFlight = 64;
    c.gc.copiesInFlightPerUnit = 2;
    c.seed = seed;
    return c;
}

enum class Inject
{
    None,
    ZeroIo,             ///< never start the host: a silent zero-I/O run
    PerturbFingerprint, ///< corrupt the second repetition's fingerprint
    BaselineArch,       ///< swap dSSD_f for Baseline: GC hits the sysbus
};

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

/** Everything one repetition measures. */
struct Rep
{
    double setupS = 0, wallS = 0;
    std::uint64_t issued = 0, completed = 0, dropped = 0;
    std::uint64_t events = 0, epochs = 0;
    std::uint64_t fingerprint = 0;
    std::string fingerprintText;
    std::vector<std::string> failures;
    /// Simulated outputs and layer counts, in output order.
    std::vector<Metric> layer;
    std::array<Spans::Total, numSpanKinds> spans{};
};

std::uint64_t
fnv1a(const std::string &s, std::uint64_t h = 1469598103934665603ull)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

/** The device under test: one Ssd, or an SsdArray under the group. */
struct Device
{
    std::unique_ptr<Ssd> single;
    std::unique_ptr<SsdArray> array;
};

/** Construct and prefill the device (the set-up that setup_s times). */
Device
setUp(const Workload &w, const SsdConfig &cfg, Engine &engine, Spans *spans)
{
    Device d;
    {
        Scope s(spans, spConstruct);
        if (w.shards > 0) {
            SsdArrayParams ap;
            ap.shards = w.shards;
            ap.engineThreads = 1; // the serial reference of the group
            d.array = std::make_unique<SsdArray>(engine, cfg, ap);
        } else {
            d.single = std::make_unique<Ssd>(engine, cfg);
        }
    }
    Scope s(spans, spPrefill);
    if (d.array)
        d.array->prefill(kPrefillFill, kPrefillInvalid);
    else
        d.single->prefill(kPrefillFill, kPrefillInvalid);
    return d;
}

/** One full repetition: set up, simulate, drain, extract, check. */
Rep
runRep(const Workload &w, std::uint64_t seed, bool smoke, Inject inject,
       Spans *spans)
{
    Rep rep;
    ArchKind arch =
        inject == Inject::BaselineArch ? ArchKind::Baseline : w.arch;
    SsdConfig cfg = makeWorkloadConfig(w, arch, seed);
    Tick window = smoke ? w.smokeWindow : w.window;

    std::int64_t t_setup = nowNs();
    Engine engine;
    Device dev = setUp(w, cfg, engine, spans);
    Ssd *single = dev.single.get();
    SsdArray *array = dev.array.get();
    std::int64_t t0 = nowNs();
    rep.setupS = static_cast<double>(t0 - t_setup) / 1e9;

    std::vector<Ssd *> ssds;
    if (array) {
        for (unsigned s = 0; s < array->shardCount(); ++s)
            ssds.push_back(&array->shard(s));
    } else {
        ssds.push_back(single);
    }
    Lpn lpn_count = array ? array->lpnCount() : single->mapping().lpnCount();

    SyntheticParams sp;
    sp.readRatio = w.readRatio;
    sp.sequential = w.sequential;
    sp.requestBytes = w.requestBytes;
    sp.footprintBytes = static_cast<std::uint64_t>(
        static_cast<double>(lpn_count * cfg.geom.pageBytes) * w.footprint);
    sp.seed = seed;
    std::unique_ptr<Generator> inner = std::make_unique<SyntheticGenerator>(sp);
    if (w.openLoopIops > 0.0) {
        ArrivalParams arrival;
        arrival.kind = ArrivalKind::Poisson;
        arrival.iops = w.openLoopIops;
        inner = std::make_unique<OpenLoopGenerator>(std::move(inner),
                                                    arrival, seed + 500);
    }
    BenchGenerator gen(std::move(inner), spans);

    std::uint32_t submitted = 0;
    ParkedCallbacks parked;
    auto submit = [&](const IoRequest &r, Engine::Callback done) {
        std::uint32_t id = ++submitted;
        Scope s(spans, spSubmit, id);
        if (spans) {
            std::uint32_t slot = parked.park(std::move(done));
            done = [&parked, spans, slot, id] {
                Scope c(spans, spComplete, id);
                parked.take(slot)();
            };
        }
        if (array)
            array->submit(r, std::move(done));
        else
            single->submit(r, std::move(done));
    };
    NvmeHost host(engine, submit, NvmeHostParams{});
    TenantParams tp;
    tp.queueDepth = w.queueDepth;
    host.addTenant(tp, gen, w.openLoopIops > 0.0);

    // Forced GC held on for the whole window (fig07's setting): a new
    // round is armed one tick after the previous one drains.
    struct GcLoop
    {
        Engine &engine;
        Ssd &ssd;
        Spans *spans;
        Tick window;
        bool stopped = false;

        void
        arm()
        {
            Scope s(spans, spGcForce);
            ssd.gc().forceAll(kGcVictims, [this] {
                if (!stopped && engine.now() < window)
                    engine.schedule(1, [this] { arm(); });
            });
        }
    };
    std::unique_ptr<GcLoop> gc_loop;
    if (w.forcedGc) {
        gc_loop = std::make_unique<GcLoop>(
            GcLoop{engine, *single, spans, window});
        gc_loop->arm();
    }

    if (inject != Inject::ZeroIo)
        host.start();

    double ecc_delay_sum = 0;
    std::uint64_t ecc_delay_n = 0;
    for (Tick t = 0; t < window;) {
        t = std::min(window, t + kSampleSlice);
        {
            Scope s(spans, spRun);
            if (array)
                array->runUntil(t);
            else
                engine.runUntil(t);
        }
        for (Ssd *ssd : ssds) {
            for (unsigned ch = 0; ch < ssd->channelCount(); ++ch) {
                ecc_delay_sum += static_cast<double>(
                    ssd->datapath().eccFor(ch).queueDelay());
                ++ecc_delay_n;
            }
        }
    }
    if (gc_loop)
        gc_loop->stopped = true;
    host.stop();
    {
        Scope s(spans, spDrain);
        if (array)
            array->run();
        else
            engine.run();
    }

    // Stats finalisation: percentile queries, the stat registry and
    // its JSON document.
    double p50, p999, read_p999, sim_bytes_per_s;
    std::string stats_json;
    {
        Scope s(spans, spFinalize);
        p50 = host.allLatency().percentile(50);
        p999 = host.allLatency().percentile(99.9);
        read_p999 = host.readLatency().percentile(99.9);
        sim_bytes_per_s = host.ioBytes().averageRate(0, window);
        StatRegistry reg;
        if (array)
            array->registerStats(reg, "ssd0");
        else
            single->registerStats(reg, "ssd0");
        host.registerStats(reg, "host");
        stats_json = reg.json();
    }
    rep.wallS = static_cast<double>(nowNs() - t0) / 1e9;
    if (spans) {
        for (unsigned k = 0; k < numSpanKinds; ++k)
            rep.spans[k] = spans->total(static_cast<SpanKind>(k));
    }

    //
    // Layer counts (outside the timed region).
    //
    rep.issued = gen.issued();
    rep.completed = host.completed();
    for (unsigned t = 0; t < host.tenantCount(); ++t)
        rep.dropped += host.tenantStats(t).dropped();

    std::vector<Engine *> engines{&engine};
    EngineGroup *group = array ? array->engineGroup() : nullptr;
    if (group) {
        for (unsigned s = 0; s < group->shardCount(); ++s)
            engines.push_back(&group->shardEngine(s));
    }
    std::uint64_t events = 0, pool = 0;
    for (Engine *e : engines) {
        events += e->executedEvents();
        pool += e->poolCapacity();
    }

    double sim_end = static_cast<double>(std::max<Tick>(engine.now(), 1));
    std::uint64_t host_writes = 0, gc_reloc = 0, erases = 0, flushed = 0;
    std::uint64_t wb_hits = 0, wb_misses = 0;
    std::uint64_t gc_pages = 0, gc_rounds = 0, gc_erased = 0;
    std::uint64_t ch_reads = 0, ch_programs = 0, ch_erases = 0,
                  copybacks = 0;
    double ch_bus_busy = 0, die_busy = 0, dram_busy = 0;
    double sysbus_io = 0, sysbus_gc = 0;
    std::uint64_t sysbus_gc_bytes = 0, ecc_pages = 0;
    std::uint64_t noc_packets = 0, noc_lat_count = 0;
    double noc_lat_sum = 0, link_busy = 0;
    unsigned n_channels = 0, n_planes = 0, n_links = 0;
    BreakdownStats bd;
    for (Ssd *ssd : ssds) {
        host_writes += ssd->mapping().hostWrites();
        gc_reloc += ssd->mapping().gcRelocations();
        erases += ssd->mapping().erases();
        flushed += ssd->flushedPages();
        wb_hits += ssd->writeBuffer().hits();
        wb_misses += ssd->writeBuffer().misses();
        gc_pages += ssd->gc().pagesMoved();
        gc_rounds += ssd->gc().roundsStarted();
        gc_erased += ssd->gc().blocksErased();
        const FlashGeometry &g = ssd->config().geom;
        for (unsigned ch = 0; ch < ssd->channelCount(); ++ch) {
            FlashChannel &c = ssd->channel(ch);
            ch_reads += c.reads();
            ch_programs += c.programs();
            ch_erases += c.erases();
            ch_bus_busy += static_cast<double>(c.bus().totalBusyTicks());
            ++n_channels;
            for (std::uint32_t way = 0; way < g.ways; ++way) {
                for (std::uint32_t d = 0; d < g.diesPerWay; ++d) {
                    // A die's busy ticks are plane-ticks.
                    die_busy += static_cast<double>(
                        c.die(way, d).busyTicks());
                    n_planes += g.planesPerDie;
                }
            }
            if (DecoupledController *dc = ssd->decoupledController(ch))
                copybacks += dc->copybacksCompleted();
            ecc_pages += ssd->datapath().eccFor(ch).pagesProcessed();
        }
        const BandwidthResource &sb = ssd->systemBus().channel();
        sysbus_io += static_cast<double>(sb.busyTicks(tagIo));
        sysbus_gc += static_cast<double>(sb.busyTicks(tagGc));
        sysbus_gc_bytes += sb.bytesMoved(tagGc);
        dram_busy += static_cast<double>(ssd->dram().port().totalBusyTicks());
        if (NocNetwork *noc = ssd->noc()) {
            noc_packets += noc->packetsDelivered();
            noc_lat_sum += noc->latency().sum();
            noc_lat_count += noc->latency().count();
            for (unsigned l = 0; l < noc->topology().numLinks(); ++l) {
                link_busy += static_cast<double>(noc->linkBusyTicks(l));
                ++n_links;
            }
        }
        const BreakdownStats &b = ssd->ioBreakdown();
        bd.sum += b.sum;
        bd.count += b.count;
    }
    double waf = host_writes > 0
                     ? static_cast<double>(host_writes + gc_reloc) /
                           static_cast<double>(host_writes)
                     : 0.0;
    LatencyBreakdown bdm = bd.mean();
    double n_ssd = static_cast<double>(ssds.size());
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    auto us = [](double ticks) { return ticks / static_cast<double>(tickUs); };
    rep.events = events;
    rep.epochs = group ? group->epochsRun() : 0;
    double epochs = static_cast<double>(rep.epochs);
    double msgs = group ? static_cast<double>(group->messagesToShards() +
                                              group->messagesToHost())
                        : 0.0;

    rep.layer = {
        {"sim.events", static_cast<double>(events), "count"},
        {"sim.events_per_io",
         ratio(static_cast<double>(events),
               static_cast<double>(rep.completed)), "ratio"},
        {"sim.event_pool_nodes", static_cast<double>(pool), "count"},
        {"sim.group_epochs", epochs, "count"},
        {"sim.group_msgs_per_epoch", ratio(msgs, epochs), "ratio"},
        {"workload.requests", static_cast<double>(rep.issued), "count"},
        {"hil.completed", static_cast<double>(rep.completed), "count"},
        {"hil.dropped", static_cast<double>(rep.dropped), "count"},
        {"hil.sim_gbps", sim_bytes_per_s / 1e9, "GB/s"},
        {"hil.p50_us", us(p50), "us"},
        {"hil.p999_us", us(p999), "us"},
        {"hil.read_p999_us", us(read_p999), "us"},
        {"core.gc_pages_moved", static_cast<double>(gc_pages), "count"},
        {"core.gc_rounds", static_cast<double>(gc_rounds), "count"},
        {"core.gc_blocks_erased", static_cast<double>(gc_erased), "count"},
        {"core.bd_flash_us", us(static_cast<double>(bdm.flashMem)), "us"},
        {"core.bd_fbus_us", us(static_cast<double>(bdm.flashBus)), "us"},
        {"core.bd_sbus_us", us(static_cast<double>(bdm.systemBus)), "us"},
        {"core.bd_dram_us", us(static_cast<double>(bdm.dram)), "us"},
        {"core.bd_ecc_us", us(static_cast<double>(bdm.ecc)), "us"},
        {"core.bd_noc_us", us(static_cast<double>(bdm.noc)), "us"},
        {"core.bd_fw_us", us(static_cast<double>(bdm.other)), "us"},
        {"ftl.host_page_writes", static_cast<double>(host_writes), "count"},
        {"ftl.gc_relocations", static_cast<double>(gc_reloc), "count"},
        {"ftl.waf", waf, "ratio"},
        {"ftl.erases", static_cast<double>(erases), "count"},
        {"ftl.flushed_pages", static_cast<double>(flushed), "count"},
        {"ftl.wbuf_hit_ratio",
         ratio(static_cast<double>(wb_hits),
               static_cast<double>(wb_hits + wb_misses)), "fraction"},
        {"controller.reads", static_cast<double>(ch_reads), "count"},
        {"controller.programs", static_cast<double>(ch_programs), "count"},
        {"controller.erases", static_cast<double>(ch_erases), "count"},
        {"controller.copybacks", static_cast<double>(copybacks), "count"},
        {"controller.bus_util", ratio(ch_bus_busy, n_channels * sim_end), "fraction"},
        {"nand.die_util", ratio(die_busy, n_planes * sim_end), "fraction"},
        {"bus.sysbus_util_io", ratio(sysbus_io, n_ssd * sim_end), "fraction"},
        {"bus.sysbus_util_gc", ratio(sysbus_gc, n_ssd * sim_end), "fraction"},
        {"bus.sysbus_gc_bytes", static_cast<double>(sysbus_gc_bytes), "bytes"},
        {"bus.dram_util", ratio(dram_busy, n_ssd * sim_end), "fraction"},
        {"ecc.pages", static_cast<double>(ecc_pages), "count"},
        {"ecc.queue_delay_us",
         us(ratio(ecc_delay_sum, static_cast<double>(ecc_delay_n))), "us"},
        {"noc.packets", static_cast<double>(noc_packets), "count"},
        {"noc.latency_us",
         us(ratio(noc_lat_sum, static_cast<double>(noc_lat_count))), "us"},
        {"noc.link_util", ratio(link_busy, n_links * sim_end), "fraction"},
    };

    //
    // Output checks and the fingerprint of the simulated statistics.
    //
    std::uint64_t stats_hash = fnv1a(stats_json);
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "requests=%llu sim_gbps=%.9g p999_us=%.9g waf=%.9g "
                  "events=%llu stats=%016llx",
                  static_cast<unsigned long long>(rep.completed),
                  sim_bytes_per_s / 1e9, us(p999), waf,
                  static_cast<unsigned long long>(events),
                  static_cast<unsigned long long>(stats_hash));
    rep.fingerprintText = buf;
    rep.fingerprint = fnv1a(rep.fingerprintText);

    if (rep.issued != rep.completed + rep.dropped)
        rep.failures.push_back("issued != completed + dropped");
    if (rep.completed == 0)
        rep.failures.push_back("no request completed");
    if (w.arch == ArchKind::DSSDNoc && sysbus_gc_bytes != 0)
        rep.failures.push_back("GC traffic crossed the system bus on "
                               "dSSD_f");
    if (!(waf >= 1.0))
        rep.failures.push_back("WAF below 1");
    return rep;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

std::string
compilerId()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, commit = "unknown", spans_out;
    std::optional<std::uint64_t> seed;
    double seconds = -1;
    int trace = -1;
    bool smoke = false;
    Inject inject = Inject::None;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        // Numbers must parse whole: "--seed 1x" is refused, not read as 1.
        auto number = [&](auto parse) {
            std::string v = value();
            char *end = nullptr;
            errno = 0;
            auto x = parse(v.c_str(), &end);
            if (v.empty() || *end != '\0' || errno != 0)
                usage(("bad number for " + a).c_str());
            return x;
        };
        if (a == "--workload") {
            workload = value();
        } else if (a == "--seed") {
            seed = number([](const char *v, char **end) {
                return std::strtoull(v, end, 10);
            });
        } else if (a == "--seconds") {
            seconds = number([](const char *v, char **end) {
                return std::strtod(v, end);
            });
        } else if (a == "--trace") {
            std::string v = value();
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            trace = v == "1";
        } else if (a == "--smoke") {
            smoke = true;
        } else if (a == "--inject") {
            std::string v = value();
            if (v == "zero-io")
                inject = Inject::ZeroIo;
            else if (v == "perturb-fingerprint")
                inject = Inject::PerturbFingerprint;
            else if (v == "baseline-arch")
                inject = Inject::BaselineArch;
            else
                usage("unknown --inject kind");
        } else if (a == "--commit") {
            commit = value();
        } else if (a == "--spans-out") {
            spans_out = value();
        } else {
            usage(("unknown option " + a).c_str());
        }
    }
    const Workload *w = nullptr;
    for (const Workload &cand : kWorkloads) {
        if (workload == cand.name)
            w = &cand;
    }
    if (!w)
        usage("unknown or missing --workload");
    if (!seed || seconds <= 0 || trace < 0)
        usage("--seed, --seconds (> 0) and --trace are required");

    std::printf("context: {\"nproc\": %u, \"compiler\": \"%s\", "
                "\"build_type\": \"%s\", \"dssd_trace\": %d, "
                "\"dssd_audit\": %d, \"commit\": \"%s\"}\n",
                std::thread::hardware_concurrency(),
                jsonEscape(compilerId()).c_str(), PERFBENCH_BUILD_TYPE,
                DSSD_TRACING,
#ifdef DSSD_AUDIT
                1,
#else
                0,
#endif
                jsonEscape(commit).c_str());
    std::fflush(stdout);

    // Repetitions until the budget is spent. Traced runs alternate
    // untraced and traced repetitions so both see the same host state.
    constexpr std::size_t kMinReps = 3;
    constexpr std::size_t kMinSetups = 5;
    std::vector<Rep> untraced, traced;
    std::unique_ptr<Spans> last_spans;
    double peak_rss_mb = 0;
    std::int64_t start = nowNs();
    auto elapsed = [&] {
        return static_cast<double>(nowNs() - start) / 1e9;
    };
    for (std::size_t i = 0;; ++i) {
        bool traced_rep = trace && i % 2 == 1;
        std::unique_ptr<Spans> spans;
        if (traced_rep)
            spans = std::make_unique<Spans>();
        Rep r = runRep(*w, *seed, smoke, inject, spans.get());
        if (inject == Inject::PerturbFingerprint && i == 1)
            r.fingerprint ^= 1;
        std::printf("repetition %zu (%s): setup_s %.6f wall_s %.6f\n", i,
                    traced_rep ? "traced" : "untraced", r.setupS, r.wallS);
        if (i == 0) {
            // Later repetitions only add allocator fragmentation, which
            // grows with their count; the first one is the simulation's.
            rusage ru{};
            getrusage(RUSAGE_SELF, &ru);
            peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
        }
        (traced_rep ? traced : untraced).push_back(std::move(r));
        if (traced_rep)
            last_spans = std::move(spans);
        std::size_t n = trace ? std::min(untraced.size(), traced.size())
                              : untraced.size();
        std::size_t need = smoke ? (trace ? 1 : 2) : kMinReps;
        if (n >= need && (smoke || elapsed() >= seconds))
            break;
    }

    // Set-up time: every repetition sets up once; top up with set-up
    // only repetitions (construct + prefill) to a fixed sample count.
    std::vector<double> setup;
    for (const Rep &r : untraced)
        setup.push_back(r.setupS);
    while (!smoke && !trace && setup.size() < kMinSetups) {
        SsdConfig cfg = makeWorkloadConfig(*w, w->arch, *seed);
        std::int64_t t0 = nowNs();
        Engine engine;
        Device dev = setUp(*w, cfg, engine, nullptr);
        setup.push_back(static_cast<double>(nowNs() - t0) / 1e9);
    }

    // Checks: per-repetition conditions plus one fingerprint for all
    // repetitions, traced or not.
    std::uint64_t attempted = 0, failed = 0;
    bool correct = true;
    const Rep &ref = untraced.front();
    auto check = [&](const Rep &r, const char *kind, std::size_t idx) {
        std::vector<std::string> fails = r.failures;
        if (r.fingerprint != ref.fingerprint)
            fails.push_back("fingerprint differs from the first run");
        attempted += r.issued;
        std::uint64_t lost = r.issued - std::min(r.issued,
                                                 r.completed + r.dropped);
        if (!fails.empty()) {
            correct = false;
            lost = std::max<std::uint64_t>(r.issued, 1);
            for (const std::string &f : fails)
                std::printf("check failed (%s run %zu): %s\n", kind, idx,
                            f.c_str());
        }
        failed += lost;
    };
    for (std::size_t i = 0; i < untraced.size(); ++i)
        check(untraced[i], "untraced", i);
    for (std::size_t i = 0; i < traced.size(); ++i)
        check(traced[i], "traced", i);
    attempted = std::max<std::uint64_t>(attempted, failed);
    attempted = std::max<std::uint64_t>(attempted, 1);
    std::printf("fingerprint: %016llx %s\n",
                static_cast<unsigned long long>(ref.fingerprint),
                ref.fingerprintText.c_str());

    std::vector<Metric> m;
    if (!trace) {
        std::vector<double> wall, rate;
        for (const Rep &r : untraced) {
            wall.push_back(r.wallS);
            rate.push_back(static_cast<double>(r.completed) / r.wallS);
        }
        m.push_back({"sim_ios_per_s", median(rate), "1/s"});
        m.push_back({"wall_s", median(wall), "s"});
        m.push_back({"setup_s", median(setup), "s"});
        m.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
    } else {
        auto spanMedian = [&](auto fn) {
            std::vector<double> v;
            for (const Rep &r : traced)
                v.push_back(fn(r));
            return median(v);
        };
        auto selfPerCall = [&](SpanKind k) {
            return spanMedian([k](const Rep &r) {
                const Spans::Total &t = r.spans[k];
                return t.calls ? static_cast<double>(t.selfNs) /
                                     static_cast<double>(t.calls)
                               : 0.0;
            });
        };
        auto totalNs = [&](SpanKind k) {
            return spanMedian([k](const Rep &r) {
                return static_cast<double>(r.spans[k].totalNs);
            });
        };
        // The model's own time: the run/drain spans minus the host
        // callbacks (completions, generator, submit) nested in them.
        auto simSelfNs = [](const Rep &r) {
            return static_cast<double>(r.spans[spRun].selfNs +
                                       r.spans[spDrain].selfNs);
        };
        double events = static_cast<double>(ref.events);
        double epochs = static_cast<double>(ref.epochs);
        m.push_back({"sim.ns_per_event", spanMedian([&](const Rep &r) {
                         return simSelfNs(r) / events;
                     }),
                     "ns"});
        m.push_back({"sim.run_self_s", spanMedian([&](const Rep &r) {
                         return simSelfNs(r) / 1e9;
                     }),
                     "s"});
        m.push_back({"sim.group_ns_per_epoch",
                     epochs > 0 ? (totalNs(spRun) + totalNs(spDrain)) / epochs
                                : 0.0,
                     "ns"});
        m.push_back({"sim.stats_finalize_ms", totalNs(spFinalize) / 1e6,
                     "ms"});
        m.push_back({"workload.next_ns", selfPerCall(spNext), "ns"});
        m.push_back({"hil.submit_ns", selfPerCall(spSubmit), "ns"});
        m.push_back({"hil.complete_ns", selfPerCall(spComplete), "ns"});
        m.push_back({"core.gc_force_ns", selfPerCall(spGcForce), "ns"});
        m.push_back({"setup.construct_s", totalNs(spConstruct) / 1e9, "s"});
        m.push_back({"setup.prefill_s", totalNs(spPrefill) / 1e9, "s"});
        std::vector<double> uw, tw;
        for (const Rep &r : untraced)
            uw.push_back(r.wallS);
        for (const Rep &r : traced)
            tw.push_back(r.wallS);
        double overhead = median(tw) - median(uw);
        m.push_back({"trace.overhead_s", overhead, "s"});
        m.push_back({"trace.overhead_pct",
                     100.0 * overhead / median(uw), "%"});
        for (const Metric &lm : ref.layer)
            m.push_back(lm);
        if (!spans_out.empty() && last_spans &&
            !last_spans->writeChromeJson(spans_out)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         spans_out.c_str());
            return 1;
        }
    }

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < m.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m[i].name.c_str(), m[i].value, m[i].unit);
    }
    std::printf("}}\n");
    return 0;
}
