/**
 * @file
 * Shared harness for the per-figure/table bench binaries.
 *
 * Every bench prints the same rows/series the corresponding paper
 * figure or table reports (normalized where the paper normalizes).
 * Absolute numbers come from our simulator, so EXPERIMENTS.md records
 * shape-vs-paper, not value-vs-paper.
 *
 * All benches run a reduced geometry by default (identical ratios,
 * smaller capacity); those that read --full take it for a larger one.
 *
 * Every experiment drives the device through one NvmeHost
 * (hil/nvme_host.hh): a single closed-loop tenant at
 * ExpParams::queueDepth, as in the paper, or the ExpParams::hostTenants
 * fleet.
 */

#ifndef DSSD_BENCH_HARNESS_HH
#define DSSD_BENCH_HARNESS_HH

#include <cstddef>
#include <functional>
#include <initializer_list>
#include <limits>
#include <string>
#include <vector>

#include "core/array.hh"
#include "core/config.hh"
#include "core/gc.hh"
#include "core/ssd.hh"
#include "hil/nvme_host.hh"
#include "workload/arrival.hh"

namespace dssd
{
namespace bench
{

/// Ceiling on --threads and --shards: above any host this runs on,
/// low enough that a typo cannot ask for millions of threads or
/// shards.
constexpr unsigned kMaxParallelism = 1024;

/**
 * Strict numeric option value for the option-table setters:
 * @p text must be a plain decimal number, with no sign, no space and
 * nothing after it, inside [@p lo, @p hi]. Anything else is fatal,
 * naming @p flag.
 */
std::uint64_t parseUnsignedOpt(
    const char *flag, const char *text, std::uint64_t lo,
    std::uint64_t hi = std::numeric_limits<std::uint64_t>::max());

/** Real-valued parseUnsignedOpt (@p hi may be INFINITY); @p lo_open
 *  excludes @p lo itself, for options that must be positive. */
double parseRealOpt(const char *flag, const char *text, double lo,
                    double hi, bool lo_open = false);

/** One flag of a program's option table. */
struct Option
{
    const char *name; ///< e.g. "--seed"
    const char *arg;  ///< value placeholder ("N"); nullptr for a switch
    const char *help; ///< one usage line
    /// Validates and stores the value (nullptr for a switch); a bad
    /// value is fatal, naming the flag.
    std::function<void(const char *)> set;
};

/**
 * The one command-line parser of dssd_sim and every bench: applies
 * argv[1..] in order through @p table, taking `--flag=V` and
 * `--flag V`. An unknown flag, a missing value or a value given to a
 * switch prints the usage text generated from @p table and exits 1.
 */
void parseOptions(int argc, char **argv, const std::vector<Option> &table);

/** Command-line options of the benches. */
struct BenchOpts
{
    bool full = false;   ///< use the paper's full geometry
    std::uint64_t seed = 1;
    /// Worker threads for sweep fan-out (0 = hardware_concurrency).
    unsigned threads = 0;
    /// When non-empty, also emit the bench's series to this JSON file.
    std::string json;
    /// When non-empty, the bench arms Chrome-trace emission on one
    /// representative experiment and writes the events here.
    std::string traceOut;
    /// When non-empty, the bench dumps that experiment's StatRegistry
    /// JSON here ("-" = stdout).
    std::string stats;
    /// Enable the fault-injection model (off by default so every bench
    /// reproduces its figure bit-identically).
    bool faults = false;
    /// Seed for the fault model's RNG streams (decoupled from the
    /// workload seed so fault draws don't perturb request streams).
    std::uint64_t faultSeed = 99;
    /// Override the bench's shard count (0 = bench default; fig18
    /// sweeps its own counts and ignores this).
    unsigned shards = 0;
    /// Per-experiment engine mode: 0 runs every shard on one shared
    /// engine; 1 gives each shard its own engine under the
    /// conservative EngineGroup.
    unsigned engineThreads = 0;
    /// Emit wall-clock timings to stderr (and a timing series into
    /// --json). Stdout stays byte-identical with or without it.
    bool timing = false;
    /// Multi-tenant host overrides (fig20): raw --tenants spec (see
    /// parseTenantSpec), empty = bench default tenant mix.
    std::string tenants;
    /// --arbiter policy override, validated by parseArbiterPolicy.
    std::string arbiter;
    /// --arrival spec override (see parseArrivalSpec).
    std::string arrival;
    /// --slo latency target override in microseconds (0 = bench
    /// default).
    double sloUs = 0.0;

    /** Parse a bench's argv, accepting only the flags it reads,
     *  named in @p accepts (e.g. {"--seed", "--threads"}). */
    static BenchOpts parse(int argc, char **argv,
                           std::initializer_list<const char *> accepts);

    /**
     * The option-table entries of @p names, storing into this object.
     * A name that BenchOpts has no flag for panics, so a typo fails on
     * the first run.
     */
    std::vector<Option> options(std::initializer_list<const char *> names);

    /** Resolved thread count (never 0). */
    unsigned resolvedThreads() const;
};

/** Print a bench banner naming the figure/table being regenerated. */
void banner(const std::string &id, const std::string &what);

/**
 * One fleet tenant of the NvmeHost front-end. When
 * ExpParams::hostTenants is non-empty these tenants (per-tenant
 * queues + arbitration) replace the single closed-loop tenant of
 * ExpParams::queueDepth.
 */
struct HostTenant
{
    TenantParams tenant;
    /// Per-tenant synthetic workload.
    double readRatio = 0.5;
    bool sequential = false;
    std::uint64_t requestBytes = 4 * kKiB;
    /// Arrival process; Closed pulls at queue-depth pace, anything
    /// else stamps open-loop arrival times (see workload/arrival.hh).
    ArrivalParams arrival;
};

/** Parameters of one interference experiment. */
struct ExpParams
{
    ArchKind arch = ArchKind::Baseline;

    // Geometry knobs (ratios follow Table 1 unless overridden).
    unsigned channels = 8;
    unsigned ways = 4;
    unsigned planes = 8;
    std::uint32_t blocksPerPlane = 16;
    std::uint32_t pagesPerBlock = 16;
    bool tlc = false;

    // Workload.
    double readRatio = 0.0;
    bool sequential = true;
    std::uint64_t requestBytes = 4 * kKiB;
    /// Hot/cold skew for random streams (see SyntheticParams); both 0
    /// keeps the uniform stream bit-identical to older builds.
    double hotFraction = 0.0;
    double hotAccessRatio = 0.0;
    /// Logical footprint as a fraction of LPN space (utilization).
    /// 0 keeps the historical default (half the logical space).
    double footprintFraction = 0.0;
    BufferMode bufferMode = BufferMode::AlwaysMiss;
    /// Depth of the single closed-loop host tenant; 0 runs no host
    /// I/O (pure-GC studies such as fig12/fig13).
    unsigned queueDepth = 64;
    /// Shard count (Fig 18). 1 runs a plain Ssd — bit-identical to the
    /// pre-array harness; >1 runs an SsdArray with modulo sharding.
    unsigned shards = 1;
    /// Engine mode (see BenchOpts::engineThreads). Nonzero forces the
    /// SsdArray front-end even at shards == 1.
    unsigned engineThreads = 0;
    /// Array-level GC coordination policy (fig19; needs shards > 1 to
    /// matter). Uncoordinated keeps today's per-shard behavior.
    ArrayGcPolicy arrayGc = ArrayGcPolicy::Uncoordinated;
    /// Staggered/GlobalGreedy cap on concurrently-collecting shards.
    unsigned arrayGcMaxConcurrent = 1;
    /// Rotating-parity striping + degraded reads (shards >= 2).
    bool parity = false;
    /// Multi-tenant host (fig20): when non-empty, these tenants
    /// replace the single closed-loop tenant of queueDepth.
    std::vector<HostTenant> hostTenants;
    /// Submission-queue arbitration policy for the host front-end.
    ArbiterPolicy arbiter = ArbiterPolicy::RoundRobin;
    /// Shared device-slot budget gating arbitration (0 = sum of
    /// tenant queue depths; see NvmeHostParams::deviceDepth).
    unsigned hostDeviceDepth = 0;
    const char *traceName = nullptr; ///< overrides synthetic workload
    /// Trace arrival rate (0 = closed-loop). Open-loop replay keeps
    /// the device below saturation so GC interference is what shapes
    /// the tail, as in the paper's timestamped trace runs.
    double traceIops = 0.0;

    // GC.
    bool runGc = true;
    /// true: forced victim rounds re-armed over the window (GC load
    /// held constant). false: GC triggers by the free-block threshold
    /// only, so scheduling policies (PreemptiveGC) can postpone it.
    bool gcForced = true;
    bool continuousGc = true; ///< keep re-forcing GC over the window
    unsigned gcVictims = 2;
    unsigned gcCopiesInFlight = 2;
    Tick gcDelay = 0;         ///< hold GC off for this long (Fig 2)
    GcPolicy gcPolicy = GcPolicy::Parallel;
    /// Victim-selection / allocation policies (see ftl/policy.hh).
    std::string victimPolicy = "greedy";
    std::string allocPolicy = "rr";
    std::uint32_t victimWindow = 8;
    /// Preemptible/partial GC rounds (GcParams::preemptible).
    bool gcPreempt = false;

    // On-chip bandwidth.
    double onChipFactor = 1.25;
    double systemBusGb = 8.0;

    // fNoC overrides (DSSDNoc only). linkGb 0 = derive from factor.
    std::string nocTopology = "mesh";
    double nocLinkGb = 0.0;
    unsigned nocBuffers = 4;

    // SRT pre-population (Fig 15): remaps installed per channel.
    unsigned srtRemapsPerChannel = 0;
    std::size_t srtCapacity = 2048;

    // Fault injection (fig17): disabled by default, so every other
    // bench is bit-identical to a build without the subsystem.
    FaultParams fault;

    // Device preconditioning.
    double prefillFill = 0.8;
    double prefillInvalid = 0.3;

    Tick window = 30 * tickMs;
    std::uint64_t seed = 1;

    // Observability (normally copied from BenchOpts by the bench, for
    // exactly one experiment of the sweep).
    /// When non-empty, attach a Tracer writing Chrome trace_event JSON
    /// here for this experiment's run.
    std::string tracePath;
    /// When non-empty, dump this experiment's StatRegistry JSON here
    /// ("-" = stdout).
    std::string statsPath;
};

/** Per-tenant measurements (host front-end experiments only). */
struct TenantResult
{
    double ioBytesPerSec = 0;
    double avgLatencyUs = 0;
    double p99LatencyUs = 0;
    double p999LatencyUs = 0;
    double sloCompliance = 1.0;
    std::uint64_t completed = 0;
    std::uint64_t dropped = 0;
    std::uint64_t sloViolations = 0;
};

/** Measurements from one interference experiment. */
struct ExpResult
{
    double ioBytesPerSec = 0;      ///< I/O bandwidth over the window
    double gcPagesPerSec = 0;      ///< GC throughput while GC active
    double avgLatencyUs = 0;
    double p99LatencyUs = 0;
    double p999LatencyUs = 0;
    double readAvgLatencyUs = 0;
    double readP99LatencyUs = 0;
    double readP999LatencyUs = 0;
    double busIoUtil = 0;          ///< system-bus utilization by I/O
    double busGcUtil = 0;          ///< system-bus utilization by GC
    LatencyBreakdown ioBreakdown;  ///< mean per-component (ticks)
    LatencyBreakdown cbBreakdown;
    std::uint64_t gcPagesMoved = 0;
    std::uint64_t ioCompleted = 0;
    /// FTL-level write accounting over the window (post-prefill);
    /// summed across shards in array mode.
    std::uint64_t hostPageWrites = 0;
    std::uint64_t gcRelocated = 0;
    /// Write amplification factor (host + GC writes) / host writes.
    double waf = 1.0;
    /// One entry per ExpParams::hostTenants tenant (empty otherwise).
    std::vector<TenantResult> tenants;
    std::vector<double> ioBwSeries;    ///< GB/s per ms window
    std::vector<double> busIoSeries;   ///< utilization per ms window
    std::vector<double> busGcSeries;
    Tick gcStart = 0;
    Tick gcEnd = 0;
};

/** Build an SsdConfig from experiment parameters. */
SsdConfig makeExpConfig(const ExpParams &p);

/** Run one interference experiment to completion. */
ExpResult runExperiment(const ExpParams &p);

/**
 * Run a batch of independent experiments across a worker pool.
 *
 * Each experiment owns its Engine/Ssd/Generator, so points are
 * embarrassingly parallel; results come back in input order and are
 * identical for any thread count (each point is seeded by its params,
 * not by scheduling).
 *
 * @param threads Worker count; 0 picks hardware_concurrency.
 */
std::vector<ExpResult> runExperiments(const std::vector<ExpParams> &ps,
                                      unsigned threads);

/**
 * runExperiments on o.resolvedThreads() workers, or with --timing one
 * point at a time, so each wall-clock time measures one experiment
 * alone: it goes to stderr, labelled by @p label, and into @p wall_ms.
 */
std::vector<ExpResult>
runTimed(const std::vector<ExpParams> &ps, const BenchOpts &o,
         const std::function<std::string(const ExpParams &)> &label,
         std::vector<double> &wall_ms);

/**
 * Generic deterministic fan-out: invoke @p fn(i) for i in [0, n) on up
 * to @p threads workers (0 = hardware_concurrency). @p fn must only
 * touch state owned by iteration i.
 */
void parallelFor(std::size_t n, unsigned threads,
                 const std::function<void(std::size_t)> &fn);

/**
 * Collects named numeric series and writes them as one JSON document
 * ({"bench": id, "series": {name: [v, ...]}}), preserving insertion
 * order. Benches feed it the same values they print so sweeps leave a
 * machine-readable trail next to the human tables.
 */
class JsonSeriesWriter
{
  public:
    /** Append @p v to series @p name (creating it on first use). */
    void add(const std::string &name, double v);

    /** Write the document to @p path; fatal()s if the file can't be opened. */
    void write(const std::string &path, const std::string &bench) const;

    /** Convenience: write only when the bench was given --json. */
    void writeIfRequested(const BenchOpts &opts,
                          const std::string &bench) const;

  private:
    std::vector<std::string> _order;
    std::vector<std::vector<double>> _series;
};

/** Pretty horizontal rule. */
void rule();

} // namespace bench
} // namespace dssd

#endif // DSSD_BENCH_HARNESS_HH
