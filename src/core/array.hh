/**
 * @file
 * Sharded SSD array front-end.
 *
 * Scales the decoupled architecture out the way the paper's Fig 18
 * projection does: N independent Ssd shards, each with its own FTL,
 * write buffer, GC, and (on the dSSD family) decoupled controllers and
 * interconnect, behind one logical LPN space. The array only splits
 * and fans out host requests and aggregates statistics; nothing is
 * shared between shards, so host bandwidth scales with the shard count
 * until the workload itself serializes.
 *
 * Two sharding functions:
 *  - Modulo (default): lpn % N picks the shard; striping spreads any
 *    contiguous host range across all shards;
 *  - Range: the LPN space is cut into N contiguous extents; locality
 *    stays within one shard.
 *
 * Two execution modes, selected by SsdArrayParams::engineThreads:
 *  - 0 (legacy): every shard shares the caller's engine; the caller
 *    drives that engine directly (run()/runUntil()). Fan-out is an
 *    ordinary event at +firmwareLatency.
 *  - >= 1 (engine group): each shard owns a private Engine inside a
 *    conservatively-synchronized EngineGroup (sim/engine_group.hh);
 *    fan-out becomes cross-engine message posting with the firmware
 *    latency as the lookahead, and completions merge back into the
 *    host engine deterministically. The caller must drive the array
 *    through SsdArray::run()/runUntil() so the group's epoch protocol
 *    runs; 1 is the serial reference and any higher count is
 *    bit-identical to it by construction. In this mode the
 *    page-granular readPage/writePage also charge the firmware
 *    fan-out latency (the group's lookahead floor). A tracer
 *    attached to the host engine before construction is propagated
 *    to the shard engines through per-shard buffered Tracers that
 *    the group drains at every epoch barrier (EngineGroup::
 *    attachTracer), so --trace-out works for any worker count and the
 *    trace file is byte-identical across counts.
 *
 * Array GC coordination (core/array_gc.hh): with any policy other
 * than Uncoordinated — or whenever parity is on — the array installs
 * GcCoordinationHooks on every shard's GcEngine and arbitrates
 * collection grants on the host engine. Legacy mode then charges the
 * same firmware latency on the grant/force paths that group mode pays
 * through postToShard, so the coordinated schedule is identical for
 * engineThreads 0 and >= 1.
 *
 * Parity (params.parity, Modulo sharding, N >= 2 shards): RAID-5
 * style rotating parity. Stripe g holds one page at local LPN g on
 * every shard; shard g % N stores the stripe's parity page and the
 * other N-1 shards store data, so the host-visible LPN space shrinks
 * to (N-1)/N of the raw capacity. Every data write also issues a
 * parity update to the stripe's parity shard (the stolen-bandwidth
 * cost) and completes only when both land. While a shard holds a GC
 * grant, reads targeting it are served degraded: the N-1 peer pages
 * of the stripe are read instead and the data is reconstructed,
 * trading one busy-shard access for a fan-out over idle shards.
 */

#ifndef DSSD_CORE_ARRAY_HH
#define DSSD_CORE_ARRAY_HH

#include <memory>
#include <string>
#include <vector>

#include "core/array_gc.hh"
#include "core/ssd.hh"
#include "sim/engine_group.hh"

namespace dssd
{

/** How the array's LPN space maps onto shards. */
enum class ShardingKind
{
    Modulo, ///< lpn % N (striped)
    Range,  ///< contiguous extents (partitioned)
};

struct SsdArrayParams
{
    unsigned shards = 1;
    ShardingKind sharding = ShardingKind::Modulo;
    /**
     * 0: all shards share the caller's engine (legacy serial mode).
     * >= 1: per-shard engines under an EngineGroup, with this many
     * worker threads running the shard phases (clamped to the shard
     * count; 1 keeps everything on the calling thread).
     */
    unsigned engineThreads = 0;
    /** Array-level GC scheduling (see core/array_gc.hh). */
    ArrayGcParams gc;
    /** Rotating-parity striping + degraded reads (Modulo, N >= 2). */
    bool parity = false;
};

/** N independent Ssd shards behind one logical LPN space. */
class SsdArray
{
  public:
    using Callback = Engine::Callback;

    /**
     * Build @p params.shards copies of @p config; shard s seeds its
     * RNG with config.seed + s so prefill layouts decorrelate.
     */
    SsdArray(Engine &engine, const SsdConfig &config,
             const SsdArrayParams &params);
    ~SsdArray();

    SsdArray(const SsdArray &) = delete;
    SsdArray &operator=(const SsdArray &) = delete;

    /** Split a host request across shards; @p done fires when every
     *  page of every shard completes. */
    void submit(const IoRequest &req, Callback done);

    /** Page-granularity host read of a global LPN. */
    void readPage(Lpn lpn, Callback done);

    /** Page-granularity host write of a global LPN. */
    void writePage(Lpn lpn, Callback done);

    /** Prefill every shard (see Ssd::prefill). */
    void prefill(double fill_fraction, double invalid_fraction);

    /** Force GC of @p victims_per_unit blocks on every unit of every
     *  shard; @p done fires when all shards finish. */
    void forceAllGc(unsigned victims_per_unit, Callback done);

    Engine &engine() { return _engine; }
    const SsdConfig &config() const { return _shards.front()->config(); }
    const SsdArrayParams &params() const { return _params; }

    /** The engine group, or null in legacy shared-engine mode. */
    EngineGroup *engineGroup() { return _group.get(); }

    /**
     * Drive the simulation to @p until: the group's epoch protocol
     * when one exists, otherwise the shared engine directly. Use these
     * instead of touching engine() so the same driver code works in
     * both modes.
     */
    void runUntil(Tick until);

    /** Drive the simulation until no work remains anywhere. */
    void run();

    unsigned shardCount() const
    {
        return static_cast<unsigned>(_shards.size());
    }
    Ssd &shard(unsigned s) { return *_shards[s]; }
    const Ssd &shard(unsigned s) const { return *_shards[s]; }

    /** Total host-visible logical pages across the array ((N-1)/N of
     *  the raw capacity when parity is on). */
    Lpn lpnCount() const;

    /** The shard serving global @p lpn (the data shard with parity). */
    unsigned shardOf(Lpn lpn) const;
    /** @p lpn translated into its shard's local LPN space (the stripe
     *  index when parity is on). */
    Lpn localLpn(Lpn lpn) const;

    /** The stripe global @p lpn belongs to (parity mode). */
    Lpn stripeOf(Lpn lpn) const;
    /** The shard holding stripe @p stripe's parity page. */
    unsigned parityShardOf(Lpn stripe) const
    {
        return static_cast<unsigned>(stripe % _shards.size());
    }

    /** The grant arbiter, or null when the array is uncoordinated. */
    ArrayGcScheduler *gcScheduler() { return _gcSched.get(); }

    bool parityEnabled() const { return _params.parity; }
    std::uint64_t degradedReads() const { return _degradedReads; }
    std::uint64_t reconstructionReads() const { return _reconReads; }
    std::uint64_t parityWrites() const { return _parityWrites; }
    std::uint64_t parityWritesInFlight() const
    {
        return _parityInFlight;
    }

    //
    // Aggregates over all shards.
    //

    std::uint64_t hostReads() const;
    std::uint64_t hostWrites() const;
    std::uint64_t flushedPages() const;
    unsigned ioOutstanding() const;
    std::uint64_t gcPagesMoved() const;
    /** Earliest firstGcStart across shards (maxTick if GC never ran). */
    Tick gcFirstStart() const;
    /** Latest lastGcEnd across shards (0 if GC never ran). */
    Tick gcLastEnd() const;
    BreakdownStats ioBreakdown() const;
    BreakdownStats copybackBreakdown() const;

    /**
     * Register array-level host aggregates under @p prefix plus every
     * shard's full stats under @p prefix + ".shardN". The registry
     * borrows; it must not outlive this array.
     */
    void registerStats(StatRegistry &reg, const std::string &prefix) const;

    /** Register every shard's invariant checks, named "shardN.<check>",
     *  plus the array's parity-group consistency check when parity is
     *  on. The auditor must not outlive this array. */
    void registerAudits(Auditor &auditor);

  private:
    /** Whether the GC scheduler + coordination hooks are installed. */
    bool coordinated() const { return _gcSched != nullptr; }

    /** Install the scheduler and per-shard GcCoordinationHooks. */
    void installCoordination();

    /** Send a grant to shard @p s (postToShard in group mode, a
     *  firmware-latency event in legacy mode — same charge). */
    void deliverGrant(unsigned s);

    /** Cross into shard @p s and read/write local @p lpn, paying the
     *  firmware fan-out latency in both modes; @p done runs host-side. */
    void dispatchRead(unsigned s, Lpn lpn, Callback done);
    void dispatchWrite(unsigned s, Lpn lpn, Callback done);

    /** Parity-aware per-page host paths (parity mode only). */
    void parityRead(Lpn lpn, Callback done);
    void parityWrite(Lpn lpn, Callback done);

    Engine &_engine;
    SsdArrayParams _params;
    /// Declared before _shards: shard Ssds borrow the group's engines,
    /// so they must be destroyed first (reverse member order).
    std::unique_ptr<EngineGroup> _group;
    std::vector<std::unique_ptr<Ssd>> _shards;
    Lpn _lpnsPerShard = 0;

    std::unique_ptr<ArrayGcScheduler> _gcSched;

    // Parity bookkeeping (empty when parity is off). Versions are
    // per-stripe write sequence numbers; every data write bumps the
    // stripe's data version at issue and its parity version when the
    // parity update lands, so at any host instant
    //   sum(data - parity) == in-flight parity updates
    // (the auditor's parity-group consistency check).
    std::vector<std::uint32_t> _dataVersion;
    std::vector<std::uint32_t> _parityVersion;
    std::uint64_t _parityInFlight = 0;
    std::uint64_t _parityWrites = 0;
    std::uint64_t _degradedReads = 0;
    std::uint64_t _reconReads = 0;
};

} // namespace dssd

#endif // DSSD_CORE_ARRAY_HH
