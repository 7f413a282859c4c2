/**
 * @file
 * The garbage-collection engine.
 *
 * Scheduling follows the configured GcParams policy (PaGC parallel
 * baseline, PreemptiveGC, TinyTail); the copy datapath is delegated to
 * Ssd::gcCopyPage, which routes through the front-end (Baseline/BW)
 * or through global copyback (dSSD family).
 *
 * Two trigger modes:
 *  - threshold-driven: noteAllocation() checks the per-unit free-block
 *    threshold and starts collection until the target is restored;
 *  - forced: forceAll(victims) collects a fixed number of victim
 *    blocks per unit, used by benches that measure GC performance as
 *    time-to-reclaim under concurrent I/O.
 */

#ifndef DSSD_CORE_GC_HH
#define DSSD_CORE_GC_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "ftl/policy.hh"
#include "sim/engine.hh"
#include "sim/resource.hh"
#include "sim/stats.hh"

namespace dssd
{

class Ssd;
class StatRegistry;

/**
 * Array-level coordination hooks (installed through
 * GcEngine::setCoordination by an SsdArray whose ArrayGcScheduler
 * governs this shard; see core/array_gc.hh).
 *
 * Protocol: when coordinated, the engine never starts collection on
 * its own. It fires @ref request (at most one outstanding at a time),
 * waits for grantCollection(), runs every pending round under that
 * grant, and fires @ref release when the last active unit drains.
 * Both hooks run on the shard's engine; in group mode the installer
 * is expected to bounce them to the host via EngineGroup::postToHost.
 */
struct GcCoordinationHooks
{
    /** A collection grant is wanted; @p pressure is the worst
     *  per-unit free-block pressure at request time. */
    std::function<void(std::uint32_t pressure)> request;
    /** The grant window closed; @p copies / @p erases count the GC
     *  work done inside it (token budget accounting). */
    std::function<void(std::uint64_t copies, std::uint64_t erases)>
        release;
};

/** Per-architecture garbage-collection engine. */
class GcEngine
{
  public:
    using Callback = Engine::Callback;

    GcEngine(Ssd &ssd, const GcParams &params);

    /**
     * Notify that a page allocation happened in @p unit; starts GC on
     * that unit if the free-block threshold tripped (or queues a grant
     * request when coordinated).
     */
    void noteAllocation(std::uint32_t unit);

    /**
     * Force GC of @p victims_per_unit victim blocks on every unit;
     * @p done fires when every unit finishes. When coordinated the
     * round is deferred until the scheduler grants collection.
     */
    void forceAll(unsigned victims_per_unit, Callback done);

    /** Install array-level coordination hooks (see above). Must be
     *  called before any collection activity. */
    void setCoordination(GcCoordinationHooks hooks);

    /** Whether coordination hooks are installed. */
    bool coordinated() const { return static_cast<bool>(_hooks.request); }

    /**
     * Deliver the grant answering the last request hook: every round
     * queued behind the request (forced and threshold) starts now.
     * Panics without an outstanding request.
     */
    void grantCollection();

    /** Whether a grant is currently held / requested. */
    bool grantHeld() const { return _grant == GrantState::Held; }
    bool grantRequested() const
    {
        return _grant == GrantState::Requested;
    }

    /** Worst per-unit free-block pressure right now (see
     *  PageMapping::freeBlockPressure). */
    std::uint32_t freeBlockPressure() const;

    bool anyActive() const { return _activeUnits > 0; }
    unsigned activeUnits() const { return _activeUnits; }

    /** Whether a GC round is active on @p unit (paused or not); the
     *  conflict-aware allocation policy probes this through
     *  PageMapping::setGcBusyProbe. */
    bool unitActive(std::uint32_t unit) const
    {
        return _units[unit].active;
    }

    /** Units currently paused by preemptible GC. */
    unsigned pausedUnits() const { return _pausedUnits; }

    std::uint64_t preemptYields() const { return _preemptYields; }
    std::uint64_t preemptResumes() const { return _preemptResumes; }

    std::uint64_t pagesMoved() const { return _pagesMoved; }
    std::uint64_t blocksErased() const { return _blocksErased; }

    /** First tick GC became active (maxTick if never). */
    Tick firstGcStart() const { return _firstStart; }
    /** Last tick all GC drained (0 if never). */
    Tick lastGcEnd() const { return _lastEnd; }

    /** Start tick of the latest round (first unit going active while
     *  none were; maxTick if GC never ran). */
    Tick lastRoundStart() const { return _roundStart; }
    /** Rounds started so far (0 -> >0 active-unit transitions). */
    std::uint64_t roundsStarted() const { return _rounds; }
    /** Per-round wall duration samples, one per drained round. */
    const SampleStat &roundDuration() const { return _roundDuration; }

    /** Per-copied-page end-to-end latency. */
    const SampleStat &copyLatency() const { return _copyLatency; }

    const GcParams &params() const { return _params; }

    /** Register GC counters and copy-latency stats under @p prefix. */
    void registerStats(StatRegistry &reg, const std::string &prefix) const;

  private:
    struct UnitState
    {
        bool active = false;
        bool erasing = false; ///< victim erase in flight
        bool forced = false;
        /// The current victim was picked while forced: only then does
        /// its erase consume the forced budget. A threshold victim
        /// already in flight when forceAll lands keeps this false so
        /// the forced round is not short-changed.
        bool victimForced = false;
        /// Threshold GC wanted but deferred behind a grant request.
        bool wantsGc = false;
        unsigned forcedRemaining = 0;
        std::uint32_t victim = 0;
        std::vector<std::uint64_t> lpns; ///< valid pages of the victim
        std::size_t nextLpn = 0;
        unsigned inFlight = 0;
        unsigned sliceCopies = 0;
        /// Preemptible GC: the round is paused mid-victim; no new
        /// copies issue until the resume timer fires.
        bool paused = false;
        /// Paused under coordination after the grant was yielded;
        /// waiting for the next grant to resume.
        bool wantsResume = false;
        /// Copies issued since the last preemption check.
        unsigned quantumCopies = 0;
        /// Trace id of the open gc-round span (Tracer::nextSpanId, so
        /// rounds of different shards never share an id).
        std::uint64_t spanId = 0;
    };

    enum class GrantState
    {
        None,      ///< no request outstanding
        Requested, ///< request hook fired, grant not yet delivered
        Held,      ///< collecting under a grant
    };

    void startUnit(std::uint32_t unit);
    void beginForcedRound(unsigned victims_per_unit, Callback done);
    void requestIfNeeded();
    void maybeReleaseGrant();
    void collectNext(std::uint32_t unit);
    void pumpCopies(std::uint32_t unit);
    /** Preemptible GC: pause @p unit's round and schedule a resume
     *  check after preemptResumeNs. */
    void pauseUnit(std::uint32_t unit);
    /** Resume-timer body: resume now or, if the grant was yielded,
     *  re-request it and resume on the next grantCollection(). */
    void resumeCheck(std::uint32_t unit);
    void resumeUnit(std::uint32_t unit);
    /** Yield the grant while every active unit is paused (partial
     *  round: copies/erases done so far are reported). */
    void maybeYieldGrantPaused();
    void issueCopy(std::uint32_t unit, std::uint64_t lpn,
                   std::uint32_t dst_unit);
    void victimDrained(std::uint32_t unit);
    void finishUnit(std::uint32_t unit);

    /**
     * Pick a destination unit (global free-block selection, falling
     * back to the source unit's reserved block under space pressure).
     * Empty when no unit currently has space: the caller retries.
     */
    std::optional<std::uint32_t>
    chooseDestination(std::uint32_t src_unit);

    /** Policy gate: may @p unit issue a copy right now? If not, a
     *  recheck is scheduled and false is returned. */
    bool policyAllowsCopy(std::uint32_t unit);

    Ssd &_ssd;
    GcParams _params;
    std::vector<UnitState> _units;
    RetryQueue _spaceWaits; ///< copies with no destination unit
    unsigned _activeUnits = 0;
    unsigned _pausedUnits = 0;
    std::uint64_t _preemptYields = 0;
    std::uint64_t _preemptResumes = 0;
    std::uint32_t _dstCursor = 0;
    std::uint64_t _pagesMoved = 0;
    std::uint64_t _blocksErased = 0;
    Tick _firstStart;
    Tick _lastEnd = 0;
    Tick _roundStart;
    std::uint64_t _rounds = 0;
    SampleStat _copyLatency{"gc-copy-latency"};
    SampleStat _roundDuration{"gc-round-duration"};
    Callback _forceDone;
    unsigned _forcedPending = 0;

    GcCoordinationHooks _hooks;
    GrantState _grant = GrantState::None;
    /// Forced round parked behind a grant request.
    bool _pendingForce = false;
    unsigned _pendingForceVictims = 0;
    Callback _pendingForceDone;
    /// GC work counters snapshotted when the grant was delivered.
    std::uint64_t _grantCopies0 = 0;
    std::uint64_t _grantErases0 = 0;
    /// Non-zero while a batch of startUnit calls is in progress, so a
    /// synchronously-finishing unit cannot release the grant early.
    unsigned _startingBatch = 0;
};

} // namespace dssd

#endif // DSSD_CORE_GC_HH
