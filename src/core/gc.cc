#include "core/gc.hh"

#include <algorithm>
#include <utility>

#include "core/ssd.hh"
#include "sim/log.hh"
#include "sim/registry.hh"
#include "sim/trace.hh"

namespace dssd
{

GcEngine::GcEngine(Ssd &ssd, const GcParams &params)
    : _ssd(ssd), _params(params),
      _units(ssd.mapping().unitCount()),
      _spaceWaits(ssd.engine(), "GC copy destination",
                  [this] { return _ssd.spaceState(); }),
      _firstStart(maxTick), _roundStart(maxTick)
{
    if (_params.preemptQuantumPages == 0)
        _params.preemptQuantumPages = 1;
}

void
GcEngine::noteAllocation(std::uint32_t unit)
{
    UnitState &u = _units[unit];
    if (u.active)
        return;
    if (!_ssd.mapping().gcNeeded(unit))
        return;
    // Under a held grant collection may start directly; otherwise a
    // coordinated engine queues the unit behind a grant request.
    if (coordinated() && _grant != GrantState::Held) {
        u.wantsGc = true;
        requestIfNeeded();
        return;
    }
    startUnit(unit);
}

void
GcEngine::forceAll(unsigned victims_per_unit, Callback done)
{
    if (_forcedPending != 0 || _pendingForce)
        panic("forceAll while a forced GC round is still running");
    if (coordinated() && _grant != GrantState::Held) {
        _pendingForce = true;
        _pendingForceVictims = victims_per_unit;
        _pendingForceDone = std::move(done);
        requestIfNeeded();
        return;
    }
    beginForcedRound(victims_per_unit, std::move(done));
}

void
GcEngine::beginForcedRound(unsigned victims_per_unit, Callback done)
{
    _forceDone = std::move(done);
    _forcedPending = static_cast<unsigned>(_units.size());
    ++_startingBatch;
    for (std::uint32_t unit = 0; unit < _units.size(); ++unit) {
        UnitState &u = _units[unit];
        u.forced = true;
        u.forcedRemaining = victims_per_unit;
        u.wantsGc = false; // the forced round covers every unit
        if (!u.active)
            startUnit(unit);
    }
    --_startingBatch;
    maybeReleaseGrant();
}

void
GcEngine::setCoordination(GcCoordinationHooks hooks)
{
    if (_activeUnits != 0 || _grant != GrantState::None)
        panic("setCoordination while collection is in progress");
    _hooks = std::move(hooks);
}

void
GcEngine::grantCollection()
{
    if (_grant != GrantState::Requested)
        panic("grantCollection without an outstanding request");
    _grant = GrantState::Held;
    _grantCopies0 = _pagesMoved;
    _grantErases0 = _blocksErased;
    ++_startingBatch;
    if (_pendingForce) {
        _pendingForce = false;
        Callback done = std::move(_pendingForceDone);
        _pendingForceDone = nullptr;
        beginForcedRound(_pendingForceVictims, std::move(done));
    }
    for (std::uint32_t unit = 0; unit < _units.size(); ++unit) {
        UnitState &u = _units[unit];
        // Rounds preempted while the grant was yielded resume first.
        if (u.active && u.paused && u.wantsResume)
            resumeUnit(unit);
        if (!u.wantsGc)
            continue;
        u.wantsGc = false;
        // The threshold may have been restored while the request was
        // queued (e.g. by a forced round that just ran).
        if (!u.active && _ssd.mapping().gcNeeded(unit))
            startUnit(unit);
    }
    --_startingBatch;
    maybeReleaseGrant();
    maybeYieldGrantPaused();
}

std::uint32_t
GcEngine::freeBlockPressure() const
{
    const PageMapping &map = _ssd.mapping();
    std::uint32_t worst = 0;
    for (std::uint32_t unit = 0; unit < map.unitCount(); ++unit)
        worst = std::max(worst, map.freeBlockPressure(unit));
    return worst;
}

void
GcEngine::requestIfNeeded()
{
    if (_grant != GrantState::None)
        return;
    bool want = _pendingForce;
    for (std::uint32_t unit = 0; !want && unit < _units.size(); ++unit)
        want = _units[unit].wantsGc || _units[unit].wantsResume;
    if (!want)
        return;
    _grant = GrantState::Requested;
    _hooks.request(freeBlockPressure());
}

void
GcEngine::maybeReleaseGrant()
{
    if (_grant != GrantState::Held || _startingBatch != 0 ||
        _activeUnits != 0) {
        return;
    }
    _grant = GrantState::None;
    std::uint64_t copies = _pagesMoved - _grantCopies0;
    std::uint64_t erases = _blocksErased - _grantErases0;
    if (_hooks.release)
        _hooks.release(copies, erases);
    // Work queued while the window was closing asks again.
    requestIfNeeded();
}

void
GcEngine::startUnit(std::uint32_t unit)
{
    UnitState &u = _units[unit];
    u.active = true;
    // The preemption quantum spans the whole round (victims are often
    // nearly empty, so a per-victim quantum would never fill).
    u.quantumCopies = 0;
    ++_activeUnits;
    if (_firstStart == maxTick)
        _firstStart = _ssd.engine().now();
    if (_activeUnits == 1) {
        _roundStart = _ssd.engine().now();
        ++_rounds;
    }
#if DSSD_TRACING
    Tracer *tr = _ssd.engine().tracer();
    if (tr) {
        int pid = tr->process("gc");
        u.spanId = tr->nextSpanId();
        tr->asyncBegin(pid, "gc", "gc-round", u.spanId,
                       _ssd.engine().now());
    }
#endif
    collectNext(unit);
}

void
GcEngine::collectNext(std::uint32_t unit)
{
    UnitState &u = _units[unit];
    PageMapping &map = _ssd.mapping();

    bool keep_going;
    if (u.forced)
        keep_going = u.forcedRemaining > 0;
    else
        keep_going = !map.gcSatisfied(unit);
    if (!keep_going) {
        finishUnit(unit);
        return;
    }

    auto victim = map.pickVictim(unit);
    if (!victim) {
        finishUnit(unit);
        return;
    }
    u.victim = *victim;
    u.victimForced = u.forced;
    u.lpns = map.validLpns(unit, u.victim);
    u.nextLpn = 0;
    u.inFlight = 0;
    u.sliceCopies = 0;
    u.erasing = false;

    if (u.lpns.empty())
        victimDrained(unit);
    else
        pumpCopies(unit);
}

bool
GcEngine::policyAllowsCopy(std::uint32_t unit)
{
    UnitState &u = _units[unit];
    Engine &eng = _ssd.engine();

    switch (_params.policy) {
      case GcPolicy::Parallel:
        return true;
      case GcPolicy::Preemptive:
        // Postpone GC while host I/O is pending, unless free blocks
        // are critically low (the FTL "can no longer postpone GC").
        if (_ssd.ioOutstanding() > 0 &&
            _ssd.mapping().freeBlockCount(unit) >
                _params.preemptiveForcedFreeBlocks) {
            eng.schedule(_params.tinyTailYieldNs,
                         [this, unit] { pumpCopies(unit); });
            return false;
        }
        return true;
      case GcPolicy::TinyTail:
        // Yield to I/O after each small copy slice.
        if (u.sliceCopies >= _params.tinyTailSlicePages &&
            _ssd.ioOutstanding() > 0) {
            u.sliceCopies = 0;
            eng.schedule(_params.tinyTailYieldNs,
                         [this, unit] { pumpCopies(unit); });
            return false;
        }
        return true;
    }
    return true;
}

std::optional<std::uint32_t>
GcEngine::chooseDestination(std::uint32_t src_unit)
{
    PageMapping &map = _ssd.mapping();
    if (!_params.globalDestination) {
        if (!map.canAllocate(src_unit))
            return std::nullopt;
        return src_unit;
    }
    std::uint32_t n = map.unitCount();
    // Global free-block selection: round-robin over units comfortably
    // above the GC threshold.
    for (std::uint32_t i = 0; i < n; ++i) {
        std::uint32_t unit = _dstCursor;
        _dstCursor = (_dstCursor + 1) % n;
        if (!map.canAllocate(unit))
            continue;
        if (map.freeBlockCount(unit) > map.params().gcFreeBlockThreshold)
            return unit;
    }
    // Space crunch: fall back to the source unit's reserved block so
    // this victim can drain locally and its erase restores space.
    if (map.canAllocate(src_unit))
        return src_unit;
    // Last resort: anything with room.
    for (std::uint32_t unit = 0; unit < n; ++unit) {
        if (map.canAllocate(unit))
            return unit;
    }
    return std::nullopt;
}

void
GcEngine::pumpCopies(std::uint32_t unit)
{
    UnitState &u = _units[unit];
    PageMapping &map = _ssd.mapping();

    // Stale wakeups (policy rechecks, space-wait retries) may land
    // after the victim drained, the unit finished, or the round was
    // preempted; ignore them.
    if (!u.active || u.erasing || u.paused)
        return;

    while (u.inFlight < _params.copiesInFlightPerUnit &&
           u.nextLpn < u.lpns.size()) {
        // Preemptible GC: after each copy quantum, yield to pending
        // host I/O and resume deterministically later. A threshold
        // round runs while free <= gcFreeBlockThreshold by definition,
        // so the livelock guard is the critical floor instead: once a
        // unit is down to its last reserve blocks the round must run
        // to completion — it is what restores space.
        if (_params.preemptible &&
            u.quantumCopies >= _params.preemptQuantumPages &&
            _ssd.ioOutstanding() > 0 &&
            map.freeBlockCount(unit) >
                _params.preemptiveForcedFreeBlocks) {
            pauseUnit(unit);
            return;
        }
        if (!policyAllowsCopy(unit))
            return;
        // Skip pages the host rewrote while this victim was queued.
        std::uint64_t lpn = u.lpns[u.nextLpn];
        auto ppn = map.translate(lpn);
        if (!ppn) {
            ++u.nextLpn;
            continue;
        }
        PhysAddr src = map.geometry().pageAddr(*ppn);
        if (map.unitOf(src) != unit || src.block != u.victim) {
            ++u.nextLpn;
            continue;
        }
        auto dst_unit = chooseDestination(unit);
        if (!dst_unit) {
            // Nowhere to relocate right now; wait for an erase to
            // restore space somewhere, then resume.
            _spaceWaits.park([this, unit] { pumpCopies(unit); });
            return;
        }
        ++u.nextLpn;
        issueCopy(unit, lpn, *dst_unit);
    }
    if (u.nextLpn >= u.lpns.size() && u.inFlight == 0)
        victimDrained(unit);
}

void
GcEngine::pauseUnit(std::uint32_t unit)
{
    UnitState &u = _units[unit];
    u.paused = true;
    u.quantumCopies = 0;
    ++_pausedUnits;
    ++_preemptYields;
#if DSSD_TRACING
    Tracer *tr = _ssd.engine().tracer();
    if (tr) {
        int pid = tr->process("gc");
        tr->counter(pid, "gc-paused-units", _ssd.engine().now(),
                    static_cast<double>(_pausedUnits));
    }
#endif
    _ssd.engine().schedule(_params.preemptResumeNs,
                           [this, unit] { resumeCheck(unit); });
    maybeYieldGrantPaused();
}

void
GcEngine::resumeCheck(std::uint32_t unit)
{
    UnitState &u = _units[unit];
    if (!u.active || !u.paused)
        return;
    // The grant was yielded while this unit slept: re-request it and
    // resume when the scheduler grants collection again.
    if (coordinated() && _grant != GrantState::Held) {
        u.wantsResume = true;
        requestIfNeeded();
        return;
    }
    resumeUnit(unit);
}

void
GcEngine::resumeUnit(std::uint32_t unit)
{
    UnitState &u = _units[unit];
    u.paused = false;
    u.wantsResume = false;
    u.quantumCopies = 0;
    --_pausedUnits;
    ++_preemptResumes;
#if DSSD_TRACING
    Tracer *tr = _ssd.engine().tracer();
    if (tr) {
        int pid = tr->process("gc");
        tr->counter(pid, "gc-paused-units", _ssd.engine().now(),
                    static_cast<double>(_pausedUnits));
    }
#endif
    pumpCopies(unit);
}

void
GcEngine::maybeYieldGrantPaused()
{
    if (!_params.preemptible)
        return;
    if (_grant != GrantState::Held || _startingBatch != 0)
        return;
    if (_activeUnits == 0 || _pausedUnits != _activeUnits)
        return;
    // Every active round is paused: yield the grant so other shards
    // can collect, reporting the partial round's work. Paused rounds
    // re-request the grant from their resume timers.
    _grant = GrantState::None;
    std::uint64_t copies = _pagesMoved - _grantCopies0;
    std::uint64_t erases = _blocksErased - _grantErases0;
    if (_hooks.release)
        _hooks.release(copies, erases);
    requestIfNeeded();
}

void
GcEngine::issueCopy(std::uint32_t unit, std::uint64_t lpn,
                    std::uint32_t dst_unit)
{
    UnitState &u = _units[unit];
    PageMapping &map = _ssd.mapping();

    PhysAddr src = map.geometry().pageAddr(*map.translate(lpn));
    PhysAddr dst = map.allocateInUnit(lpn, dst_unit);

    ++u.inFlight;
    ++u.sliceCopies;
    ++u.quantumCopies;
    Tick t0 = _ssd.engine().now();
    _ssd.gcCopyPage(src, dst, [this, unit, lpn, dst, t0] {
        _ssd.mapping().commitRelocation(lpn, dst);
        ++_pagesMoved;
        _copyLatency.sample(
            static_cast<double>(_ssd.engine().now() - t0));
        UnitState &uu = _units[unit];
        --uu.inFlight;
        pumpCopies(unit);
    });
}

void
GcEngine::victimDrained(std::uint32_t unit)
{
    UnitState &u = _units[unit];
    if (u.erasing)
        return;
    u.erasing = true;
    std::uint32_t victim = u.victim;
    _ssd.gcEraseBlock(unit, victim, [this, unit, victim] {
        _ssd.mapping().eraseBlock(unit, victim);
        ++_blocksErased;
        UnitState &uu = _units[unit];
        // Only victims picked under force consume the forced budget;
        // a threshold victim that straddled forceAll does not.
        if (uu.victimForced && uu.forcedRemaining > 0)
            --uu.forcedRemaining;
        collectNext(unit);
    });
}

void
GcEngine::finishUnit(std::uint32_t unit)
{
    UnitState &u = _units[unit];
    u.active = false;
    --_activeUnits;
#if DSSD_TRACING
    Tracer *tr = _ssd.engine().tracer();
    if (tr) {
        int pid = tr->process("gc");
        tr->asyncEnd(pid, "gc", "gc-round", u.spanId,
                     _ssd.engine().now());
    }
#endif
    if (_activeUnits == 0) {
        _lastEnd = _ssd.engine().now();
        _roundDuration.sample(
            static_cast<double>(_lastEnd - _roundStart));
    }
    if (u.forced) {
        u.forced = false;
        u.victimForced = false;
        u.forcedRemaining = 0;
        if (_forcedPending == 0)
            panic("forced GC accounting underflow");
        if (--_forcedPending == 0 && _forceDone) {
            Callback cb = std::move(_forceDone);
            _forceDone = nullptr;
            cb();
        }
    }
    maybeReleaseGrant();
    // The last runnable unit may leave only paused rounds behind.
    maybeYieldGrantPaused();
}

void
GcEngine::registerStats(StatRegistry &reg,
                        const std::string &prefix) const
{
    reg.addScalar(prefix + ".pages_moved", [this] {
        return static_cast<double>(_pagesMoved);
    });
    reg.addScalar(prefix + ".blocks_erased", [this] {
        return static_cast<double>(_blocksErased);
    });
    reg.addScalar(prefix + ".active_units", [this] {
        return static_cast<double>(_activeUnits);
    });
    reg.addScalar(prefix + ".rounds", [this] {
        return static_cast<double>(_rounds);
    });
    reg.addSample(prefix + ".copy_latency", &_copyLatency);
    reg.addSample(prefix + ".round_duration", &_roundDuration);
    // Preemption counters only exist when the feature is on, so
    // default runs keep their historical --stats output.
    if (_params.preemptible) {
        reg.addScalar(prefix + ".preempt_yields", [this] {
            return static_cast<double>(_preemptYields);
        });
        reg.addScalar(prefix + ".preempt_resumes", [this] {
            return static_cast<double>(_preemptResumes);
        });
    }
}

} // namespace dssd
