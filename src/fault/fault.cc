#include "fault/fault.hh"

#include <algorithm>
#include <memory>
#include <utility>

#include "sim/latency.hh"
#include "sim/log.hh"
#include "sim/registry.hh"
#include "sim/trace.hh"

namespace dssd
{

FaultModel::FaultModel(const FlashGeometry &geom, const FaultParams &params)
    : _geom(geom), _params(params),
      _nocRng(params.seed * 0x9e3779b97f4a7c15ULL + 0xda3e39cb94b95bdbULL)
{
    std::uint32_t blocks_per_channel = geom.ways * geom.diesPerWay *
                                       geom.planesPerDie *
                                       geom.blocksPerPlane;
    _mediaRng.reserve(geom.channels);
    _wear.resize(geom.channels);
    for (std::uint32_t ch = 0; ch < geom.channels; ++ch) {
        // Distinct, well-separated stream per channel: the sequence of
        // ops on one channel never perturbs another channel's draws.
        _mediaRng.emplace_back(params.seed * 0x9e3779b97f4a7c15ULL + ch);
        _wear[ch].resize(blocks_per_channel);
    }
}

FaultModel::BlockWear &
FaultModel::wearOf(const PhysAddr &addr)
{
    std::uint32_t id = ((addr.way * _geom.diesPerWay + addr.die) *
                            _geom.planesPerDie +
                        addr.plane) *
                           _geom.blocksPerPlane +
                       addr.block;
    return _wear[addr.channel][id];
}

const FaultModel::BlockWear &
FaultModel::wearOf(const PhysAddr &addr) const
{
    return const_cast<FaultModel *>(this)->wearOf(addr);
}

double
FaultModel::stress(const PhysAddr &addr, Tick now) const
{
    const BlockWear &w = wearOf(addr);
    double age_ms =
        now > w.lastProgram ? ticksToMs(now - w.lastProgram) : 0.0;
    return 1.0 + _params.peWeight * static_cast<double>(w.pe) +
           _params.retentionWeight * age_ms;
}

ReadOutcome
FaultModel::readOutcome(const PhysAddr &addr, Tick now)
{
    ReadOutcome out;
    if (!_forcedReads.empty()) {
        out = _forcedReads.front();
        _forcedReads.pop_front();
    } else {
        // One uniform draw against the stress-scaled cumulative tail:
        // uncorrectable is the worst (least likely) outcome, then soft,
        // then retry; everything else decodes clean.
        double s = stress(addr, now) * _params.rberScale;
        double u = _mediaRng[addr.channel].uniformReal();
        double p_uncorr = _params.readUncorrProb * s;
        double p_soft = p_uncorr + _params.readSoftProb * s;
        double p_retry = p_soft + _params.readRetryProb * s;
        if (u < p_uncorr) {
            out.severity = ReadSeverity::Uncorrectable;
            out.retries = _params.maxReadRetries;
        } else if (u < p_soft) {
            out.severity = ReadSeverity::Soft;
            out.retries = _params.maxReadRetries;
        } else if (u < p_retry) {
            out.severity = ReadSeverity::Retry;
            // Scale the residual draw into 1..maxReadRetries rounds.
            double frac = (u - p_soft) / (p_retry - p_soft);
            out.retries = 1 + static_cast<unsigned>(
                                  frac * _params.maxReadRetries) %
                                  std::max(1u, _params.maxReadRetries);
        }
    }

    switch (out.severity) {
      case ReadSeverity::Clean:
        ++_readsClean;
        break;
      case ReadSeverity::Retry:
        _readRetryRounds += out.retries;
        break;
      case ReadSeverity::Soft:
        _readRetryRounds += out.retries;
        ++_readsSoft;
        break;
      case ReadSeverity::Uncorrectable:
        _readRetryRounds += out.retries;
        ++_readsUncorr;
        break;
    }
    return out;
}

bool
FaultModel::programFails(const PhysAddr &addr)
{
    bool fail;
    if (_forcedProgramFails > 0) {
        --_forcedProgramFails;
        fail = true;
    } else {
        fail = _mediaRng[addr.channel].chance(_params.programFailProb *
                                              _params.rberScale);
    }
    if (fail)
        ++_programFails;
    return fail;
}

bool
FaultModel::eraseFails(const PhysAddr &addr)
{
    bool fail;
    if (_forcedEraseFails > 0) {
        --_forcedEraseFails;
        fail = true;
    } else {
        fail = _mediaRng[addr.channel].chance(_params.eraseFailProb *
                                              _params.rberScale);
    }
    if (fail)
        ++_eraseFails;
    return fail;
}

bool
FaultModel::packetCorrupted()
{
    if (_params.nocCrcProb <= 0.0)
        return false;
    bool bad = _nocRng.chance(_params.nocCrcProb);
    if (bad)
        ++_packetsCorrupted;
    return bad;
}

void
FaultModel::notifyProgram(const PhysAddr &addr, Tick when)
{
    wearOf(addr).lastProgram = when;
}

void
FaultModel::notifyErase(const PhysAddr &addr)
{
    BlockWear &w = wearOf(addr);
    ++w.pe;
    w.lastProgram = 0;
}

std::uint32_t
FaultModel::peCount(const PhysAddr &addr) const
{
    return wearOf(addr).pe;
}

void
FaultModel::reportBlockFault(const PhysAddr &addr, FaultKind kind)
{
    ++_blockFaults;
    if (_sink)
        _sink(addr, kind);
}

void
FaultModel::debugForceReadOutcome(ReadSeverity sev, unsigned retries)
{
    ReadOutcome out;
    out.severity = sev;
    out.retries = retries;
    _forcedReads.push_back(out);
}

void
FaultModel::registerStats(StatRegistry &reg,
                          const std::string &prefix) const
{
    reg.addScalar(prefix + ".reads_clean", [this] {
        return static_cast<double>(_readsClean);
    });
    reg.addScalar(prefix + ".read_retry_rounds", [this] {
        return static_cast<double>(_readRetryRounds);
    });
    reg.addScalar(prefix + ".reads_soft", [this] {
        return static_cast<double>(_readsSoft);
    });
    reg.addScalar(prefix + ".reads_uncorrectable", [this] {
        return static_cast<double>(_readsUncorr);
    });
    reg.addScalar(prefix + ".program_fails", [this] {
        return static_cast<double>(_programFails);
    });
    reg.addScalar(prefix + ".erase_fails", [this] {
        return static_cast<double>(_eraseFails);
    });
    reg.addScalar(prefix + ".noc_crc_errors", [this] {
        return static_cast<double>(_packetsCorrupted);
    });
    reg.addScalar(prefix + ".block_faults", [this] {
        return static_cast<double>(_blockFaults);
    });
}

namespace
{

/** Ladder bookkeeping shared across the recovery's event chain. */
struct Recovery
{
    ReadOutcome out;
    unsigned round = 0; ///< retry rounds completed
    PhysAddr addr;
    std::uint64_t bytes = 0;
    int tag = tagIo;
    LatencyBreakdown *bd = nullptr;
    std::function<void(Engine::Callback)> reread;
    std::function<void(ReadSeverity)> done;
};

void
traceRecoverySpan(Engine &engine, const char *name, Tick start)
{
#if DSSD_TRACING
    Tracer *tr = engine.tracer();
    if (tr) {
        int pid = tr->process("fault");
        std::uint64_t id = tr->nextSpanId();
        tr->asyncBegin(pid, "fault", name, id, start);
        tr->asyncEnd(pid, "fault", name, id, engine.now());
    }
#else
    (void)engine;
    (void)name;
    (void)start;
#endif
}

void
recoveryStep(Engine &engine, EccEngine &ecc,
             const std::shared_ptr<Recovery> &rec)
{
    if (rec->round < rec->out.retries) {
        // One read-retry round: re-read the die (with tuned reference
        // voltages), then another hard decode attempt.
        ++rec->round;
        Tick r0 = engine.now();
        rec->reread([&engine, &ecc, rec, r0] {
            Tick t0 = engine.now();
            ecc.process(rec->bytes, rec->tag, [&engine, &ecc, rec, r0,
                                               t0] {
                bdSpanClose(engine, rec->bd, bdEcc, t0);
                ecc.noteRetryRound();
                traceRecoverySpan(engine, "retry", r0);
                recoveryStep(engine, ecc, rec);
            });
        });
        return;
    }

    if (rec->out.severity == ReadSeverity::Retry) {
        // The final retry round recovered the data.
        rec->done(ReadSeverity::Retry);
        return;
    }

    if (rec->out.severity == ReadSeverity::Soft) {
        Tick t0 = engine.now();
        ecc.processSoft(rec->bytes, rec->tag, [&engine, rec, t0] {
            bdSpanClose(engine, rec->bd, bdEcc, t0);
            traceRecoverySpan(engine, "soft", t0);
            rec->done(ReadSeverity::Soft);
        });
        return;
    }

    // Retries and soft decode exhausted: unrecoverable here. The soft
    // pass still ran (and failed), so its time is charged.
    Tick t0 = engine.now();
    ecc.processSoft(rec->bytes, rec->tag, [&engine, &ecc, rec, t0] {
        bdSpanClose(engine, rec->bd, bdEcc, t0);
        ecc.noteUncorrectable();
        traceRecoverySpan(engine, "soft", t0);
        rec->done(ReadSeverity::Uncorrectable);
    });
}

} // namespace

void
runReadRecovery(Engine &engine, EccEngine &ecc, FaultModel *fault,
                const PhysAddr &addr, std::uint64_t bytes, int tag,
                LatencyBreakdown *bd,
                std::function<void(Engine::Callback)> reread,
                std::function<void(ReadSeverity)> done)
{
    if (!fault) {
        // Fault-free fast path: exactly the one decode the datapath
        // always charged; no draws, no extra events.
        Tick t0 = engine.now();
        ecc.process(bytes, tag, [&engine, &ecc, bd, t0,
                                 cb = std::move(done)] {
            bdSpanClose(engine, bd, bdEcc, t0);
            ecc.noteClean();
            cb(ReadSeverity::Clean);
        });
        return;
    }

    auto rec = std::make_shared<Recovery>();
    rec->out = fault->readOutcome(addr, engine.now());
    rec->addr = addr;
    rec->bytes = bytes;
    rec->tag = tag;
    rec->bd = bd;
    rec->reread = std::move(reread);
    rec->done = std::move(done);

    // The first hard decode always runs; its success/failure is the
    // sampled severity.
    Tick t0 = engine.now();
    ecc.process(bytes, tag, [&engine, &ecc, rec, t0] {
        bdSpanClose(engine, rec->bd, bdEcc, t0);
        if (rec->out.severity == ReadSeverity::Clean) {
            ecc.noteClean();
            rec->done(ReadSeverity::Clean);
            return;
        }
        recoveryStep(engine, ecc, rec);
    });
}

} // namespace dssd
