/**
 * @file
 * Deterministic fault injection for the timing simulator.
 *
 * The FaultModel turns every media operation into a sampled outcome:
 * raw-bit-error severity on reads (a function of the block's P/E count
 * and retention age), program-status failures, erase failures, and
 * fNoC packet CRC corruption. All draws come from per-channel Rng
 * streams seeded from FaultParams::seed, so a run with a fixed
 * --fault-seed reproduces the exact same fault schedule regardless of
 * which figures or stats are being collected.
 *
 * Recovery is modeled where the hardware does it:
 *  - the ECC read-recovery ladder (runReadRecovery): clean decode ->
 *    read retries with a die re-read each round -> slow soft decode ->
 *    uncorrectable;
 *  - uncorrectable/program/erase failures escalate to the block-fault
 *    sink (Ssd by default, DynamicSuperblockEngine when attached),
 *    which repairs via RBT/SRT global copyback or retires the block
 *    through the FTL;
 *  - NocNetwork retransmits CRC-corrupted packets after a NACK delay;
 *  - DecoupledController aborts a copyback whose page its channel ECC
 *    cannot correct and re-reads it through the front-end.
 *
 * When FaultParams::enabled is false no FaultModel is constructed at
 * all: every injection site is nullptr-gated, zero draws happen, and
 * the event schedule is bit-identical to a fault-free build.
 */

#ifndef DSSD_FAULT_FAULT_HH
#define DSSD_FAULT_FAULT_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "ecc/ecc.hh"
#include "nand/geometry.hh"
#include "sim/rng.hh"

namespace dssd
{

class StatRegistry;
struct LatencyBreakdown;

/** Outcome severity of a page read's first ECC decode. */
enum class ReadSeverity : int
{
    Clean = 0,         ///< hard decode succeeds immediately
    Retry = 1,         ///< recovered after read-retry round(s)
    Soft = 2,          ///< recovered only by the slow soft-decode path
    Uncorrectable = 3, ///< unrecoverable at this engine
};

/** Terminal media failure classes escalated to the block-fault sink. */
enum class FaultKind : int
{
    UncorrectableRead = 0,
    ProgramFail = 1,
    EraseFail = 2,
};

/** A sampled read outcome: severity plus the retry rounds consumed. */
struct ReadOutcome
{
    ReadSeverity severity = ReadSeverity::Clean;
    /// Re-read rounds the ladder runs (0 for Clean; maxReadRetries for
    /// Soft/Uncorrectable, which exhaust the retry budget first).
    unsigned retries = 0;
};

/** Fault-injection configuration (a block inside SsdConfig). */
struct FaultParams
{
    /// Master switch; when false the Ssd builds no FaultModel at all.
    bool enabled = false;
    /// Seed of the per-component fault streams (independent from the
    /// workload seed so fault schedules can be varied in isolation).
    std::uint64_t seed = 99;

    /// Global RBER multiplier; the fig17 sweep scales this.
    double rberScale = 1.0;
    /// Baseline per-read probabilities at zero stress (fresh block,
    /// just-programmed data). Cumulative tail: a draw first decides
    /// uncorrectable, then soft, then retry.
    double readRetryProb = 0.02;
    double readSoftProb = 0.004;
    double readUncorrProb = 5e-4;
    /// Stress factor: probability scale = 1 + peWeight * (P/E count)
    /// + retentionWeight * (retention age in ms).
    double peWeight = 0.02;
    double retentionWeight = 0.001;
    /// Read-retry rounds before the ladder falls through to soft
    /// decode.
    unsigned maxReadRetries = 3;

    /// Per-operation program-status / erase-failure probabilities.
    double programFailProb = 2e-4;
    double eraseFailProb = 1e-4;

    /// fNoC packet CRC corruption probability (per delivery).
    double nocCrcProb = 0.0;
    /// NACK/timeout before a corrupted packet retransmits.
    Tick nocNackDelay = usToTicks(2);

    /// Spare blocks pre-seeded into each decoupled controller's RBT
    /// (taken out of FTL visibility) for runtime hardware repair.
    unsigned rbtSparesPerChannel = 2;
};

/**
 * Receiver of terminal block faults. The Ssd installs itself (repair
 * via RBT/SRT or FTL retirement); DynamicSuperblockEngine overrides it
 * to merge faults into its wear-cycle state machine.
 */
class FaultSink
{
  public:
    virtual ~FaultSink() = default;
    virtual void onBlockFault(const PhysAddr &addr, FaultKind kind) = 0;
};

/**
 * The seeded fault source. One instance per Ssd, shared by channels,
 * decoupled controllers, and the fNoC. Pure state plus counters; the
 * recovery *timing* lives at the injection sites.
 */
class FaultModel
{
  public:
    using BlockFaultFn = std::function<void(const PhysAddr &, FaultKind)>;

    FaultModel(const FlashGeometry &geom, const FaultParams &params);

    const FaultParams &params() const { return _params; }

    /**
     * Sample the ECC outcome of reading @p addr at time @p now. One
     * uniform draw per call from the channel's media stream.
     */
    ReadOutcome readOutcome(const PhysAddr &addr, Tick now);

    /** Sample a program-status failure for the op at @p addr. */
    bool programFails(const PhysAddr &addr);

    /** Sample an erase failure for the block at @p addr. */
    bool eraseFails(const PhysAddr &addr);

    /** Sample fNoC packet CRC corruption (per delivery attempt). */
    bool packetCorrupted();

    /** Record a completed program (sets the retention clock). */
    void notifyProgram(const PhysAddr &addr, Tick when);

    /** Record a completed erase (bumps P/E, resets retention). */
    void notifyErase(const PhysAddr &addr);

    /** P/E count the model tracks for the block at @p addr. */
    std::uint32_t peCount(const PhysAddr &addr) const;

    /**
     * Escalate a terminal fault: count it and forward to the sink.
     * Injection sites call this at the tick the controller would see
     * the failed status / uncorrectable decode.
     */
    void reportBlockFault(const PhysAddr &addr, FaultKind kind);

    /** Install the block-fault handler (Ssd's repair/retire logic). */
    void setSink(BlockFaultFn sink) { _sink = std::move(sink); }

    std::uint64_t readsClean() const { return _readsClean; }
    std::uint64_t readRetryRounds() const { return _readRetryRounds; }
    std::uint64_t readsSoft() const { return _readsSoft; }
    std::uint64_t readsUncorrectable() const { return _readsUncorr; }
    std::uint64_t programFailures() const { return _programFails; }
    std::uint64_t eraseFailures() const { return _eraseFails; }
    std::uint64_t packetsCorrupted() const { return _packetsCorrupted; }
    std::uint64_t blockFaults() const { return _blockFaults; }

    /**
     * Test hook: force the next readOutcome() calls to return the
     * queued outcome instead of drawing (FIFO). Lets tests exercise
     * the exact ladder escalation order deterministically.
     */
    void debugForceReadOutcome(ReadSeverity sev, unsigned retries);

    /** Test hook: force the next programFails()/eraseFails() to true. */
    void debugForceProgramFail() { ++_forcedProgramFails; }
    void debugForceEraseFail() { ++_forcedEraseFails; }

    /** Register fault.* counters under @p prefix. */
    void registerStats(StatRegistry &reg, const std::string &prefix) const;

  private:
    struct BlockWear
    {
        std::uint32_t pe = 0;
        Tick lastProgram = 0;
    };

    BlockWear &wearOf(const PhysAddr &addr);
    const BlockWear &wearOf(const PhysAddr &addr) const;
    /** Stress multiplier for @p addr at time @p now (>= 1). */
    double stress(const PhysAddr &addr, Tick now) const;

    FlashGeometry _geom;
    FaultParams _params;
    /// One media stream per channel plus a dedicated fNoC stream, so
    /// per-channel op interleaving does not perturb other channels'
    /// fault schedules.
    std::vector<Rng> _mediaRng;
    Rng _nocRng;
    /// _wear[channel][channelBlockId]
    std::vector<std::vector<BlockWear>> _wear;
    BlockFaultFn _sink;

    std::deque<ReadOutcome> _forcedReads;
    unsigned _forcedProgramFails = 0;
    unsigned _forcedEraseFails = 0;

    std::uint64_t _readsClean = 0;
    std::uint64_t _readRetryRounds = 0;
    std::uint64_t _readsSoft = 0;
    std::uint64_t _readsUncorr = 0;
    std::uint64_t _programFails = 0;
    std::uint64_t _eraseFails = 0;
    std::uint64_t _packetsCorrupted = 0;
    std::uint64_t _blockFaults = 0;
};

/**
 * Run the ECC read-recovery ladder over a page that just arrived from
 * the flash array.
 *
 * With no fault model (or faults disabled) this is exactly one
 * EccEngine::process() — identical events, identical timing — so the
 * fault-off datapath stays bit-identical. Under faults the ladder
 * samples a ReadOutcome for @p addr and charges, in order: the failed
 * hard decode, each read-retry round (@p reread, a closure re-reading
 * the die, plus another hard decode), then the slow soft-decode pass.
 *
 * The ladder closes its own bdEcc spans (one per decode attempt); the
 * re-reads charge flash time through @p reread's own breakdown
 * plumbing. @p done receives the final severity; on Uncorrectable the
 * page is unrecoverable at this engine and the caller escalates.
 */
void runReadRecovery(Engine &engine, EccEngine &ecc, FaultModel *fault,
                     const PhysAddr &addr, std::uint64_t bytes, int tag,
                     LatencyBreakdown *bd,
                     std::function<void(Engine::Callback)> reread,
                     std::function<void(ReadSeverity)> done);

} // namespace dssd

#endif // DSSD_FAULT_FAULT_HH
