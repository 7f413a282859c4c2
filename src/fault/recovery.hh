/**
 * @file
 * Block-fault recovery engine.
 *
 * Terminal media faults (uncorrectable reads, program/erase failures)
 * escalate here from the FaultModel. Each physical block is escalated
 * at most once; the engine then either repairs it in place through the
 * architecture's repair hardware (RBT spare + SRT remap, dSSD family)
 * or retires it through the FTL, relocating its still-valid pages over
 * the timed GC datapath. The engine also implements the front-end
 * copyback fallback: the expensive conventional re-read a decoupled
 * copyback pays when its page is uncorrectable at the channel ECC.
 *
 * Layering: this engine owns fault *policy and bookkeeping* (dedup
 * table, destination cursor, repair/retire counters) plus the timed
 * routes it can express with the resources below it (system bus,
 * DRAM). Everything architecture-specific — flash channel ops, the
 * repair hardware, ECC soft decode, SRT reverse lookup — is injected
 * by the Ssd shell through Routes, so src/fault never depends on
 * src/controller or src/core.
 */

#ifndef DSSD_FAULT_RECOVERY_HH
#define DSSD_FAULT_RECOVERY_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "bus/system_bus.hh"
#include "fault/fault.hh"
#include "ftl/mapping.hh"
#include "sim/engine.hh"
#include "sim/latency.hh"
#include "sim/resource.hh"

namespace dssd
{

/** Repair-or-retire handling of terminal block faults. */
class RecoveryEngine : public FaultSink
{
  public:
    using Callback = Engine::Callback;

    /**
     * Architecture-specific routes injected by the owner. copyPage,
     * channelRead, channelProgram, and softDecode must always be set;
     * hardwareRepair and unremap are left unset on architectures
     * without repair hardware (retirement-only handling); spaceState
     * is optional.
     */
    struct Routes
    {
        /// Timed GC-datapath copy of one valid page (relocation).
        std::function<void(const PhysAddr &src, const PhysAddr &dst,
                           Callback done)>
            copyPage;
        /// In-place hardware repair of the faulted block; returns
        /// false when no spare/SRT room and the caller must retire.
        std::function<bool(const PhysAddr &addr)> hardwareRepair;
        /// FTL-visible address behind a (possibly remapped) physical
        /// one (SRT reverse lookup). Unset = identity.
        std::function<PhysAddr(const PhysAddr &addr)> unremap;
        /// Timed flash read of one page.
        std::function<void(const PhysAddr &addr, int tag,
                           LatencyBreakdown *bd, Callback done)>
            channelRead;
        /// Slow soft decode in the ECC engine serving @p channel.
        std::function<void(unsigned channel, std::uint64_t bytes,
                           int tag, Callback done)>
            softDecode;
        /// Timed flash program of one page.
        std::function<void(const PhysAddr &addr, int tag,
                           LatencyBreakdown *bd, Callback done)>
            channelProgram;
        /// Free space and GC activity, named by the error a wedged
        /// relocation wait stops with.
        RetryQueue::StateFn spaceState;
    };

    RecoveryEngine(Engine &engine, const FlashGeometry &geom,
                   PageMapping &mapping, SystemBus &bus, Dram &dram,
                   Tick gc_firmware_latency, Routes routes);

    /**
     * Terminal-fault entry point (the FaultModel's sink): dedup, then
     * repair in hardware or retire through the FTL.
     */
    void onBlockFault(const PhysAddr &addr, FaultKind kind) override;

    /**
     * Divert faults to @p sink instead of the built-in handling
     * (DynamicSuperblockEngine merges faults into its wear-cycle
     * state machine); null restores the default.
     */
    void setOverrideSink(FaultSink *sink) { _override = sink; }

    /** Whether @p addr's block already escalated here. */
    bool blockFaulted(const PhysAddr &addr) const;

    /** Count @p pages copied by an in-progress hardware repair. */
    void noteRepairPages(std::uint32_t pages)
    {
        _repairPagesCopied += pages;
    }

    /** Count a completed SRT remap installed by a hardware repair. */
    void noteRemap() { ++_remapEvents; }

    /**
     * Front-end re-read of a copyback page the channel ECC could not
     * correct: flash read, soft decode, system bus, DRAM, FTL
     * firmware, and back out to the destination program.
     */
    void copybackFallback(const PhysAddr &src, const PhysAddr &dst,
                          int tag, LatencyBreakdown *bd, Callback done);

    std::uint64_t blocksRepaired() const { return _blocksRepaired; }
    std::uint64_t blocksRetired() const { return _blocksRetired; }
    std::uint64_t repairPagesCopied() const { return _repairPagesCopied; }
    std::uint64_t retirePagesCopied() const { return _retirePagesCopied; }
    std::uint64_t copybackFallbacks() const { return _cbFallbacks; }
    std::uint64_t remapEvents() const { return _remapEvents; }

  private:
    /** FTL bad-block retirement of @p addr's block. */
    void retireBlock(const PhysAddr &addr);
    /** Relocate the remaining @p lpns (from @p idx) of a retiring
     *  block, one at a time; waits on _spaceWaits while no unit has
     *  room. */
    void relocateRetired(std::shared_ptr<std::vector<Lpn>> lpns,
                         std::size_t idx, std::uint32_t unit,
                         std::uint32_t block);
    /** Flat block id within a channel (same linearization as the
     *  controller's ChannelBlockId). */
    std::uint32_t blockId(const PhysAddr &addr) const;

    Engine &_engine;
    FlashGeometry _geom;
    PageMapping &_mapping;
    SystemBus &_bus;
    Dram &_dram;
    Tick _gcFirmwareLatency;
    Routes _routes;
    RetryQueue _spaceWaits; ///< relocations with no destination unit

    FaultSink *_override = nullptr;
    /// _faultedBlocks[channel][blockId]: escalate each physical block
    /// at most once (retries keep reporting the same block).
    std::vector<std::vector<bool>> _faultedBlocks;
    std::uint32_t _faultDstCursor = 0;
    std::uint64_t _blocksRepaired = 0;
    std::uint64_t _blocksRetired = 0;
    std::uint64_t _repairPagesCopied = 0;
    std::uint64_t _retirePagesCopied = 0;
    std::uint64_t _cbFallbacks = 0;
    std::uint64_t _remapEvents = 0;
};

} // namespace dssd

#endif // DSSD_FAULT_RECOVERY_HH
