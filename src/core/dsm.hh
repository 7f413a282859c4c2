/**
 * @file
 * Dynamic superblock management in the timing simulator (Sec 5).
 *
 * The fast-path EnduranceSim (src/reliability) answers lifetime
 * questions over millions of P/E cycles; this engine runs the same
 * schemes through the *full timed datapath* so the repair mechanics
 * and their cost are visible:
 *
 *  - wear-out failures are detected by the controller's ECC during a
 *    program/erase cycle;
 *  - under RECYCLED/RESERV, the decoupled controller takes a spare
 *    from its RBT, inserts the SRT remapping, and relocates the
 *    failing sub-block's valid pages with *global copyback* — all
 *    without the FTL's involvement (the SuperblockMapping is never
 *    told);
 *  - when no repair is possible, the superblock dies the conventional
 *    way: the FTL relocates every valid page to a fresh superblock
 *    and retires the old one (this is the expensive path the hardware
 *    scheme avoids).
 */

#ifndef DSSD_CORE_DSM_HH
#define DSSD_CORE_DSM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/ssd.hh"
#include "ftl/superblock.hh"
#include "reliability/wear.hh"

namespace dssd
{

/** Superblock-management scheme run by the engine. */
enum class DsmScheme
{
    Static,   ///< conventional: first bad sub-block kills the group
    Recycled, ///< hardware RBT/SRT recycling (Sec 5.1)
    Reserv,   ///< recycled + reserved provisioning (Sec 5.3)
};

const char *dsmSchemeName(DsmScheme s);

/** Engine parameters. */
struct DsmParams
{
    DsmScheme scheme = DsmScheme::Static;
    WearModel wear;
    /// Reserv: fraction of superblocks provisioned as recycled blocks.
    double reservedFraction = 0.07;
    std::uint64_t seed = 7;
};

/** Measured outcomes. */
struct DsmStats
{
    std::uint64_t cycles = 0;          ///< superblock P/E cycles run
    std::uint64_t bytesWritten = 0;
    std::uint32_t deadSuperblocks = 0;
    std::uint64_t remapEvents = 0;     ///< SRT insertions/updates
    std::uint64_t faultEvents = 0;     ///< escalated media faults
    std::uint64_t repairPagesCopied = 0; ///< via global copyback
    std::uint64_t deathPagesCopied = 0;  ///< via conventional FTL path
    Tick firstDeathTime = 0;
    /// (bytesWritten, deadSuperblocks) recorded at each death.
    std::vector<std::pair<double, std::uint32_t>> curve;
};

/**
 * Drives program/erase cycles over the superblock pool on a dSSD and
 * performs scheme-appropriate failure handling through the decoupled
 * controllers.
 *
 * When the SSD carries a FaultModel the engine installs itself as the
 * fault sink: escalated media faults (uncorrectable reads,
 * program/erase failures) are queued against the owning superblock and
 * merged into the next wear check, so random faults flow through
 * exactly the same repair/kill paths as wear-out.
 */
class DynamicSuperblockEngine : public FaultSink
{
  public:
    using Callback = Engine::Callback;

    /**
     * @param ssd A decoupled-architecture SSD (needs the controllers'
     *        SRT/RBT and global copyback).
     * @param map Superblock lifecycle table over the SSD's geometry;
     *        the engine fills, erases, retires and reserves its
     *        superblocks.
     */
    DynamicSuperblockEngine(Ssd &ssd, SuperblockMapping &map,
                            const DsmParams &params);

    ~DynamicSuperblockEngine() override;

    DynamicSuperblockEngine(const DynamicSuperblockEngine &) = delete;
    DynamicSuperblockEngine &
    operator=(const DynamicSuperblockEngine &) = delete;

    /**
     * Run wear cycles round-robin over the live superblocks until
     * @p max_cycles cycles have executed or fewer than two live
     * superblocks remain; @p done fires at completion.
     */
    void run(std::uint64_t max_cycles, Callback done);

    const DsmStats &stats() const { return _stats; }
    const DsmParams &params() const { return _params; }

    /** Physical block currently backing sub-block of @p sb on
     *  @p unit (identity unless remapped). */
    ChannelBlockId physicalBlock(std::uint32_t sb,
                                 std::uint32_t unit) const;

    /** FaultSink: queue an escalated media fault against its owning
     *  superblock (merged into the next wear check). */
    void onBlockFault(const PhysAddr &addr, FaultKind kind) override;

  private:
    struct Wear
    {
        std::uint32_t pe = 0;
        std::uint32_t limit = 0;
    };

    void cycleNext();
    void programPhase(std::uint32_t sb);
    void checkFailures(std::uint32_t sb);
    void processRepairs(std::uint32_t sb,
                        std::shared_ptr<std::vector<std::uint32_t>>
                            failing,
                        std::size_t idx);
    /** Repair sub-block @p unit of @p sb; false if impossible. */
    bool tryRepair(std::uint32_t sb, std::uint32_t unit,
                   Callback repaired);
    void killSuperblock(std::uint32_t sb);
    void erasePhase(std::uint32_t sb);

    PhysAddr resolved(const PhysAddr &addr) const;
    Wear &wearOf(std::uint32_t channel, ChannelBlockId block);

    Ssd &_ssd;
    SuperblockMapping &_map;
    DsmParams _params;
    Rng _rng;
    /// Auditor the DSM checks were registered with (DSSD_AUDIT builds).
    Auditor *_auditor = nullptr;
    std::vector<std::size_t> _auditIds;
    /// _wear[channel][block-id-in-channel]
    std::vector<std::vector<Wear>> _wear;
    /// _pendingFaultUnits[sb]: units with an escalated fault awaiting
    /// the superblock's next failure check.
    std::vector<std::vector<std::uint32_t>> _pendingFaultUnits;
    DsmStats _stats;
    std::uint64_t _remaining = 0;
    std::uint32_t _cursor = 0;
    Callback _done;
};

} // namespace dssd

#endif // DSSD_CORE_DSM_HH
