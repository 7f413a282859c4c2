/**
 * @file
 * Page-level address mapping and block bookkeeping.
 *
 * The FTL maps logical page numbers (LPNs) to physical pages and
 * tracks per-block validity for garbage collection. Allocation stripes
 * writes round-robin across parallel units (one unit per plane), which
 * is how the paper's SSD reaches channel x way x plane parallelism.
 *
 * This layer is pure state (no simulated time); the datapath in
 * src/core drives it and charges time to the right resources.
 */

#ifndef DSSD_FTL_MAPPING_HH
#define DSSD_FTL_MAPPING_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ftl/policy.hh"
#include "nand/geometry.hh"
#include "sim/rng.hh"

namespace dssd
{

class AuditReport;
class StatRegistry;

/** Logical page number. */
using Lpn = std::uint64_t;
/** Physical page number (flat index, see FlashGeometry::pageIndex). */
using Ppn = std::uint64_t;

/**
 * Per-block state. Page-validity bits live in one flat bitmap indexed
 * by Ppn (structure-of-arrays, see PageMapping::pageValid) rather than
 * a per-block vector.
 */
struct BlockState
{
    std::uint32_t writePtr = 0;        ///< next free page index
    std::uint32_t validCount = 0;      ///< live pages
    std::uint32_t pending = 0;         ///< GC copies in flight to here
    std::uint32_t eraseCount = 0;      ///< P/E cycles
    bool isFree = true;                ///< on the free list
    bool isBad = false;                ///< retired
    /// Allocation sequence number of the last write into this block
    /// (host or GC); cost-benefit victim selection ages blocks by
    /// allocSeq() - lastWriteSeq.
    std::uint64_t lastWriteSeq = 0;
};

/** Parameters of the mapping layer. */
struct MappingParams
{
    FlashGeometry geom;
    /// Over-provisioning ratio (Table 1: 7%); the logical space is
    /// (1 - ratio) of physical capacity.
    double overProvision = 0.07;
    /// GC trigger: free blocks per unit at/below this starts GC.
    std::uint32_t gcFreeBlockThreshold = 2;
    /// GC stops once free blocks per unit recover to this.
    std::uint32_t gcFreeBlockTarget = 4;
    /// Static wear-leveling: open the least-erased free block instead
    /// of FIFO order.
    bool wearLeveling = false;
    /// Victim-selection policy (string-keyed; see ftl/policy.hh).
    std::string victimPolicy = "greedy";
    /// Host-write allocation policy.
    std::string allocPolicy = "rr";
    /// Windowed-greedy victim selection: window size in blocks.
    std::uint32_t victimWindow = 8;
};

/**
 * The mapping table plus free-list/validity bookkeeping.
 *
 * A "unit" is one plane (the smallest independently programmable
 * resource); units are addressed by flat index. Ppn is unit-major
 * (FlashGeometry::pageIndex), so unit u owns the Ppns
 * [u * pagesPerUnit, (u + 1) * pagesPerUnit).
 *
 * The per-page tables are dense (DESIGN.md §17): L2P and P2L hold
 * 32-bit entries and validity is one bit per page. Lpn and Ppn stay
 * 64-bit in every signature; the constructor rejects a geometry of
 * 2^32 - 1 pages or more.
 */
class PageMapping
{
  public:
    explicit PageMapping(const MappingParams &params);
    ~PageMapping();

    const FlashGeometry &geometry() const { return _geom; }
    const MappingParams &params() const { return _params; }

    /** Number of logical pages exposed to the host. */
    Lpn lpnCount() const { return _lpnCount; }

    /** Number of parallel allocation units (planes). */
    std::uint32_t unitCount() const { return _unitCount; }

    /** Flat unit index of a physical address. */
    std::uint32_t unitOf(const PhysAddr &a) const;

    /** Address of block @p block in unit @p unit (page 0). */
    PhysAddr unitBlockAddr(std::uint32_t unit, std::uint32_t block) const;

    /** Current physical location of @p lpn, if mapped. */
    std::optional<Ppn> translate(Lpn lpn) const;

    /**
     * Allocate a physical page for a (re)write of @p lpn, invalidating
     * any previous location. Stripes across units round-robin.
     * @return the new physical address.
     */
    PhysAddr allocate(Lpn lpn);

    /**
     * Allocate specifically within @p unit (used by GC relocation when
     * the policy wants a same-plane or chosen-unit destination).
     */
    PhysAddr allocateInUnit(Lpn lpn, std::uint32_t unit);

    /** Drop the mapping for @p lpn (trim). */
    void invalidate(Lpn lpn);

    /**
     * Move @p lpn to @p dst (GC relocation bookkeeping). @p dst must
     * have been returned by allocate*() for this LPN.
     */
    void commitRelocation(Lpn lpn, const PhysAddr &dst);

    /** Free blocks currently available in @p unit. */
    std::uint32_t freeBlockCount(std::uint32_t unit) const;

    /** Whether @p unit can currently take another page allocation. */
    bool canAllocate(std::uint32_t unit) const;

    /**
     * Whether a *host* write may allocate now. Host writes keep one
     * free block per unit in reserve so in-flight GC relocations
     * always find a destination.
     */
    bool hostCanAllocate() const;

    /** Whether GC should run for @p unit (threshold crossed). */
    bool gcNeeded(std::uint32_t unit) const;

    /** Whether GC for @p unit may stop (target restored). */
    bool gcSatisfied(std::uint32_t unit) const;

    /**
     * Free-block pressure of @p unit: how many blocks below the GC
     * free-block target it currently sits (0 when at or above the
     * target). Array-level GC schedulers rank shards by their worst
     * unit's pressure (see core/array_gc.hh).
     */
    std::uint32_t freeBlockPressure(std::uint32_t unit) const;

    /**
     * Pick the next GC victim of @p unit through the configured
     * VictimPolicy (default "greedy": fewest valid pages among full
     * blocks, lowest block id on ties).
     */
    std::optional<std::uint32_t> pickVictim(std::uint32_t unit);

    /**
     * Whether @p block of @p unit is currently victim-eligible: fully
     * written, not free, not bad, and no GC copies pending into it.
     */
    bool victimEligible(std::uint32_t unit, std::uint32_t block) const;

    /** Victim-candidate index of @p unit (see ftl/policy.hh). */
    const VictimIndex &victimIndex(std::uint32_t unit) const
    {
        return _units[unit].index;
    }

    /** Whether a *host* write may allocate in @p unit right now
     *  (keeps the one-block GC reserve; see hostCanAllocate). */
    bool hostCanAllocateIn(std::uint32_t unit) const;

    /** Monotonic page-allocation sequence number (host + GC). */
    std::uint64_t allocSeq() const { return _allocSeq; }

    /** GC copies currently reserved into @p unit. */
    std::uint32_t gcPendingPages(std::uint32_t unit) const
    {
        return _units[unit].gcPending;
    }

    /**
     * Whether @p unit is busy with GC/copyback traffic: GC copies
     * pending into it, or the injected probe (a GC round active on
     * the unit, known only to core/gc) reports busy. Drives the
     * conflict-aware allocation policy.
     */
    bool unitGcBusy(std::uint32_t unit) const;

    /** Inject the upper-layer GC-activity probe (see unitGcBusy). */
    void setGcBusyProbe(std::function<bool(std::uint32_t)> probe)
    {
        _gcBusyProbe = std::move(probe);
    }

    const VictimPolicy &victimPolicy() const { return *_victim; }
    const AllocPolicy &allocPolicy() const { return *_alloc; }

    /**
     * Register policy-tagged counters (victim picks plus any
     * policy-specific stats) under "<prefix>.<policy name>". Callers
     * gate this on a non-default policy configuration so default runs
     * keep their historical --stats output byte-identical.
     */
    void registerPolicyStats(StatRegistry &reg,
                             const std::string &prefix) const;

    /** Valid LPNs inside block @p block of @p unit, in page order. */
    std::vector<Lpn> validLpns(std::uint32_t unit,
                               std::uint32_t block) const;

    /**
     * Erase @p block of @p unit and return it to the free list.
     * @pre the block has no valid pages.
     */
    void eraseBlock(std::uint32_t unit, std::uint32_t block);

    /** Retire a block (bad block management); never reused. */
    void retireBlock(std::uint32_t unit, std::uint32_t block);

    const BlockState &blockState(std::uint32_t unit,
                                 std::uint32_t block) const;

    /** Validity of page @p page of @p block in @p unit. */
    bool pageValid(std::uint32_t unit, std::uint32_t block,
                   std::uint32_t page) const
    {
        return validBit(unitPpn(unit, block, page));
    }

    /** Total valid pages across the device. */
    std::uint64_t totalValidPages() const { return _validPages; }

    /** Host-visible utilization in [0, 1]. */
    double utilization() const;

    /**
     * Logically fill the device: write LPNs 0..count-1, then trim a
     * random @p invalid_fraction of them so GC has work to do. Mirrors
     * the paper's setup ("SSD is fully utilized and some random
     * fraction of the pages are invalidated").
     *
     * Built in bulk, to exactly the state that allocate(l) for every
     * l < count, then one rng.chance(invalid_fraction) per LPN in LPN
     * order with invalidate(l) on each hit, would leave (hostWrites()
     * excepted, which stays 0): tables, block states, free lists, fill
     * order, victim index, allocSeq(), the allocation policy's cursor,
     * and @p rng, which takes exactly count draws.
     * @pre no page was allocated yet (allocSeq() == 0); fatal()
     * otherwise. Retired blocks are fine.
     */
    void prefill(double fill_fraction, double invalid_fraction, Rng &rng);

    std::uint64_t hostWrites() const { return _hostWrites; }
    std::uint64_t gcRelocations() const { return _gcRelocations; }
    std::uint64_t erases() const { return _erases; }

    /** Write amplification factor so far. */
    double waf() const;

    /**
     * Cross-check every internal invariant: L2P↔P2L bijectivity,
     * per-block valid bitmaps vs counters, free-list consistency and
     * the global valid-page total. See sim/audit.hh.
     */
    void audit(AuditReport &report) const;

    /**
     * Fault-injection hook for auditor tests ONLY: overwrite the L2P
     * entry of @p lpn with @p ppn, bypassing all bookkeeping. panic()s
     * on a @p ppn the 32-bit table cannot hold.
     */
    void debugCorruptL2p(Lpn lpn, Ppn ppn);

  private:
    /// L2P entry of an unmapped LPN; P2L entry of a page holding none.
    static constexpr std::uint32_t kNoEntry = ~std::uint32_t{0};

    struct Unit
    {
        std::vector<BlockState> blocks;
        std::deque<std::uint32_t> freeList;
        VictimIndex index;
        /// Bucket each block currently sits in (-1 = not eligible).
        std::vector<std::int32_t> bucketOf;
        std::uint32_t activeBlock = 0;
        bool hasActive = false;
        /// GC copies reserved into this unit (pending commits).
        std::uint32_t gcPending = 0;
    };

    /// A page of one unit.
    struct UnitPage
    {
        std::uint32_t block;
        std::uint32_t page;
    };

    /**
     * Claim the next page of @p unit's open block, opening a free block
     * first if none is open.
     */
    UnitPage claimPage(std::uint32_t unit);
    void openActiveBlock(Unit &u, std::uint32_t unit);
    void invalidatePpn(Ppn ppn);

    /** Ppn of page @p page of @p block in @p unit. */
    Ppn unitPpn(std::uint32_t unit, std::uint32_t block,
                std::uint32_t page = 0) const
    {
        return static_cast<Ppn>(unit) * _unitPages +
               static_cast<Ppn>(block) * _geom.pagesPerBlock + page;
    }
    bool validBit(Ppn p) const { return (_valid[p >> 6] >> (p & 63)) & 1; }
    void setValid(Ppn p) { _valid[p >> 6] |= std::uint64_t{1} << (p & 63); }
    void clearValid(Ppn p)
    {
        _valid[p >> 6] &= ~(std::uint64_t{1} << (p & 63));
    }

    /**
     * Reconcile @p block's victim-index membership after a mutation:
     * compares current eligibility/valid count against the recorded
     * bucket and inserts/moves/removes as needed.
     */
    void indexReconcile(std::uint32_t unit, std::uint32_t block);
    /** Drop @p block from the fill-order list (erase/retire). */
    void fillOrderRemove(Unit &u, std::uint32_t block);

    MappingParams _params;
    FlashGeometry _geom;
    Lpn _lpnCount;
    std::uint32_t _unitCount;
    std::uint64_t _unitPages; ///< pages per unit
    std::vector<std::uint32_t> _l2p; ///< Lpn -> Ppn, or kNoEntry
    std::vector<std::uint32_t> _p2l; ///< Ppn -> live Lpn, or kNoEntry
    std::vector<std::uint64_t> _valid; ///< one validity bit per Ppn
    std::vector<Unit> _units;
    std::unique_ptr<VictimPolicy> _victim;
    std::unique_ptr<AllocPolicy> _alloc;
    std::function<bool(std::uint32_t)> _gcBusyProbe;
    std::uint64_t _allocSeq = 0;
    std::uint64_t _victimPicks = 0;
    std::uint64_t _validPages = 0;
    std::uint64_t _hostWrites = 0;
    std::uint64_t _gcRelocations = 0;
    std::uint64_t _erases = 0;
};

} // namespace dssd

#endif // DSSD_FTL_MAPPING_HH
