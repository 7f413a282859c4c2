/**
 * @file
 * Superblock lifecycle table (Sec 5, Fig 5).
 *
 * A superblock groups the same block id across every parallel unit
 * (channel/way/die/plane), so one superblock-granularity write
 * stripes pages across the whole array — smaller mapping tables and
 * cheap GC, at the cost of the whole group dying with its first bad
 * sub-block (the problem dynamic superblock management solves).
 *
 * The table tracks what the DSM engine (core/dsm) drives: each
 * superblock is filled, invalidated and erased as a whole, or retired
 * or reserved. Pure state, like PageMapping; the event-driven
 * datapaths charge time separately.
 */

#ifndef DSSD_FTL_SUPERBLOCK_HH
#define DSSD_FTL_SUPERBLOCK_HH

#include <cstdint>
#include <vector>

#include "nand/geometry.hh"

namespace dssd
{

class AuditReport;

/** Lifecycle of one superblock. */
enum class SuperblockState
{
    Free,     ///< erased, available to fillAll
    Full,     ///< programmed by fillAll
    Dead,     ///< retired (bad)
    Reserved, ///< provisioned as recycled blocks (RESERV scheme)
};

/** Superblock lifecycle table. */
class SuperblockMapping
{
  public:
    /**
     * @param geom Flash geometry; the superblock count equals
     *        blocksPerPlane.
     */
    explicit SuperblockMapping(const FlashGeometry &geom);

    const FlashGeometry &geometry() const { return _geom; }

    /** Parallel units striped by one superblock. */
    std::uint32_t unitCount() const { return _unitCount; }

    /** Pages one superblock holds. */
    std::uint32_t pagesPerSuperblock() const
    {
        return _unitCount * _geom.pagesPerBlock;
    }

    std::uint32_t superblockCount() const { return _geom.blocksPerPlane; }

    /**
     * Physical address of stripe slot @p slot of superblock @p sb:
     * consecutive slots stripe across the units, plane fastest, then
     * move to the next page.
     */
    PhysAddr slotAddr(std::uint32_t sb, std::uint32_t slot) const;

    /** Lifecycle state of superblock @p sb. */
    SuperblockState state(std::uint32_t sb) const
    {
        return _sbs[sb].state;
    }

    /** Program every page of the free superblock @p sb. */
    void fillAll(std::uint32_t sb);

    /** Drop the data @p sb holds (a no-op if it holds none). */
    void invalidateAll(std::uint32_t sb);

    /**
     * Erase the Full superblock @p sb and return it to the free pool.
     * @pre its data was invalidated.
     */
    void eraseSuperblock(std::uint32_t sb);

    /**
     * Retire @p sb (bad superblock); never reused. Idempotent:
     * concurrent failure paths may retire the same superblock twice,
     * and a dead superblock holds no data.
     */
    void retireSuperblock(std::uint32_t sb);

    /**
     * Remove a free superblock from FTL visibility so its blocks can
     * pre-fill the RBTs (the RESERV scheme of Sec 5.3).
     */
    void reserveSuperblock(std::uint32_t sb);

    std::uint32_t freeSuperblocks() const
    {
        return countIn(SuperblockState::Free);
    }
    std::uint32_t deadSuperblocks() const
    {
        return countIn(SuperblockState::Dead);
    }
    std::uint32_t reservedSuperblocks() const
    {
        return countIn(SuperblockState::Reserved);
    }

    /** Check that only Full superblocks hold data. See sim/audit.hh. */
    void audit(AuditReport &report) const;

  private:
    /** Superblocks in state @p s. */
    std::uint32_t countIn(SuperblockState s) const;

    struct Entry
    {
        SuperblockState state = SuperblockState::Free;
        bool holdsData = false;
    };

    FlashGeometry _geom;
    std::uint32_t _unitCount = 0;
    std::vector<Entry> _sbs;
};

} // namespace dssd

#endif // DSSD_FTL_SUPERBLOCK_HH
