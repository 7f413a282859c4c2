/**
 * @file
 * Flash die model: per-plane occupancy for array operations.
 *
 * A die executes one array operation per plane at a time. Multi-plane
 * commands occupy several planes for the duration of a single
 * operation, which is how the paper models "high bandwidth" flash
 * (8-plane multi-plane programs). The flash-bus data transfer is
 * modeled separately by the flash controller; the die only accounts
 * for cell-array time (tR / tPROG / tBERS).
 */

#ifndef DSSD_NAND_DIE_HH
#define DSSD_NAND_DIE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "nand/geometry.hh"
#include "nand/timing.hh"
#include "sim/engine.hh"
#include "sim/stats.hh"

namespace dssd
{

class StatRegistry;

/** Kinds of array operations a die can perform. */
enum class NandOp
{
    Read,
    Program,
    Erase,
    /// ONFI local copyback: read-for-copy + program without leaving the
    /// die. Restricted to one plane; no data leaves the chip.
    LocalCopyback,
};

/**
 * One flash die with planesPerDie independent planes.
 *
 * Planes are FIFO resources: an operation on plane set M starts at
 * max(earliest, busyUntil of all planes in M) and occupies them all.
 */
class FlashDie
{
  public:
    /** @param name Trace/stat lane label ("ch0.d2"); unnamed dies
     *         still simulate but do not emit trace slices. */
    FlashDie(Engine &engine, const FlashGeometry &geom,
             const NandTiming &timing, std::string name = "");

    /**
     * Reserve the planes in @p plane_mask for an array operation.
     *
     * @param op Operation kind.
     * @param plane_mask Bitmask of planes occupied (multi-plane ops set
     *        several bits; all planes see the same duration).
     * @param page_in_block Page index, used for deterministic latency
     *        spread on TLC devices.
     * @param earliest Do not start before this tick (e.g., after the
     *        flash-bus data transfer for a program).
     * @return completion tick of the array operation.
     */
    Tick reserve(NandOp op, std::uint32_t plane_mask,
                 std::uint32_t page_in_block, Tick earliest);

    /** Earliest tick at which all planes in @p plane_mask are free. */
    Tick planesBusyUntil(std::uint32_t plane_mask) const;

    /** Latency of @p op on this device class (single operation). */
    Tick opLatency(NandOp op, std::uint32_t page_in_block) const;

    std::uint64_t reads() const { return _reads; }
    std::uint64_t programs() const { return _programs; }
    std::uint64_t erases() const { return _erases; }

    /** Total plane-busy ticks (for utilization accounting). */
    Tick busyTicks() const { return _busyTicks; }

    const FlashGeometry &geometry() const { return _geom; }
    const NandTiming &timing() const { return _timing; }
    const std::string &name() const { return _name; }

    /** Register op counters and busy accounting under @p prefix. */
    void registerStats(StatRegistry &reg, const std::string &prefix) const;

  private:
    Engine &_engine;
    FlashGeometry _geom;
    NandTiming _timing;
    std::string _name;
    std::vector<Tick> _planeBusyUntil;
    int _tracePid = -1; ///< cached trace rows (see reserve)
    int _traceTid = -1;
    std::uint64_t _reads = 0;
    std::uint64_t _programs = 0;
    std::uint64_t _erases = 0;
    Tick _busyTicks = 0;
};

} // namespace dssd

#endif // DSSD_NAND_DIE_HH
