/**
 * @file
 * SSD configuration: Table 1 parameters and the Table 2 architecture
 * configurations (Baseline, BW, dSSD, dSSD_b, dSSD_f).
 */

#ifndef DSSD_CORE_CONFIG_HH
#define DSSD_CORE_CONFIG_HH

#include <optional>
#include <string>

#include "controller/channel.hh"
#include "controller/decoupled.hh"
#include "fault/fault.hh"
#include "ftl/mapping.hh"
#include "ftl/policy.hh"
#include "ftl/writebuffer.hh"
#include "nand/geometry.hh"
#include "nand/timing.hh"
#include "noc/network.hh"

namespace dssd
{

/** The five architecture configurations of Table 2. */
enum class ArchKind
{
    Baseline, ///< conventional SSD with parallel GC (PaGC)
    BW,       ///< Baseline + extra system-bus bandwidth
    DSSD,     ///< decoupled controllers; copyback over the system bus
    DSSDBus,  ///< decoupled controllers + dedicated flash-ctrl bus
    DSSDNoc,  ///< decoupled controllers + fNoC
};

const char *archName(ArchKind k);

/** The architecture a command-line name selects:
 *  baseline|bw|dssd|dssd_b|dssd_f; nullopt for any other name. */
std::optional<ArchKind> parseArch(const std::string &name);

/** Whether an architecture has decoupled controllers. */
inline bool
isDecoupled(ArchKind k)
{
    return k == ArchKind::DSSD || k == ArchKind::DSSDBus ||
           k == ArchKind::DSSDNoc;
}

/** Full SSD configuration. */
struct SsdConfig
{
    ArchKind arch = ArchKind::Baseline;

    FlashGeometry geom;
    NandTiming timing = ullTiming();

    /// Base system-bus bandwidth (Table 1: 8 GB/s, equal to the
    /// aggregate flash-channel bandwidth).
    BytesPerTick systemBusBandwidth = gbPerSec(8.0);
    /// Total on-chip bandwidth factor relative to Baseline (Table 2:
    /// non-baseline configs have 1.25x). BW/dSSD put the extra into
    /// the system bus; dSSD_b/dSSD_f put it into the flash-controller
    /// interconnect.
    double onChipBandwidthFactor = 1.25;
    BytesPerTick dramBandwidth = gbPerSec(8.0);

    ChannelParams channel;
    EccParams ecc;
    DecoupledParams decoupled;
    NocParams noc;
    /// When true, use noc.linkBandwidth verbatim; otherwise derive it
    /// so fNoC bisection bandwidth equals the extra on-chip bandwidth.
    bool nocExplicitBandwidth = false;
    std::string nocTopology = "mesh";

    WriteBufferParams writeBuffer;
    GcParams gc;
    /// Fault injection (disabled by default: no FaultModel is built
    /// and the datapath is bit-identical to a fault-free simulator).
    FaultParams fault;

    double overProvision = 0.07;
    std::uint32_t gcFreeBlockThreshold = 2;
    std::uint32_t gcFreeBlockTarget = 4;

    /// FTL firmware processing per host request.
    Tick firmwareLatency = usToTicks(1);
    /// FTL overhead per GC page copy (baseline write issue, Fig 1 (3)).
    Tick gcFirmwareLatency = 500;
    /// Pages flushed from the write buffer per flush round.
    unsigned flushBatchPages = 32;
    /// Concurrent flush programs in flight.
    unsigned flushInFlight = 16;
    /// Apply SRT remapping to I/O addresses (decoupled archs only).
    bool applySrtRemap = true;

    /// Statistics window (Fig 2 plots per-millisecond bandwidth).
    Tick statWindow = tickMs;

    std::uint64_t seed = 1;

    /** Effective system-bus bandwidth for this architecture. */
    BytesPerTick effectiveSystemBusBandwidth() const;

    /** Extra on-chip bandwidth assigned to the flash interconnect. */
    BytesPerTick interconnectBandwidth() const;
};

/**
 * Table 1 geometry: 8 channels x 8 ways x 1 die x 8 planes,
 * 1384 blocks x 384 pages x 4 KB (ULL).
 */
FlashGeometry paperUllGeometry();

/**
 * Superblock-study geometry: 8 channels x 4 ways x 2 dies x 2 planes,
 * 32 pages/block, 16 KB pages (TLC; pages/block simplified exactly as
 * in the paper).
 */
FlashGeometry paperTlcGeometry();

/**
 * A proportionally reduced geometry for fast simulation: identical
 * channel/way/plane ratios, fewer blocks and pages per block.
 */
FlashGeometry reducedUllGeometry();

/** Named configuration factory for the Table 2 comparison points. */
SsdConfig makeConfig(ArchKind arch, bool reduced_geometry = true);

} // namespace dssd

#endif // DSSD_CORE_CONFIG_HH
