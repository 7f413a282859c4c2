#include "core/config.hh"

#include "noc/topology.hh"
#include "sim/log.hh"

namespace dssd
{

const char *
archName(ArchKind k)
{
    switch (k) {
      case ArchKind::Baseline:
        return "Baseline";
      case ArchKind::BW:
        return "BW";
      case ArchKind::DSSD:
        return "dSSD";
      case ArchKind::DSSDBus:
        return "dSSD_b";
      case ArchKind::DSSDNoc:
        return "dSSD_f";
    }
    return "?";
}

std::optional<ArchKind>
parseArch(const std::string &name)
{
    if (name == "baseline")
        return ArchKind::Baseline;
    if (name == "bw")
        return ArchKind::BW;
    if (name == "dssd")
        return ArchKind::DSSD;
    if (name == "dssd_b")
        return ArchKind::DSSDBus;
    if (name == "dssd_f")
        return ArchKind::DSSDNoc;
    return std::nullopt;
}

BytesPerTick
SsdConfig::effectiveSystemBusBandwidth() const
{
    switch (arch) {
      case ArchKind::Baseline:
        return systemBusBandwidth;
      case ArchKind::BW:
      case ArchKind::DSSD:
        // The extra on-chip bandwidth widens the system bus.
        return systemBusBandwidth * onChipBandwidthFactor;
      case ArchKind::DSSDBus:
      case ArchKind::DSSDNoc:
        // The extra bandwidth lives in the dedicated interconnect.
        return systemBusBandwidth;
    }
    return systemBusBandwidth;
}

BytesPerTick
SsdConfig::interconnectBandwidth() const
{
    return systemBusBandwidth * (onChipBandwidthFactor - 1.0);
}

FlashGeometry
paperUllGeometry()
{
    FlashGeometry g;
    g.channels = 8;
    g.ways = 8;
    g.diesPerWay = 1;
    g.planesPerDie = 8;
    g.blocksPerPlane = 1384;
    g.pagesPerBlock = 384;
    g.pageBytes = 4 * kKiB;
    return g;
}

FlashGeometry
paperTlcGeometry()
{
    FlashGeometry g;
    g.channels = 8;
    g.ways = 4;
    g.diesPerWay = 2;
    g.planesPerDie = 2;
    g.blocksPerPlane = 64;
    g.pagesPerBlock = 32;
    g.pageBytes = 16 * kKiB;
    return g;
}

FlashGeometry
reducedUllGeometry()
{
    FlashGeometry g = paperUllGeometry();
    // Keep every parallelism ratio; shrink capacity so full-device
    // experiments finish quickly (the paper applied the same trick to
    // its superblock study).
    g.blocksPerPlane = 24;
    g.pagesPerBlock = 32;
    return g;
}

SsdConfig
makeConfig(ArchKind arch, bool reduced_geometry)
{
    SsdConfig c;
    c.arch = arch;
    c.geom = reduced_geometry ? reducedUllGeometry() : paperUllGeometry();
    c.timing = ullTiming();
    c.onChipBandwidthFactor = arch == ArchKind::Baseline ? 1.0 : 1.25;
    if (arch == ArchKind::DSSDNoc)
        c.nocTopology = "mesh";
    return c;
}

} // namespace dssd
