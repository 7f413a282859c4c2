/**
 * @file
 * The SSD-internal system bus and the DRAM port.
 *
 * Per the paper, "system bus" is the interconnect inside the SSD
 * controller linking the flash controllers, cores, DRAM, and host
 * interface (AXI-style). We model it as a FIFO-arbitrated serialized
 * channel at 8 GB/s (Table 1), matching the aggregate flash-channel
 * bandwidth. The DRAM port is a second 8 GB/s channel; buffered writes
 * and buffer-cache hits consume DRAM bandwidth, and conventional GC
 * consumes both (flash -> bus -> DRAM -> bus -> flash).
 */

#ifndef DSSD_BUS_SYSTEM_BUS_HH
#define DSSD_BUS_SYSTEM_BUS_HH

#include <memory>

#include "bus/interconnect.hh"
#include "sim/resource.hh"

namespace dssd
{

/** Shared system bus with per-traffic-class accounting. */
class SystemBus
{
  public:
    SystemBus(Engine &engine, BytesPerTick bandwidth);

    /** The underlying serialized channel. */
    BandwidthResource &channel() { return _channel; }
    const BandwidthResource &channel() const { return _channel; }

    /** Attach a windowed utilization recorder (e.g., 1 ms windows). */
    void attachRecorder(UtilizationRecorder *rec)
    {
        _channel.attachRecorder(rec);
    }

    /** Register the channel's transfer/byte stats under @p prefix. */
    void registerStats(StatRegistry &reg, const std::string &prefix) const
    {
        _channel.registerStats(reg, prefix);
    }

  private:
    BandwidthResource _channel;
};

/** DRAM port used for the write buffer and buffer-cache hits. */
class Dram
{
  public:
    Dram(Engine &engine, BytesPerTick bandwidth);

    BandwidthResource &port() { return _port; }
    const BandwidthResource &port() const { return _port; }

    /** Register the port's transfer/byte stats under @p prefix. */
    void registerStats(StatRegistry &reg, const std::string &prefix) const
    {
        _port.registerStats(reg, prefix);
    }

  private:
    BandwidthResource _port;
};

/**
 * dSSD interconnect variant: controller-to-controller transfers ride
 * the shared system bus (a single bus transaction per page instead of
 * the baseline's two), still contending with I/O.
 */
class SystemBusInterconnect : public Interconnect
{
  public:
    explicit SystemBusInterconnect(SystemBus &bus) : _bus(bus) {}

    InterconnectKind kind() const override
    {
        return InterconnectKind::SystemBus;
    }

    void send(unsigned src, unsigned dst, std::uint64_t bytes, int tag,
              Callback done) override;

    Tick totalBusyTicks() const override;
    std::uint64_t bytesDelivered() const override { return _bytes; }

  private:
    SystemBus &_bus;
    std::uint64_t _bytes = 0;
};

/**
 * dSSD_b interconnect variant: one dedicated bus shared by all flash
 * controllers. Fixed, partitioned bandwidth; all flash-to-flash
 * traffic serializes over it.
 */
class DedicatedBusInterconnect : public Interconnect
{
  public:
    DedicatedBusInterconnect(Engine &engine, BytesPerTick bandwidth);

    InterconnectKind kind() const override
    {
        return InterconnectKind::DedicatedBus;
    }

    void send(unsigned src, unsigned dst, std::uint64_t bytes, int tag,
              Callback done) override;

    Tick totalBusyTicks() const override;
    std::uint64_t bytesDelivered() const override { return _bytes; }

    BandwidthResource &channel() { return _channel; }

  private:
    BandwidthResource _channel;
    std::uint64_t _bytes = 0;
};

} // namespace dssd

#endif // DSSD_BUS_SYSTEM_BUS_HH
