#include "bus/system_bus.hh"

#include <utility>

namespace dssd
{

SystemBus::SystemBus(Engine &engine, BytesPerTick bandwidth)
    : _channel(engine, "system-bus", bandwidth)
{
}

Dram::Dram(Engine &engine, BytesPerTick bandwidth)
    : _port(engine, "dram-port", bandwidth)
{
}

void
SystemBusInterconnect::send(unsigned, unsigned, std::uint64_t bytes,
                            int tag, Callback done)
{
    _bytes += bytes;
    _bus.channel().transfer(bytes, tag, std::move(done));
}

Tick
SystemBusInterconnect::totalBusyTicks() const
{
    return _bus.channel().totalBusyTicks();
}

DedicatedBusInterconnect::DedicatedBusInterconnect(Engine &engine,
                                                   BytesPerTick bandwidth)
    : _channel(engine, "dedicated-bus", bandwidth)
{
}

void
DedicatedBusInterconnect::send(unsigned, unsigned, std::uint64_t bytes,
                               int tag, Callback done)
{
    _bytes += bytes;
    _channel.transfer(bytes, tag, std::move(done));
}

Tick
DedicatedBusInterconnect::totalBusyTicks() const
{
    return _channel.totalBusyTicks();
}

} // namespace dssd
