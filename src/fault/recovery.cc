#include "fault/recovery.hh"

#include <utility>

#include "sim/log.hh"
#include "sim/resource.hh"
#include "sim/trace.hh"

namespace dssd
{

RecoveryEngine::RecoveryEngine(Engine &engine, const FlashGeometry &geom,
                               PageMapping &mapping, SystemBus &bus,
                               Dram &dram, Tick gc_firmware_latency,
                               Routes routes)
    : _engine(engine), _geom(geom), _mapping(mapping), _bus(bus),
      _dram(dram), _gcFirmwareLatency(gc_firmware_latency),
      _routes(std::move(routes)),
      _spaceWaits(engine, "fault relocation", _routes.spaceState)
{
    std::uint32_t blocks_per_channel = _geom.ways * _geom.diesPerWay *
                                       _geom.planesPerDie *
                                       _geom.blocksPerPlane;
    _faultedBlocks.resize(_geom.channels);
    for (auto &v : _faultedBlocks)
        v.assign(blocks_per_channel, false);
}

std::uint32_t
RecoveryEngine::blockId(const PhysAddr &addr) const
{
    return ((addr.way * _geom.diesPerWay + addr.die) *
                _geom.planesPerDie +
            addr.plane) *
               _geom.blocksPerPlane +
           addr.block;
}

bool
RecoveryEngine::blockFaulted(const PhysAddr &addr) const
{
    return _faultedBlocks[addr.channel][blockId(addr)];
}

void
RecoveryEngine::onBlockFault(const PhysAddr &addr, FaultKind kind)
{
    if (_override) {
        // A DSM engine owns failure handling while attached.
        _override->onBlockFault(addr, kind);
        return;
    }
    // Escalate each physical block once: program retries and repeated
    // uncorrectable reads keep reporting the same block while its
    // repair/retirement is already under way.
    std::uint32_t id = blockId(addr);
    if (_faultedBlocks[addr.channel][id])
        return;
    _faultedBlocks[addr.channel][id] = true;

    if (_routes.hardwareRepair && _routes.hardwareRepair(addr)) {
        ++_blocksRepaired;
        return;
    }
    ++_blocksRetired;
    retireBlock(addr);
}

void
RecoveryEngine::retireBlock(const PhysAddr &addr)
{
    // Conventional bad-block management: find the FTL-visible block
    // (undoing any SRT remapping), retire it, and relocate its valid
    // pages over the timed GC datapath.
    PhysAddr logical = _routes.unremap ? _routes.unremap(addr) : addr;
    std::uint32_t unit = _mapping.unitOf(logical);
    std::uint32_t block = logical.block;
    if (_mapping.blockState(unit, block).isBad)
        return; // already out of FTL circulation (e.g. an RBT spare)

    auto lpns = std::make_shared<std::vector<Lpn>>(
        _mapping.validLpns(unit, block));
    _mapping.retireBlock(unit, block);
    relocateRetired(lpns, 0, unit, block);
}

void
RecoveryEngine::relocateRetired(std::shared_ptr<std::vector<Lpn>> lpns,
                                std::size_t idx, std::uint32_t unit,
                                std::uint32_t block)
{
    PageMapping &map = _mapping;
    while (idx < lpns->size()) {
        // Skip pages the host rewrote since the retirement snapshot.
        Lpn lpn = (*lpns)[idx];
        auto ppn = map.translate(lpn);
        if (!ppn) {
            ++idx;
            continue;
        }
        PhysAddr src = map.geometry().pageAddr(*ppn);
        if (map.unitOf(src) != unit || src.block != block) {
            ++idx;
            continue;
        }
        // Round-robin over units with room; wait for GC if none.
        std::uint32_t n = map.unitCount();
        std::uint32_t dst_unit = n;
        for (std::uint32_t i = 0; i < n; ++i) {
            std::uint32_t cand = _faultDstCursor;
            _faultDstCursor = (_faultDstCursor + 1) % n;
            if (map.canAllocate(cand)) {
                dst_unit = cand;
                break;
            }
        }
        if (dst_unit == n) {
            _spaceWaits.park([this, lpns = std::move(lpns), idx, unit,
                              block]() mutable {
                relocateRetired(std::move(lpns), idx, unit, block);
            });
            return;
        }
        PhysAddr dst = map.allocateInUnit(lpn, dst_unit);
        ++_retirePagesCopied;
        _routes.copyPage(src, dst,
                         [this, lpns, idx, unit, block, lpn, dst] {
            _mapping.commitRelocation(lpn, dst);
            relocateRetired(lpns, idx + 1, unit, block);
        });
        return;
    }
}

void
RecoveryEngine::copybackFallback(const PhysAddr &src, const PhysAddr &dst,
                                 int tag, LatencyBreakdown *bd,
                                 Callback done)
{
    // Last-resort recovery of a copyback page the channel ECC could
    // not correct: re-read the die, force the page through the slow
    // soft decoder with firmware assistance, then route it the
    // conventional way — system bus, DRAM, FTL firmware, and back out
    // to the destination program. Expensive by design: this is the
    // cost a decoupled copyback pays when it trips over a bad page.
    ++_cbFallbacks;
    std::uint64_t page = _geom.pageBytes;
#if DSSD_TRACING
    // A tracer-wide id: the shards of an array share one trace.
    Tracer *tr = _engine.tracer();
    std::uint64_t span_id = tr ? tr->nextSpanId() : 0;
    if (tr) {
        tr->asyncBegin(tr->process("fault"), "fault", "fallback",
                       span_id, _engine.now());
    }
    auto trace_end = [this, span_id] {
        Tracer *etr = _engine.tracer();
        if (etr) {
            etr->asyncEnd(etr->process("fault"), "fault", "fallback",
                          span_id, _engine.now());
        }
    };
#else
    auto trace_end = [] {};
#endif

    unsigned src_ch = src.channel;
    _routes.channelRead(src, tag, bd,
                        [this, src_ch, page, dst, tag, bd, done,
                         trace_end] {
        Tick t0 = _engine.now();
        _routes.softDecode(src_ch, page, tag,
                           [this, page, dst, tag, bd, t0, done,
                            trace_end] {
            bdSpanClose(_engine, bd, bdEcc, t0);
            Tick t1 = _engine.now();
            _bus.channel().transfer(page, tag,
                                    [this, page, dst, tag, bd, t1, done,
                                     trace_end] {
                bdSpanClose(_engine, bd, bdSystemBus, t1);
                Tick t2 = _engine.now();
                _dram.port().transfer(page, tag,
                                      [this, page, dst, tag, bd, t2,
                                       done, trace_end] {
                    bdSpanClose(_engine, bd, bdDram, t2);
                    Tick fw0 = _engine.now();
                    bdSpanCloseAt(_engine, bd, bdOther, fw0,
                                  fw0 + _gcFirmwareLatency);
                    _engine.schedule(_gcFirmwareLatency,
                                     [this, page, dst, tag, bd, done,
                                      trace_end] {
                        Tick t3 = _engine.now();
                        _dram.port().transfer(page, tag,
                                              [this, page, dst, tag, bd,
                                               t3, done, trace_end] {
                            bdSpanClose(_engine, bd, bdDram, t3);
                            Tick t4 = _engine.now();
                            _bus.channel().transfer(
                                page, tag,
                                [this, dst, tag, bd, t4, done,
                                 trace_end] {
                                bdSpanClose(_engine, bd, bdSystemBus,
                                            t4);
                                _routes.channelProgram(
                                    dst, tag, bd, [done, trace_end] {
                                    trace_end();
                                    done();
                                });
                            });
                        });
                    });
                });
            });
        });
    });
}

} // namespace dssd
