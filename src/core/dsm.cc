#include "core/dsm.hh"

#include <memory>
#include <utility>

#include "sim/audit.hh"
#include "sim/log.hh"

namespace dssd
{

const char *
dsmSchemeName(DsmScheme s)
{
    switch (s) {
      case DsmScheme::Static:
        return "STATIC";
      case DsmScheme::Recycled:
        return "RECYCLED";
      case DsmScheme::Reserv:
        return "RESERV";
    }
    return "?";
}

DynamicSuperblockEngine::DynamicSuperblockEngine(Ssd &ssd,
                                                 SuperblockMapping &map,
                                                 const DsmParams &params)
    : _ssd(ssd), _map(map), _params(params), _rng(params.seed)
{
    const FlashGeometry &g = _map.geometry();
    if (_params.scheme != DsmScheme::Static &&
        !isDecoupled(_ssd.config().arch)) {
        fatal("RECYCLED/RESERV need a decoupled architecture");
    }

    // Per-channel, per-physical-block wear limits.
    std::uint32_t blocks_per_channel = g.ways * g.diesPerWay *
                                       g.planesPerDie * g.blocksPerPlane;
    _wear.resize(g.channels);
    for (auto &v : _wear) {
        v.resize(blocks_per_channel);
        for (auto &w : v)
            w.limit = _params.wear.sampleLimit(_rng);
    }

    // RESERV: provision the tail superblocks as recycled blocks.
    if (_params.scheme == DsmScheme::Reserv) {
        std::uint32_t reserved = static_cast<std::uint32_t>(
            _params.reservedFraction *
            static_cast<double>(_map.superblockCount()));
        for (std::uint32_t i = 0; i < reserved; ++i) {
            std::uint32_t sb = _map.superblockCount() - 1 - i;
            _map.reserveSuperblock(sb);
            for (std::uint32_t u = 0; u < _map.unitCount(); ++u) {
                PhysAddr a = _map.slotAddr(sb, u);
                DecoupledController *dc =
                    _ssd.decoupledController(a.channel);
                dc->rbt().add(channelBlockId(g, a));
            }
        }
    }

    // Under fault injection, divert escalated media faults into this
    // engine's failure state machine for as long as it lives.
    _pendingFaultUnits.resize(_map.superblockCount());
    if (_ssd.faultModel())
        _ssd.setFaultSink(this);

    // DSSD_AUDIT builds: fold this engine's state into the SSD's
    // periodic invariant audit for as long as the engine lives.
    if ((_auditor = _ssd.auditor())) {
        _auditIds.push_back(_auditor->addCheck(
            "dsm.superblocks",
            [this](AuditReport &r) { _map.audit(r); }));
        _auditIds.push_back(_auditor->addCheck(
            "dsm.stats", [this](AuditReport &r) {
                if (_stats.curve.size() != _stats.deadSuperblocks) {
                    r.fail("death curve has %zu points for %u dead "
                           "superblocks",
                           _stats.curve.size(), _stats.deadSuperblocks);
                }
                if (_map.deadSuperblocks() != _stats.deadSuperblocks) {
                    r.fail("mapping reports %u dead superblocks, stats "
                           "counted %u",
                           _map.deadSuperblocks(),
                           _stats.deadSuperblocks);
                }
            }));
    }
}

DynamicSuperblockEngine::~DynamicSuperblockEngine()
{
    if (_ssd.faultModel())
        _ssd.setFaultSink(nullptr);
    if (_auditor) {
        for (std::size_t id : _auditIds)
            _auditor->removeCheck(id);
    }
}

void
DynamicSuperblockEngine::onBlockFault(const PhysAddr &addr,
                                      FaultKind kind)
{
    (void)kind;
    ++_stats.faultEvents;

    // Map the faulted physical block back to its owning (sb, unit)
    // slot: the fault address is post-SRT, so compare against each
    // slot's *current* backing block.
    const FlashGeometry &g = _map.geometry();
    ChannelBlockId phys = channelBlockId(g, addr);
    for (std::uint32_t sb = 0; sb < _map.superblockCount(); ++sb) {
        if (_map.state(sb) == SuperblockState::Dead)
            continue;
        for (std::uint32_t u = 0; u < _map.unitCount(); ++u) {
            PhysAddr slot = _map.slotAddr(sb, u);
            if (slot.channel != addr.channel)
                continue;
            if (physicalBlock(sb, u) != phys)
                continue;
            auto &pending = _pendingFaultUnits[sb];
            for (std::uint32_t q : pending) {
                if (q == u)
                    return; // already queued
            }
            pending.push_back(u);
            return;
        }
    }
    // Not part of any live superblock (e.g. an RBT spare): counted,
    // nothing to queue.
}

DynamicSuperblockEngine::Wear &
DynamicSuperblockEngine::wearOf(std::uint32_t channel,
                                ChannelBlockId block)
{
    return _wear[channel][block];
}

ChannelBlockId
DynamicSuperblockEngine::physicalBlock(std::uint32_t sb,
                                       std::uint32_t unit) const
{
    PhysAddr a = _map.slotAddr(sb, unit);
    ChannelBlockId orig = channelBlockId(_map.geometry(), a);
    DecoupledController *dc =
        const_cast<Ssd &>(_ssd).decoupledController(a.channel);
    if (!dc)
        return orig;
    auto hit = dc->srt().lookup(orig);
    return hit ? *hit : orig;
}

PhysAddr
DynamicSuperblockEngine::resolved(const PhysAddr &addr) const
{
    DecoupledController *dc =
        const_cast<Ssd &>(_ssd).decoupledController(addr.channel);
    if (!dc)
        return addr;
    return dc->remap(addr);
}

void
DynamicSuperblockEngine::run(std::uint64_t max_cycles, Callback done)
{
    _remaining = max_cycles;
    _done = std::move(done);
    cycleNext();
}

void
DynamicSuperblockEngine::cycleNext()
{
    std::uint32_t live = _map.superblockCount() - _map.deadSuperblocks() -
                         _map.reservedSuperblocks();
    if (_remaining == 0 || live < 2 || _map.freeSuperblocks() < 2) {
        if (_done) {
            Callback cb = std::move(_done);
            _done = nullptr;
            cb();
        }
        return;
    }

    // Next free superblock, round-robin.
    std::uint32_t n = _map.superblockCount();
    std::uint32_t sb = n;
    for (std::uint32_t i = 0; i < n; ++i) {
        std::uint32_t cand = (_cursor + i) % n;
        if (_map.state(cand) == SuperblockState::Free) {
            sb = cand;
            _cursor = (cand + 1) % n;
            break;
        }
    }
    if (sb == n)
        panic("no free superblock despite the free-list check");

    --_remaining;
    ++_stats.cycles;
    _map.fillAll(sb);
    programPhase(sb);
}

void
DynamicSuperblockEngine::programPhase(std::uint32_t sb)
{
    std::uint32_t pages = _map.pagesPerSuperblock();
    _stats.bytesWritten +=
        static_cast<std::uint64_t>(pages) * _map.geometry().pageBytes;

    auto remaining = std::make_shared<std::uint32_t>(pages);
    for (std::uint32_t slot = 0; slot < pages; ++slot) {
        PhysAddr target = resolved(_map.slotAddr(sb, slot));
        _ssd.channel(target.channel)
            .program(target, 1, tagIo, [this, sb, remaining] {
                if (--*remaining == 0)
                    checkFailures(sb);
            });
    }
}

void
DynamicSuperblockEngine::checkFailures(std::uint32_t sb)
{
    // Sub-blocks at their endurance limit fail this cycle's
    // read-verify (detected by the controller-integrated ECC).
    auto failing = std::make_shared<std::vector<std::uint32_t>>();
    for (std::uint32_t u = 0; u < _map.unitCount(); ++u) {
        PhysAddr a = _map.slotAddr(sb, u);
        Wear &w = wearOf(a.channel, physicalBlock(sb, u));
        if (w.pe + 1 >= w.limit)
            failing->push_back(u);
    }

    // Merge escalated media faults queued against this superblock:
    // those units fail this cycle regardless of wear.
    for (std::uint32_t u : _pendingFaultUnits[sb]) {
        bool present = false;
        for (std::uint32_t f : *failing) {
            if (f == u) {
                present = true;
                break;
            }
        }
        if (!present)
            failing->push_back(u);
    }
    _pendingFaultUnits[sb].clear();

    if (failing->empty()) {
        erasePhase(sb);
        return;
    }
    if (_params.scheme == DsmScheme::Static) {
        killSuperblock(sb);
        return;
    }
    processRepairs(sb, failing, 0);
}

void
DynamicSuperblockEngine::processRepairs(
    std::uint32_t sb,
    std::shared_ptr<std::vector<std::uint32_t>> failing, std::size_t idx)
{
    // Repair failing sub-blocks one after another; any unrepairable
    // failure kills the whole superblock.
    if (idx >= failing->size()) {
        erasePhase(sb);
        return;
    }
    std::uint32_t unit = (*failing)[idx];
    if (!tryRepair(sb, unit, [this, sb, failing, idx] {
            processRepairs(sb, failing, idx + 1);
        })) {
        killSuperblock(sb);
    }
}

bool
DynamicSuperblockEngine::tryRepair(std::uint32_t sb, std::uint32_t unit,
                                   Callback repaired)
{
    const FlashGeometry &g = _map.geometry();
    PhysAddr orig_addr = _map.slotAddr(sb, unit);
    std::uint32_t channel = orig_addr.channel;
    DecoupledController *dc = _ssd.decoupledController(channel);
    if (!dc)
        return false;

    // Take a usable spare from this channel's recycling bin.
    ChannelBlockId spare = 0;
    bool found = false;
    while (!dc->rbt().empty()) {
        spare = dc->rbt().take();
        Wear &w = wearOf(channel, spare);
        if (w.pe + 1 < w.limit) {
            found = true;
            break;
        }
    }
    if (!found)
        return false;

    ChannelBlockId orig = channelBlockId(g, orig_addr);
    bool was_remapped = dc->srt().lookup(orig).has_value();
    if (!was_remapped && dc->srt().full()) {
        dc->rbt().add(spare); // give the spare back
        return false;
    }

    // Relocate the failing sub-block's pages into the spare with
    // same-channel global copybacks; the SRT entry activates once the
    // data has moved.
    ChannelBlockId old_phys = physicalBlock(sb, unit);
    PhysAddr src_base = channelBlockAddr(g, channel, old_phys);
    PhysAddr dst_base = channelBlockAddr(g, channel, spare);
    std::uint32_t pages = g.pagesPerBlock;
    _stats.repairPagesCopied += pages;

    auto remaining = std::make_shared<std::uint32_t>(pages);
    for (std::uint32_t p = 0; p < pages; ++p) {
        PhysAddr src = src_base;
        src.page = p;
        PhysAddr dst = dst_base;
        dst.page = p;
        dc->globalCopyback(src, dst, nullptr, tagGc,
                           [this, dc, orig, spare, was_remapped,
                            remaining, repaired] {
            if (--*remaining != 0)
                return;
            if (was_remapped)
                dc->srt().erase(orig);
            if (!dc->srt().insert(orig, spare))
                panic("SRT insert failed after capacity check");
            ++_stats.remapEvents;
            repaired();
        });
    }
    return true;
}

void
DynamicSuperblockEngine::killSuperblock(std::uint32_t sb)
{
    const FlashGeometry &g = _map.geometry();

    // Salvage still-good sub-blocks into the RBTs and free any SRT
    // entries this superblock held.
    if (_params.scheme != DsmScheme::Static) {
        for (std::uint32_t u = 0; u < _map.unitCount(); ++u) {
            PhysAddr a = _map.slotAddr(sb, u);
            DecoupledController *dc = _ssd.decoupledController(a.channel);
            ChannelBlockId phys = physicalBlock(sb, u);
            ChannelBlockId orig = channelBlockId(g, a);
            if (dc->srt().lookup(orig))
                dc->srt().erase(orig);
            Wear &w = wearOf(a.channel, phys);
            if (w.pe + 1 < w.limit)
                dc->rbt().add(phys);
        }
    }

    // Conventional bad-superblock handling: the FTL relocates every
    // valid page to a fresh superblock, then retires this one.
    std::uint32_t dst = _map.superblockCount();
    for (std::uint32_t s = 0; s < _map.superblockCount(); ++s) {
        if (_map.state(s) == SuperblockState::Free) {
            dst = s;
            break;
        }
    }

    auto finish = [this, sb] {
        _map.retireSuperblock(sb);
        ++_stats.deadSuperblocks;
        if (_stats.deadSuperblocks == 1)
            _stats.firstDeathTime = _ssd.engine().now();
        _stats.curve.push_back({static_cast<double>(_stats.bytesWritten),
                                _stats.deadSuperblocks});
        cycleNext();
    };

    // The mapping update itself is instant; the dying superblock's
    // pages are dropped logically (the cycling workload overwrites
    // each range every cycle anyway) and the *cost* of the relocation
    // is paid through the timed GC datapath below.
    _map.invalidateAll(sb);

    if (dst == _map.superblockCount()) {
        // Nowhere to move the data: end-of-life device.
        finish();
        return;
    }

    std::uint32_t pages = _map.pagesPerSuperblock();
    _stats.deathPagesCopied += pages;
    auto remaining = std::make_shared<std::uint32_t>(pages);
    for (std::uint32_t slot = 0; slot < pages; ++slot) {
        PhysAddr src = resolved(_map.slotAddr(sb, slot));
        PhysAddr dstAddr = resolved(_map.slotAddr(dst, slot));
        _ssd.gcCopyPage(src, dstAddr, [remaining, finish] {
            if (--*remaining == 0)
                finish();
        });
    }
}

void
DynamicSuperblockEngine::erasePhase(std::uint32_t sb)
{
    std::uint32_t units = _map.unitCount();
    auto remaining = std::make_shared<std::uint32_t>(units);
    for (std::uint32_t u = 0; u < units; ++u) {
        PhysAddr block_addr = _map.slotAddr(sb, u);
        block_addr.page = 0;
        PhysAddr target = resolved(block_addr);
        std::uint32_t channel = target.channel;
        ChannelBlockId phys =
            channelBlockId(_map.geometry(), target);
        _ssd.channel(channel).erase(target, tagGc,
                                    [this, sb, channel, phys,
                                     remaining] {
            ++wearOf(channel, phys).pe;
            if (--*remaining == 0) {
                _map.invalidateAll(sb);
                _map.eraseSuperblock(sb);
                cycleNext();
            }
        });
    }
}

} // namespace dssd
