#include "ftl/mapping.hh"

#include <algorithm>
#include <numeric>

#include "sim/audit.hh"
#include "sim/log.hh"
#include "sim/registry.hh"

namespace dssd
{

PageMapping::PageMapping(const MappingParams &params)
    : _params(params), _geom(params.geom)
{
    _geom.validate();
    if (params.overProvision < 0.0 || params.overProvision >= 1.0)
        fatal("over-provision ratio must be in [0, 1)");
    if (params.gcFreeBlockTarget < params.gcFreeBlockThreshold)
        fatal("GC target must be >= GC threshold");

    // Checked before any table is allocated: every Ppn, and so every
    // Lpn, must fit a 32-bit entry below the kNoEntry sentinel.
    if (_geom.totalPages() >= kNoEntry) {
        fatal("geometry has %llu pages; the mapping's 32-bit tables "
              "hold fewer than %u",
              static_cast<unsigned long long>(_geom.totalPages()),
              kNoEntry);
    }

    _unitCount = _geom.channels * _geom.ways * _geom.diesPerWay *
                 _geom.planesPerDie;
    _unitPages =
        static_cast<std::uint64_t>(_geom.blocksPerPlane) * _geom.pagesPerBlock;
    _lpnCount = static_cast<Lpn>(
        static_cast<double>(_geom.totalPages()) *
        (1.0 - params.overProvision));

    _l2p.assign(_lpnCount, kNoEntry);
    _p2l.assign(_geom.totalPages(), kNoEntry);
    _valid.assign((_geom.totalPages() + 63) / 64, 0);

    _units.resize(_unitCount);
    for (auto &u : _units) {
        u.blocks.resize(_geom.blocksPerPlane);
        u.index.buckets.resize(_geom.pagesPerBlock + 1);
        u.bucketOf.assign(_geom.blocksPerPlane, -1);
        for (std::uint32_t b = 0; b < _geom.blocksPerPlane; ++b)
            u.freeList.push_back(b);
    }

    PolicyConfig pc;
    pc.victimWindow = params.victimWindow;
    _victim = makeVictimPolicy(params.victimPolicy, pc);
    _alloc = makeAllocPolicy(params.allocPolicy, pc);
}

PageMapping::~PageMapping() = default;

std::uint32_t
PageMapping::unitOf(const PhysAddr &a) const
{
    return ((a.channel * _geom.ways + a.way) * _geom.diesPerWay + a.die) *
               _geom.planesPerDie +
           a.plane;
}

PhysAddr
PageMapping::unitBlockAddr(std::uint32_t unit, std::uint32_t block) const
{
    PhysAddr a;
    a.plane = unit % _geom.planesPerDie;
    std::uint32_t rest = unit / _geom.planesPerDie;
    a.die = rest % _geom.diesPerWay;
    rest /= _geom.diesPerWay;
    a.way = rest % _geom.ways;
    a.channel = rest / _geom.ways;
    a.block = block;
    a.page = 0;
    return a;
}

std::optional<Ppn>
PageMapping::translate(Lpn lpn) const
{
    if (lpn >= _lpnCount)
        panic("LPN %llu out of range", (unsigned long long)lpn);
    std::uint32_t p = _l2p[lpn];
    if (p == kNoEntry)
        return std::nullopt;
    return Ppn{p};
}

bool
PageMapping::victimEligible(std::uint32_t unit,
                            std::uint32_t block) const
{
    const BlockState &b = _units[unit].blocks[block];
    return !b.isFree && !b.isBad &&
           b.writePtr == _geom.pagesPerBlock && b.pending == 0;
}

void
PageMapping::indexReconcile(std::uint32_t unit, std::uint32_t block)
{
    Unit &u = _units[unit];
    BlockState &b = u.blocks[block];
    bool should = victimEligible(unit, block);
    std::int32_t cur = u.bucketOf[block];
    if (should) {
        std::int32_t want = static_cast<std::int32_t>(b.validCount);
        if (cur == want)
            return;
        if (cur >= 0)
            u.index.buckets[cur].erase(block);
        u.index.buckets[want].insert(block);
        u.bucketOf[block] = want;
    } else if (cur >= 0) {
        u.index.buckets[cur].erase(block);
        u.bucketOf[block] = -1;
    }
}

void
PageMapping::fillOrderRemove(Unit &u, std::uint32_t block)
{
    auto it = std::find(u.index.fillOrder.begin(),
                        u.index.fillOrder.end(), block);
    if (it != u.index.fillOrder.end())
        u.index.fillOrder.erase(it);
}

void
PageMapping::openActiveBlock(Unit &u, std::uint32_t unit)
{
    if (u.freeList.empty())
        panic("unit %u has no free blocks to open", unit);
    auto pick = u.freeList.begin();
    if (_params.wearLeveling) {
        // Static wear-leveling: the least-erased free block goes next.
        for (auto it = u.freeList.begin(); it != u.freeList.end(); ++it) {
            if (u.blocks[*it].eraseCount <
                u.blocks[*pick].eraseCount) {
                pick = it;
            }
        }
    }
    u.activeBlock = *pick;
    u.freeList.erase(pick);
    u.hasActive = true;
    BlockState &b = u.blocks[u.activeBlock];
    b.isFree = false;
    b.writePtr = 0;
}

PageMapping::UnitPage
PageMapping::claimPage(std::uint32_t unit)
{
    Unit &u = _units[unit];
    if (!u.hasActive)
        openActiveBlock(u, unit);
    BlockState &b = u.blocks[u.activeBlock];
    UnitPage at{u.activeBlock, b.writePtr++};
    b.lastWriteSeq = ++_allocSeq;
    if (b.writePtr == _geom.pagesPerBlock) {
        u.hasActive = false;
        u.index.fillOrder.push_back(u.activeBlock);
    }
    return at;
}

PhysAddr
PageMapping::allocate(Lpn lpn)
{
    if (lpn >= _lpnCount)
        panic("LPN %llu out of range", (unsigned long long)lpn);

    // The allocation policy stripes over units that still have room.
    // Host allocation never consumes a unit's last free block: that
    // block is reserved so the unit's own GC can always relocate a
    // full victim locally (the classic GC forward-progress invariant).
    auto unit_opt = _alloc->chooseUnit(*this);
    if (!unit_opt)
        panic("device full: no unit can allocate a page");
    std::uint32_t unit = *unit_opt;
    UnitPage at = claimPage(unit);
    // Host write: retire the previous copy, then map the new one.
    invalidate(lpn);
    Ppn p = unitPpn(unit, at.block, at.page);
    _l2p[lpn] = static_cast<std::uint32_t>(p);
    _p2l[p] = static_cast<std::uint32_t>(lpn);
    setValid(p);
    ++_units[unit].blocks[at.block].validCount;
    ++_validPages;
    ++_hostWrites;
    indexReconcile(unit, at.block);
    PhysAddr a = unitBlockAddr(unit, at.block);
    a.page = at.page;
    return a;
}

PhysAddr
PageMapping::allocateInUnit(Lpn lpn, std::uint32_t unit)
{
    if (unit >= _unitCount)
        panic("unit %u out of range", unit);
    Unit &u = _units[unit];
    if (!u.hasActive && u.freeList.empty())
        panic("unit %u full during GC allocation", unit);
    (void)lpn;
    UnitPage at = claimPage(unit);
    // GC reservation: the page is claimed but not yet valid; the copy
    // commits via commitRelocation() when the data lands. Until then
    // the block is pinned against victim selection and erase.
    ++u.blocks[at.block].pending;
    ++u.gcPending;
    indexReconcile(unit, at.block);
    PhysAddr a = unitBlockAddr(unit, at.block);
    a.page = at.page;
    return a;
}

void
PageMapping::invalidatePpn(Ppn ppn)
{
    if (_p2l[ppn] == kNoEntry)
        return;
    auto unit = static_cast<std::uint32_t>(ppn / _unitPages);
    auto block =
        static_cast<std::uint32_t>(ppn % _unitPages / _geom.pagesPerBlock);
    if (!validBit(ppn))
        panic("invalidate of already-invalid page");
    clearValid(ppn);
    --_units[unit].blocks[block].validCount;
    --_validPages;
    _p2l[ppn] = kNoEntry;
    indexReconcile(unit, block);
}

void
PageMapping::invalidate(Lpn lpn)
{
    if (lpn >= _lpnCount)
        panic("LPN %llu out of range", (unsigned long long)lpn);
    std::uint32_t old = _l2p[lpn];
    if (old == kNoEntry)
        return;
    invalidatePpn(old);
    _l2p[lpn] = kNoEntry;
}

void
PageMapping::commitRelocation(Lpn lpn, const PhysAddr &dst)
{
    if (lpn >= _lpnCount)
        panic("LPN %llu out of range", (unsigned long long)lpn);
    // The source may have been overwritten by the host while the copy
    // was in flight; in that case the relocated copy is stale and the
    // destination page is simply left invalid (dead on arrival).
    Ppn dstPpn = _geom.pageIndex(dst);
    std::uint32_t unit = unitOf(dst);
    Unit &u = _units[unit];
    BlockState &b = u.blocks[dst.block];
    if (b.pending == 0)
        panic("relocation commit without a pending reservation");
    --b.pending;
    if (u.gcPending == 0)
        panic("unit GC-pending counter underflow");
    --u.gcPending;

    std::uint32_t old = _l2p[lpn];
    if (old == kNoEntry) {
        ++_gcRelocations;
        indexReconcile(unit, dst.block);
        return;
    }
    invalidatePpn(old);
    _l2p[lpn] = static_cast<std::uint32_t>(dstPpn);
    _p2l[dstPpn] = static_cast<std::uint32_t>(lpn);
    setValid(dstPpn);
    ++b.validCount;
    ++_validPages;
    ++_gcRelocations;
    indexReconcile(unit, dst.block);
}

std::uint32_t
PageMapping::freeBlockCount(std::uint32_t unit) const
{
    return static_cast<std::uint32_t>(_units[unit].freeList.size());
}

bool
PageMapping::canAllocate(std::uint32_t unit) const
{
    const Unit &u = _units[unit];
    return u.hasActive || !u.freeList.empty();
}

bool
PageMapping::hostCanAllocateIn(std::uint32_t unit) const
{
    const Unit &u = _units[unit];
    return u.hasActive || u.freeList.size() > 1;
}

bool
PageMapping::hostCanAllocate() const
{
    for (std::uint32_t u = 0; u < _unitCount; ++u) {
        if (hostCanAllocateIn(u))
            return true;
    }
    return false;
}

bool
PageMapping::unitGcBusy(std::uint32_t unit) const
{
    if (_units[unit].gcPending > 0)
        return true;
    return _gcBusyProbe && _gcBusyProbe(unit);
}

bool
PageMapping::gcNeeded(std::uint32_t unit) const
{
    return freeBlockCount(unit) <= _params.gcFreeBlockThreshold;
}

bool
PageMapping::gcSatisfied(std::uint32_t unit) const
{
    return freeBlockCount(unit) >= _params.gcFreeBlockTarget;
}

std::uint32_t
PageMapping::freeBlockPressure(std::uint32_t unit) const
{
    std::uint32_t free = freeBlockCount(unit);
    if (free >= _params.gcFreeBlockTarget)
        return 0;
    return _params.gcFreeBlockTarget - free;
}

std::optional<std::uint32_t>
PageMapping::pickVictim(std::uint32_t unit)
{
    auto victim = _victim->pickVictim(*this, unit);
    if (victim)
        ++_victimPicks;
    return victim;
}

std::vector<Lpn>
PageMapping::validLpns(std::uint32_t unit, std::uint32_t block) const
{
    std::vector<Lpn> out;
    out.reserve(_units[unit].blocks[block].validCount);
    Ppn first = unitPpn(unit, block);
    for (Ppn p = first; p < first + _geom.pagesPerBlock; ++p) {
        if (!validBit(p))
            continue;
        if (_p2l[p] == kNoEntry)
            panic("valid page with no reverse mapping");
        out.push_back(_p2l[p]);
    }
    return out;
}

void
PageMapping::eraseBlock(std::uint32_t unit, std::uint32_t block)
{
    Unit &u = _units[unit];
    BlockState &bs = u.blocks[block];
    if (bs.validCount != 0)
        panic("erase of block with %u valid pages", bs.validCount);
    if (bs.pending != 0)
        panic("erase of block with %u pending GC copies", bs.pending);
    if (bs.isFree)
        panic("erase of free block");
    if (u.hasActive && block == u.activeBlock)
        panic("erase of the active block");
    // validCount == 0, so every validity bit of the block is clear.
    bs.writePtr = 0;
    ++bs.eraseCount;
    ++_erases;
    if (!bs.isBad) {
        bs.isFree = true;
        u.freeList.push_back(block);
    }
    fillOrderRemove(u, block);
    indexReconcile(unit, block);
}

void
PageMapping::retireBlock(std::uint32_t unit, std::uint32_t block)
{
    Unit &u = _units[unit];
    BlockState &bs = u.blocks[block];
    bs.isBad = true;
    if (bs.isFree) {
        bs.isFree = false;
        auto it = std::find(u.freeList.begin(), u.freeList.end(), block);
        if (it != u.freeList.end())
            u.freeList.erase(it);
    }
    // A retired block can no longer take writes; runtime retirement
    // (fault escalation) may hit the unit's open block.
    if (u.hasActive && u.activeBlock == block)
        u.hasActive = false;
    fillOrderRemove(u, block);
    indexReconcile(unit, block);
}

const BlockState &
PageMapping::blockState(std::uint32_t unit, std::uint32_t block) const
{
    return _units[unit].blocks[block];
}

double
PageMapping::utilization() const
{
    return static_cast<double>(_validPages) /
           static_cast<double>(_lpnCount);
}

void
PageMapping::prefill(double fill_fraction, double invalid_fraction,
                     Rng &rng)
{
    if (fill_fraction < 0.0 || fill_fraction > 1.0 ||
        invalid_fraction < 0.0 || invalid_fraction > 1.0) {
        fatal("prefill fractions must be in [0, 1]");
    }
    // On a fresh mapping every table entry, validity bit, valid count
    // and victim-index bucket is still empty, which the bulk build
    // below relies on.
    if (_allocSeq != 0) {
        fatal("prefill needs a mapping that has taken no write, but %llu "
              "pages were allocated",
              static_cast<unsigned long long>(_allocSeq));
    }
    Lpn fill = static_cast<Lpn>(static_cast<double>(_lpnCount) *
                                fill_fraction);

    // Pass 1 walks a tile of LPNs in order. The allocation policy picks
    // each one's unit and the unit's open block advances exactly as in
    // allocate(); then the LPN draws its trim. A trimmed LPN's page is
    // written and dead, so it is never mapped; a kept one gets its L2P
    // entry and valid count. Pass 2 writes P2L and validity unit by
    // unit: those tables are unit-major, and consecutive LPNs land in
    // different units. Prefill is setup, not workload, so hostWrites()
    // stays 0.
    constexpr Lpn kTile = Lpn{1} << 16;
    std::vector<std::uint32_t> tile_unit(std::min(kTile, fill));
    std::vector<std::uint32_t> by_unit(tile_unit.size());
    std::vector<std::uint32_t> next(_unitCount + 1);
    for (Lpn base = 0; base < fill; base += kTile) {
        auto n = static_cast<std::uint32_t>(std::min(kTile, fill - base));
        std::fill(next.begin(), next.end(), 0);
        for (std::uint32_t i = 0; i < n; ++i) {
            auto unit = _alloc->chooseUnit(*this);
            if (!unit)
                panic("device full: no unit can allocate a page");
            UnitPage at = claimPage(*unit);
            tile_unit[i] = *unit;
            if (rng.chance(invalid_fraction))
                continue;
            _l2p[base + i] = static_cast<std::uint32_t>(
                unitPpn(*unit, at.block, at.page));
            ++_units[*unit].blocks[at.block].validCount;
            ++_validPages;
            ++next[*unit + 1];
        }
        // Counting sort of the tile's mapped LPNs by unit.
        std::partial_sum(next.begin(), next.end(), next.begin());
        std::uint32_t mapped = next[_unitCount];
        for (std::uint32_t i = 0; i < n; ++i) {
            if (_l2p[base + i] != kNoEntry)
                by_unit[next[tile_unit[i]]++] = i;
        }
        for (std::uint32_t j = 0; j < mapped; ++j) {
            Lpn l = base + by_unit[j];
            std::uint32_t p = _l2p[l];
            _p2l[p] = static_cast<std::uint32_t>(l);
            setValid(p);
        }
    }

    // The victim index, once, in place of one reconcile per page
    // written and per trim.
    for (std::uint32_t unit = 0; unit < _unitCount; ++unit) {
        Unit &u = _units[unit];
        for (std::uint32_t block = 0; block < _geom.blocksPerPlane;
             ++block) {
            if (!victimEligible(unit, block))
                continue;
            std::uint32_t valid = u.blocks[block].validCount;
            u.index.buckets[valid].insert(u.index.buckets[valid].end(),
                                          block);
            u.bucketOf[block] = static_cast<std::int32_t>(valid);
        }
    }
}

void
PageMapping::debugCorruptL2p(Lpn lpn, Ppn ppn)
{
    if (ppn >= kNoEntry) {
        panic("ppn %llu does not fit the 32-bit L2P table",
              static_cast<unsigned long long>(ppn));
    }
    _l2p.at(lpn) = static_cast<std::uint32_t>(ppn);
}

double
PageMapping::waf() const
{
    if (_hostWrites == 0)
        return 1.0;
    return static_cast<double>(_hostWrites + _gcRelocations) /
           static_cast<double>(_hostWrites);
}

void
PageMapping::registerPolicyStats(StatRegistry &reg,
                                 const std::string &prefix) const
{
    std::string vp = prefix + ".victim." + _victim->name();
    reg.addScalar(vp + ".picks", [this] {
        return static_cast<double>(_victimPicks);
    });
    _victim->registerStats(reg, vp);
    std::string ap = prefix + ".alloc." + _alloc->name();
    _alloc->registerStats(reg, ap);
}

void
PageMapping::audit(AuditReport &r) const
{
    // L2P -> P2L: every mapped LPN's physical page must point back.
    for (Lpn l = 0; l < _lpnCount; ++l) {
        Ppn p = _l2p[l];
        if (p == kNoEntry)
            continue;
        if (p >= _p2l.size()) {
            r.fail("L2P bijectivity: L2P[lpn %llu] = ppn %llu is out of "
                   "range (%zu physical pages)",
                   static_cast<unsigned long long>(l),
                   static_cast<unsigned long long>(p), _p2l.size());
            continue;
        }
        if (_p2l[p] != l) {
            r.fail("L2P bijectivity: L2P[lpn %llu] = ppn %llu but "
                   "P2L[ppn %llu] = lpn %llu",
                   static_cast<unsigned long long>(l),
                   static_cast<unsigned long long>(p),
                   static_cast<unsigned long long>(p),
                   static_cast<unsigned long long>(_p2l[p]));
        }
    }

    // P2L -> L2P: every reverse entry must be the current forward map.
    for (Ppn p = 0; p < _p2l.size(); ++p) {
        Lpn l = _p2l[p];
        if (l == kNoEntry)
            continue;
        if (l >= _lpnCount || _l2p[l] != p) {
            r.fail("P2L bijectivity: P2L[ppn %llu] = lpn %llu but "
                   "L2P[lpn] = ppn %llu",
                   static_cast<unsigned long long>(p),
                   static_cast<unsigned long long>(l),
                   static_cast<unsigned long long>(
                       l < _lpnCount ? _l2p[l] : kNoEntry));
        }
    }

    // Per-block bookkeeping and the global valid-page total.
    std::uint64_t valid_total = 0;
    for (std::uint32_t un = 0; un < _unitCount; ++un) {
        const Unit &u = _units[un];
        std::uint32_t free_flags = 0;
        std::uint32_t pending_total = 0;
        for (std::uint32_t b = 0; b < u.blocks.size(); ++b) {
            const BlockState &bs = u.blocks[b];
            std::uint32_t count = 0;
            Ppn first = unitPpn(un, b);
            for (std::uint32_t pg = 0; pg < _geom.pagesPerBlock; ++pg) {
                if (!pageValid(un, b, pg))
                    continue;
                ++count;
                if (pg >= bs.writePtr) {
                    r.fail("unit %u block %u: page %u valid beyond "
                           "write pointer %u",
                           un, b, pg, bs.writePtr);
                }
                if (_p2l[first + pg] == kNoEntry) {
                    r.fail("unit %u block %u: page %u valid but has "
                           "no reverse mapping",
                           un, b, pg);
                }
            }
            if (count != bs.validCount) {
                r.fail("unit %u block %u: validCount %u != %u valid "
                       "bits",
                       un, b, bs.validCount, count);
            }
            valid_total += bs.validCount;
            pending_total += bs.pending;
            if (bs.writePtr > _geom.pagesPerBlock) {
                r.fail("unit %u block %u: write pointer %u beyond "
                       "block size %u",
                       un, b, bs.writePtr, _geom.pagesPerBlock);
            }
            if (bs.isFree && bs.isBad)
                r.fail("unit %u block %u: both free and bad", un, b);
            if (bs.isFree && (bs.validCount != 0 || bs.writePtr != 0)) {
                r.fail("unit %u block %u: on the free list with %u "
                       "valid pages, write pointer %u",
                       un, b, bs.validCount, bs.writePtr);
            }
            if (bs.isFree)
                ++free_flags;

            // Victim-index consistency: eligibility <-> bucket
            // membership, bucket key = validCount.
            bool eligible = victimEligible(un, b);
            std::int32_t bucket = u.bucketOf[b];
            if (eligible != (bucket >= 0)) {
                r.fail("unit %u block %u: victim-eligible %d but "
                       "bucketOf %d",
                       un, b, eligible ? 1 : 0, bucket);
            } else if (eligible) {
                if (bucket !=
                    static_cast<std::int32_t>(bs.validCount)) {
                    r.fail("unit %u block %u: in bucket %d with "
                           "validCount %u",
                           un, b, bucket, bs.validCount);
                } else if (u.index.buckets[bucket].count(b) == 0) {
                    r.fail("unit %u block %u: bucketOf %d but absent "
                           "from the bucket set",
                           un, b, bucket);
                }
            }
        }
        if (free_flags != u.freeList.size()) {
            r.fail("unit %u: %zu free-list entries but %u blocks "
                   "flagged free",
                   un, u.freeList.size(), free_flags);
        }
        if (pending_total != u.gcPending) {
            r.fail("unit %u: gcPending %u != %u summed over blocks",
                   un, u.gcPending, pending_total);
        }
        std::size_t bucket_total = 0;
        for (const auto &bucket : u.index.buckets)
            bucket_total += bucket.size();
        std::size_t eligible_total = 0;
        for (std::uint32_t b = 0; b < u.blocks.size(); ++b)
            eligible_total += victimEligible(un, b) ? 1 : 0;
        if (bucket_total != eligible_total) {
            r.fail("unit %u: %zu bucketed blocks but %zu eligible",
                   un, bucket_total, eligible_total);
        }
        // fillOrder lists exactly the fully-written, non-free,
        // non-bad blocks, each once.
        std::vector<bool> in_fill(u.blocks.size(), false);
        for (std::uint32_t b : u.index.fillOrder) {
            if (b >= u.blocks.size()) {
                r.fail("unit %u: fill-order entry %u out of range",
                       un, b);
                continue;
            }
            if (in_fill[b])
                r.fail("unit %u: block %u in fill order twice", un, b);
            in_fill[b] = true;
        }
        for (std::uint32_t b = 0; b < u.blocks.size(); ++b) {
            const BlockState &bs = u.blocks[b];
            bool full = !bs.isFree && !bs.isBad &&
                        bs.writePtr == _geom.pagesPerBlock;
            if (full != in_fill[b]) {
                r.fail("unit %u block %u: full %d but fill-order "
                       "membership %d",
                       un, b, full ? 1 : 0, in_fill[b] ? 1 : 0);
            }
        }
        std::vector<bool> seen(u.blocks.size(), false);
        for (std::uint32_t b : u.freeList) {
            if (b >= u.blocks.size()) {
                r.fail("unit %u: free-list entry %u out of range", un, b);
                continue;
            }
            if (seen[b])
                r.fail("unit %u: block %u on the free list twice", un, b);
            seen[b] = true;
            if (!u.blocks[b].isFree)
                r.fail("unit %u: free-list block %u not flagged free",
                       un, b);
        }
        if (u.hasActive) {
            if (u.activeBlock >= u.blocks.size()) {
                r.fail("unit %u: active block %u out of range", un,
                       u.activeBlock);
            } else if (u.blocks[u.activeBlock].isFree ||
                       u.blocks[u.activeBlock].isBad) {
                r.fail("unit %u: active block %u is free or bad", un,
                       u.activeBlock);
            }
        }
    }
    if (valid_total != _validPages) {
        r.fail("valid-page total %llu != %llu summed over blocks",
               static_cast<unsigned long long>(_validPages),
               static_cast<unsigned long long>(valid_total));
    }
}

} // namespace dssd
