#include "ftl/superblock.hh"

#include "sim/audit.hh"
#include "sim/log.hh"

namespace dssd
{

SuperblockMapping::SuperblockMapping(const FlashGeometry &geom)
    : _geom(geom)
{
    _geom.validate();
    _unitCount = _geom.channels * _geom.ways * _geom.diesPerWay *
                 _geom.planesPerDie;
    _sbs.resize(_geom.blocksPerPlane);
}

PhysAddr
SuperblockMapping::slotAddr(std::uint32_t sb, std::uint32_t slot) const
{
    std::uint32_t unit = slot % _unitCount;
    PhysAddr a;
    a.plane = unit % _geom.planesPerDie;
    std::uint32_t rest = unit / _geom.planesPerDie;
    a.die = rest % _geom.diesPerWay;
    rest /= _geom.diesPerWay;
    a.way = rest % _geom.ways;
    a.channel = rest / _geom.ways;
    a.block = sb;
    a.page = slot / _unitCount;
    return a;
}

void
SuperblockMapping::fillAll(std::uint32_t sb)
{
    Entry &e = _sbs[sb];
    if (e.state != SuperblockState::Free)
        panic("fillAll needs a free superblock, %u is not", sb);
    e.state = SuperblockState::Full;
    e.holdsData = true;
}

void
SuperblockMapping::invalidateAll(std::uint32_t sb)
{
    _sbs[sb].holdsData = false;
}

void
SuperblockMapping::eraseSuperblock(std::uint32_t sb)
{
    Entry &e = _sbs[sb];
    if (e.holdsData)
        panic("erase of superblock %u with valid pages", sb);
    if (e.state != SuperblockState::Full)
        panic("erase of superblock %u in state %d", sb,
              static_cast<int>(e.state));
    e.state = SuperblockState::Free;
}

void
SuperblockMapping::retireSuperblock(std::uint32_t sb)
{
    Entry &e = _sbs[sb];
    if (e.holdsData)
        panic("retire of superblock %u still holding valid pages", sb);
    e.state = SuperblockState::Dead;
}

void
SuperblockMapping::reserveSuperblock(std::uint32_t sb)
{
    Entry &e = _sbs[sb];
    if (e.state != SuperblockState::Free)
        panic("only free superblocks can be reserved");
    e.state = SuperblockState::Reserved;
}

std::uint32_t
SuperblockMapping::countIn(SuperblockState s) const
{
    std::uint32_t n = 0;
    for (const Entry &e : _sbs)
        n += e.state == s;
    return n;
}

void
SuperblockMapping::audit(AuditReport &r) const
{
    for (std::uint32_t s = 0; s < _sbs.size(); ++s) {
        const Entry &e = _sbs[s];
        if (e.holdsData && e.state != SuperblockState::Full) {
            r.fail("superblock %u: holds data in state %d", s,
                   static_cast<int>(e.state));
        }
    }
}

} // namespace dssd
