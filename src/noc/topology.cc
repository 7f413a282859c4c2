#include "noc/topology.hh"

#include <algorithm>

#include "sim/log.hh"

namespace dssd
{

//
// Mesh1D
//

Mesh1D::Mesh1D(unsigned k) : _k(k), _name("mesh1d")
{
    if (k < 2)
        fatal("Mesh1D needs at least 2 nodes");
    // Forward links 0..k-2: n -> n+1; backward links k-1..2k-3: n -> n-1.
    _links.reserve(2 * (static_cast<std::size_t>(k) - 1));
    for (unsigned n = 0; n + 1 < k; ++n)
        _links.push_back({static_cast<unsigned>(_links.size()), n, n + 1});
    for (unsigned n = 1; n < k; ++n)
        _links.push_back({static_cast<unsigned>(_links.size()), n, n - 1});
}

unsigned
Mesh1D::hopLink(unsigned node, bool backward) const
{
    if (!backward)
        return node;                 // n -> n+1 stored at index n
    return (_k - 1) + (node - 1);    // n -> n-1 stored after forwards
}

std::vector<unsigned>
Mesh1D::route(unsigned src, unsigned dst) const
{
    if (src >= _k || dst >= _k)
        panic("Mesh1D route out of range: %u -> %u", src, dst);
    std::vector<unsigned> r;
    r.reserve(src < dst ? dst - src : src - dst);
    unsigned n = src;
    while (n < dst) {
        r.push_back(hopLink(n, false));
        ++n;
    }
    while (n > dst) {
        r.push_back(hopLink(n, true));
        --n;
    }
    return r;
}

//
// Ring
//

Ring::Ring(unsigned k) : _k(k), _name("ring")
{
    if (k < 3)
        fatal("Ring needs at least 3 nodes");
    // Clockwise links 0..k-1: n -> (n+1)%k; counter-clockwise k..2k-1.
    _links.reserve(2 * static_cast<std::size_t>(k));
    for (unsigned n = 0; n < k; ++n)
        _links.push_back({n, n, (n + 1) % k});
    for (unsigned n = 0; n < k; ++n)
        _links.push_back({k + n, n, (n + k - 1) % k});
}

std::vector<unsigned>
Ring::route(unsigned src, unsigned dst) const
{
    if (src >= _k || dst >= _k)
        panic("Ring route out of range: %u -> %u", src, dst);
    std::vector<unsigned> r;
    if (src == dst)
        return r;
    unsigned cw = (dst + _k - src) % _k;
    unsigned ccw = _k - cw;
    r.reserve(std::min(cw, ccw));
    unsigned n = src;
    if (cw <= ccw) {
        for (unsigned i = 0; i < cw; ++i) {
            r.push_back(n); // clockwise link id == node id
            n = (n + 1) % _k;
        }
    } else {
        for (unsigned i = 0; i < ccw; ++i) {
            r.push_back(_k + n);
            n = (n + _k - 1) % _k;
        }
    }
    return r;
}

//
// Crossbar
//

Crossbar::Crossbar(unsigned k) : _k(k), _name("crossbar")
{
    if (k < 2)
        fatal("Crossbar needs at least 2 nodes");
    // Output ports 0..k-1 (node -> switch), input ports k..2k-1
    // (switch -> node). The 'from'/'to' fields both name the node.
    _links.reserve(2 * static_cast<std::size_t>(k));
    for (unsigned n = 0; n < k; ++n)
        _links.push_back({n, n, n});
    for (unsigned n = 0; n < k; ++n)
        _links.push_back({k + n, n, n});
}

std::vector<unsigned>
Crossbar::route(unsigned src, unsigned dst) const
{
    if (src >= _k || dst >= _k)
        panic("Crossbar route out of range: %u -> %u", src, dst);
    if (src == dst)
        return {};
    return {src, _k + dst};
}

std::unique_ptr<Topology>
makeTopology(const std::string &kind, unsigned k)
{
    if (kind == "mesh" || kind == "mesh1d")
        return std::make_unique<Mesh1D>(k);
    if (kind == "ring")
        return std::make_unique<Ring>(k);
    if (kind == "crossbar" || kind == "xbar")
        return std::make_unique<Crossbar>(k);
    fatal("unknown topology '%s'", kind.c_str());
}

} // namespace dssd
