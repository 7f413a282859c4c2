/** Test oracle for PageMapping, built only from its public view. */

#ifndef DSSD_TESTS_FTL_MAPPING_ORACLE_HH
#define DSSD_TESTS_FTL_MAPPING_ORACLE_HH

#include <optional>

#include "ftl/mapping.hh"
#include "sim/rng.hh"

namespace dssd
{

/**
 * LPN stored at @p ppn, if any, read back through the per-block view:
 * validLpns lists a block's valid pages in page order.
 */
inline std::optional<Lpn>
reverseLookup(const PageMapping &m, Ppn ppn)
{
    PhysAddr a = m.geometry().pageAddr(ppn);
    std::uint32_t unit = m.unitOf(a);
    if (!m.pageValid(unit, a.block, a.page))
        return std::nullopt;
    std::uint32_t rank = 0;
    for (std::uint32_t p = 0; p < a.page; ++p)
        rank += m.pageValid(unit, a.block, p);
    return m.validLpns(unit, a.block)[rank];
}

/**
 * The definition PageMapping::prefill builds in bulk: write LPNs
 * 0..count-1 one page at a time, then draw once per LPN, in LPN order,
 * and trim each LPN drawn. Unlike prefill, it leaves hostWrites() at
 * count.
 */
inline void
referencePrefill(PageMapping &m, double fill_fraction,
                 double invalid_fraction, Rng &rng)
{
    Lpn fill = static_cast<Lpn>(static_cast<double>(m.lpnCount()) *
                                fill_fraction);
    for (Lpn l = 0; l < fill; ++l)
        m.allocate(l);
    for (Lpn l = 0; l < fill; ++l) {
        if (rng.chance(invalid_fraction))
            m.invalidate(l);
    }
}

} // namespace dssd

#endif // DSSD_TESTS_FTL_MAPPING_ORACLE_HH
