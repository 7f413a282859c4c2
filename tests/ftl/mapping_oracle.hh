/** Test oracle for PageMapping, built only from its public view. */

#ifndef DSSD_TESTS_FTL_MAPPING_ORACLE_HH
#define DSSD_TESTS_FTL_MAPPING_ORACLE_HH

#include <optional>

#include "ftl/mapping.hh"

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

} // namespace dssd

#endif // DSSD_TESTS_FTL_MAPPING_ORACLE_HH
