// Fixture: R4 near-miss negative control — the guard spells the path,
// project includes carry their subdirectory, the header's only using
// is an alias, and "using namespace" appears only in text.

#ifndef DSSD_FTL_R4_NEGATIVE_HH
#define DSSD_FTL_R4_NEGATIVE_HH

#include <cstdint>

#include "ftl/mapping.hh"
#include "sim/engine.hh"

namespace dssd
{

using PageCount = std::uint64_t;

inline const char *
styleHint()
{
    return "never write using namespace in a header";
}

} // namespace dssd

#endif // DSSD_FTL_R4_NEGATIVE_HH
