// Fixture: R4 violations — a guard that does not spell the header path
// (ftl/r4_trip.hh wants DSSD_FTL_R4_TRIP_HH), a project include without
// its subdirectory, and a using-directive in a header.

#ifndef R4_TRIP_HH  // trip:R4
#define R4_TRIP_HH

#include <cstdint>

#include "mapping.hh"  // trip:R4

namespace dssd::detail
{

inline std::uint64_t
scratchPages()
{
    return 0;
}

} // namespace dssd::detail

using namespace dssd::detail;  // trip:R4

#endif // R4_TRIP_HH
