// Fixture: companion header of ftl/r2_companion_trip.cc. It declares
// the unordered member that the .cc walks; alone it is clean, since
// nothing here iterates.

#ifndef DSSD_FTL_R2_COMPANION_TRIP_HH
#define DSSD_FTL_R2_COMPANION_TRIP_HH

#include <cstdint>
#include <unordered_map>

class Directory
{
  public:
    std::uint64_t total() const;

  private:
    std::unordered_map<std::uint64_t, std::uint64_t> _byLpn;
};

#endif // DSSD_FTL_R2_COMPANION_TRIP_HH
