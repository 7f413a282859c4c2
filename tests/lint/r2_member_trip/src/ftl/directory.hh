// Fixture tree: a class whose unordered member is walked by a .cc
// that is not this header's companion (ftl/directory_dump.cc).

#ifndef DSSD_FTL_DIRECTORY_HH
#define DSSD_FTL_DIRECTORY_HH

#include <cstdint>
#include <string>
#include <unordered_set>

class Directory
{
  public:
    std::string dump() const;

  private:
    std::unordered_set<std::uint64_t> _dirty;
};

#endif // DSSD_FTL_DIRECTORY_HH
