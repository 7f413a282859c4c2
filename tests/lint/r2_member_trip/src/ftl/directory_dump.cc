// Fixture tree: R2 violation — the member's unordered type is declared
// in another file of the tree (ftl/directory.hh), which only the
// tree-wide class facts connect to this walk.

#include "ftl/directory.hh"

std::string
Directory::dump() const
{
    std::string out;
    for (std::uint64_t lpn : _dirty)  // trip:R2
        out += std::to_string(lpn) + " ";
    return out;
}
