// Fixture tree: R7 violation, reported on line 1.  // trip:R7
// OldestVictim derives from VictimPolicy but no registry entry
// builds it.

#include <memory>
#include <string>

struct VictimPolicy
{
    virtual ~VictimPolicy() = default;
};

struct AllocPolicy
{
    virtual ~AllocPolicy() = default;
};

struct VictimEntry
{
    const char *name;
    std::unique_ptr<VictimPolicy> (*make)();
};

struct AllocEntry
{
    const char *name;
    std::unique_ptr<AllocPolicy> (*make)();
};

class GreedyVictim : public VictimPolicy
{
};

class RoundRobinAlloc : public AllocPolicy
{
};

class OldestVictim final : public VictimPolicy
{
};

const VictimEntry victimRegistry[] = {
    {"greedy",
     []() -> std::unique_ptr<VictimPolicy> {
         return std::make_unique<GreedyVictim>();
     }},
};

const AllocEntry allocRegistry[] = {
    {"rr",
     []() -> std::unique_ptr<AllocPolicy> {
         return std::make_unique<RoundRobinAlloc>();
     }},
};
