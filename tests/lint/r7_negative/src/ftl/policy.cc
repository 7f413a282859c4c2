// Fixture tree: R7 near-miss negative control — every concrete
// policy is built by a registry entry, every registered name is in
// the test, and a helper class that is no policy stays out of it.

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

class VictimScratch
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
