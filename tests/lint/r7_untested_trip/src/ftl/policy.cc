// Fixture tree: R7 violation — no tests/ftl/policy_test.cc  // trip:R7
// beside this tree, so no registered policy is exercised.

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
