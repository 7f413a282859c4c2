#include "ftl/policy.hh"

#include <algorithm>

#include "ftl/mapping.hh"
#include "sim/log.hh"
#include "sim/registry.hh"

namespace dssd
{

namespace
{

//
// Victim policies
//

/**
 * Greedy: fewest valid pages, lowest block id on ties. Reads the
 * incrementally maintained VictimIndex, reproducing the historical
 * O(blocks) scan bit-identically at O(buckets) cost.
 */
class GreedyVictim : public VictimPolicy
{
  public:
    const char *name() const override { return "greedy"; }

    std::optional<std::uint32_t>
    pickVictim(const PageMapping &map, std::uint32_t unit) override
    {
        const VictimIndex &ix = map.victimIndex(unit);
        std::uint32_t full = map.geometry().pagesPerBlock;
        // A fully-valid victim frees nothing; never pick bucket[full].
        for (std::uint32_t v = 0; v < full; ++v) {
            if (!ix.buckets[v].empty())
                return *ix.buckets[v].begin();
        }
        return std::nullopt;
    }
};

/**
 * Cost-benefit [Rosenblum & Ousterhout]: maximize
 * age * (1 - u) / (1 + u), u = validCount / pagesPerBlock, age =
 * allocation-sequence distance since the block last took a write.
 * Hot blocks get time to shed more validity before being collected;
 * cold, mostly-invalid blocks are taken early. Candidates are walked
 * in (validCount, block id) order with strict-greater replacement, so
 * ties resolve to the lowest valid count then lowest id —
 * deterministic across histories.
 */
class CostBenefitVictim : public VictimPolicy
{
  public:
    const char *name() const override { return "costbenefit"; }

    std::optional<std::uint32_t>
    pickVictim(const PageMapping &map, std::uint32_t unit) override
    {
        const VictimIndex &ix = map.victimIndex(unit);
        std::uint32_t full = map.geometry().pagesPerBlock;
        std::optional<std::uint32_t> best;
        double best_score = 0.0;
        for (std::uint32_t v = 0; v < full; ++v) {
            for (std::uint32_t b : ix.buckets[v]) {
                double score =
                    score_(map.allocSeq(),
                           map.blockState(unit, b).lastWriteSeq, v,
                           full);
                if (!best || score > best_score) {
                    best = b;
                    best_score = score;
                }
            }
        }
        return best;
    }

  private:
    static double
    score_(std::uint64_t alloc_seq, std::uint64_t last_write,
           std::uint32_t valid, std::uint32_t full)
    {
        double u = static_cast<double>(valid) /
                   static_cast<double>(full);
        double age = static_cast<double>(alloc_seq - last_write);
        return age * (1.0 - u) / (1.0 + u);
    }
};

/**
 * Windowed greedy: greedy restricted to the W oldest full blocks (by
 * fill order), a cheap age-aware approximation of cost-benefit. Ties
 * on valid count resolve to the earlier-filled block. If every block
 * in the window is fully valid (skewed streams park cold data at the
 * head of the fill order), the scan widens past the window to the
 * oldest block with any invalid page — a victim that frees nothing
 * would livelock GC at high utilization.
 */
class WindowedGreedyVictim : public VictimPolicy
{
  public:
    explicit WindowedGreedyVictim(std::uint32_t window)
        : _window(std::max<std::uint32_t>(1, window))
    {
    }

    const char *name() const override { return "windowed"; }

    std::optional<std::uint32_t>
    pickVictim(const PageMapping &map, std::uint32_t unit) override
    {
        const VictimIndex &ix = map.victimIndex(unit);
        std::uint32_t full = map.geometry().pagesPerBlock;
        std::optional<std::uint32_t> best;
        std::uint32_t best_valid = full;
        std::uint32_t considered = 0;
        for (std::uint32_t b : ix.fillOrder) {
            // fillOrder also lists full blocks still pinned by
            // pending GC copies; only currently-eligible ones count
            // against (or compete in) the window.
            if (!map.victimEligible(unit, b))
                continue;
            ++considered;
            std::uint32_t v = map.blockState(unit, b).validCount;
            // Past the window, only the livelock escape applies: the
            // oldest block that frees at least one page.
            if (considered > _window && best_valid < full)
                break;
            if (v < best_valid) {
                best = b;
                best_valid = v;
                if (considered > _window)
                    break;
            }
        }
        if (best && best_valid == full)
            return std::nullopt;
        return best;
    }

  private:
    std::uint32_t _window;
};

//
// Allocation policies
//

/**
 * Round-robin striping over units that can take a host write. The
 * cursor advances on every probe — including skipped units — exactly
 * like the historical PageMapping::allocate loop, so the default
 * policy is bit-identical to the pre-refactor allocator.
 */
class RoundRobinAlloc : public AllocPolicy
{
  public:
    const char *name() const override { return "rr"; }

    std::optional<std::uint32_t>
    chooseUnit(const PageMapping &map) override
    {
        std::uint32_t n = map.unitCount();
        for (std::uint32_t tried = 0; tried < n; ++tried) {
            std::uint32_t unit = _cursor;
            _cursor = (_cursor + 1) % n;
            if (!map.hostCanAllocateIn(unit))
                continue;
            return unit;
        }
        return std::nullopt;
    }

  private:
    std::uint32_t _cursor = 0;
};

/**
 * Conflict-aware allocation (Venice-style): steer host writes away
 * from planes busy with GC/copyback traffic. First pass round-robins
 * over writable units skipping busy ones (active GC round or pending
 * GC copies into the unit); when every writable unit is busy the
 * first writable one is taken anyway, so forward progress matches
 * plain round-robin.
 */
class ConflictAwareAlloc : public AllocPolicy
{
  public:
    const char *name() const override { return "conflict"; }

    std::optional<std::uint32_t>
    chooseUnit(const PageMapping &map) override
    {
        std::uint32_t n = map.unitCount();
        std::optional<std::uint32_t> fallback;
        bool skipped_busy = false;
        for (std::uint32_t i = 0; i < n; ++i) {
            std::uint32_t unit = (_cursor + i) % n;
            if (!map.hostCanAllocateIn(unit))
                continue;
            if (map.unitGcBusy(unit)) {
                if (!fallback)
                    fallback = unit;
                skipped_busy = true;
                continue;
            }
            _cursor = (unit + 1) % n;
            if (skipped_busy)
                ++_steered;
            return unit;
        }
        if (fallback) {
            _cursor = (*fallback + 1) % n;
            ++_conflicted;
            return fallback;
        }
        return std::nullopt;
    }

    void
    registerStats(StatRegistry &reg,
                  const std::string &prefix) const override
    {
        reg.addScalar(prefix + ".steered", [this] {
            return static_cast<double>(_steered);
        });
        reg.addScalar(prefix + ".conflicted", [this] {
            return static_cast<double>(_conflicted);
        });
    }

  private:
    std::uint32_t _cursor = 0;
    /// Allocations steered around at least one busy unit.
    std::uint64_t _steered = 0;
    /// Allocations that had to land on a busy unit anyway.
    std::uint64_t _conflicted = 0;
};

//
// Factory registry. Every concrete policy above must appear here
// (lint rule R11 cross-checks class definitions against this table
// and the test fixtures).
//

struct VictimEntry
{
    const char *name;
    std::unique_ptr<VictimPolicy> (*make)(const PolicyConfig &);
};

struct AllocEntry
{
    const char *name;
    std::unique_ptr<AllocPolicy> (*make)(const PolicyConfig &);
};

const VictimEntry victimRegistry[] = {
    {"greedy",
     [](const PolicyConfig &) -> std::unique_ptr<VictimPolicy> {
         return std::make_unique<GreedyVictim>();
     }},
    {"costbenefit",
     [](const PolicyConfig &) -> std::unique_ptr<VictimPolicy> {
         return std::make_unique<CostBenefitVictim>();
     }},
    {"windowed",
     [](const PolicyConfig &cfg) -> std::unique_ptr<VictimPolicy> {
         return std::make_unique<WindowedGreedyVictim>(
             cfg.victimWindow);
     }},
};

const AllocEntry allocRegistry[] = {
    {"rr",
     [](const PolicyConfig &) -> std::unique_ptr<AllocPolicy> {
         return std::make_unique<RoundRobinAlloc>();
     }},
    {"conflict",
     [](const PolicyConfig &) -> std::unique_ptr<AllocPolicy> {
         return std::make_unique<ConflictAwareAlloc>();
     }},
};

std::string
joinNames(const std::vector<std::string> &names)
{
    std::string out;
    for (const std::string &n : names) {
        if (!out.empty())
            out += " ";
        out += n;
    }
    return out;
}

} // namespace

std::unique_ptr<VictimPolicy>
makeVictimPolicy(const std::string &name, const PolicyConfig &cfg)
{
    for (const VictimEntry &e : victimRegistry) {
        if (name == e.name)
            return e.make(cfg);
    }
    fatal("unknown victim policy '%s' (registered: %s)", name.c_str(),
          joinNames(victimPolicyNames()).c_str());
}

std::unique_ptr<AllocPolicy>
makeAllocPolicy(const std::string &name, const PolicyConfig &cfg)
{
    for (const AllocEntry &e : allocRegistry) {
        if (name == e.name)
            return e.make(cfg);
    }
    fatal("unknown alloc policy '%s' (registered: %s)", name.c_str(),
          joinNames(allocPolicyNames()).c_str());
}

std::vector<std::string>
victimPolicyNames()
{
    std::vector<std::string> out;
    for (const VictimEntry &e : victimRegistry)
        out.push_back(e.name);
    return out;
}

std::vector<std::string>
allocPolicyNames()
{
    std::vector<std::string> out;
    for (const AllocEntry &e : allocRegistry)
        out.push_back(e.name);
    return out;
}

bool
isVictimPolicy(const std::string &name)
{
    for (const VictimEntry &e : victimRegistry) {
        if (name == e.name)
            return true;
    }
    return false;
}

bool
isAllocPolicy(const std::string &name)
{
    for (const AllocEntry &e : allocRegistry) {
        if (name == e.name)
            return true;
    }
    return false;
}

} // namespace dssd
