/**
 * @file
 * Garbage-collection and allocation policy interfaces.
 *
 * Two orthogonal policy axes live here:
 *
 *  1. GcPolicy / GcParams — the *scheduling* of GC copies relative to
 *     host I/O, from the paper's comparison (Table 3): PaGC [35]
 *     parallel baseline, PreemptiveGC [24], TinyTail [42]. The dSSD
 *     variants change the *datapath* of the copies (copyback over the
 *     decoupled controllers), orthogonal to the scheduling policy; the
 *     paper pairs dSSD with parallel GC. GcParams::preemptible layers
 *     partial/preemptible rounds ("Time-efficient Garbage Collection
 *     in SSDs") on top of any scheduling policy: the engine yields to
 *     pending host I/O at page-copy granularity and resumes
 *     deterministically.
 *
 *  2. VictimPolicy / AllocPolicy — *which block to collect* and
 *     *where host writes land*, modeled as interchangeable strategy
 *     objects behind a string-keyed factory (the EagleTree
 *     Garbage_Collector shape). PageMapping owns one instance of
 *     each and delegates its pickVictim/allocate decisions to them;
 *     the default pair ("greedy" / "rr") reproduces the historical
 *     hard-coded behavior bit-identically.
 *
 * Ownership/layering: policies are pure-state strategy objects owned
 * by the ftl mapping layer. They may read mapping state through the
 * public PageMapping API but never simulate time; anything they need
 * from upper layers (e.g. whether a unit's GC round is active, known
 * only to core/gc) is injected into the mapping as a probe callback,
 * mirroring the FlushEngine pattern.
 */

#ifndef DSSD_FTL_POLICY_HH
#define DSSD_FTL_POLICY_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace dssd
{

class PageMapping;
class StatRegistry;

/** GC scheduling policy. */
enum class GcPolicy
{
    Parallel,   ///< PaGC: all units collect concurrently
    Preemptive, ///< postpone while I/O pending, force when critical
    TinyTail,   ///< bounded page-copy slices interleaved with I/O
};

/** GC tuning knobs. */
struct GcParams
{
    GcPolicy policy = GcPolicy::Parallel;
    /// Copies in flight per unit during GC (pipelining depth).
    unsigned copiesInFlightPerUnit = 2;
    /// TinyTail: pages copied per slice before yielding to I/O.
    unsigned tinyTailSlicePages = 4;
    /// TinyTail: pause between slices while I/O is pending.
    std::uint64_t tinyTailYieldNs = 20000;
    /// Preemptive: free blocks at/below which GC can no longer be
    /// postponed regardless of pending I/O.
    std::uint32_t preemptiveForcedFreeBlocks = 1;
    /// Destination selection: allow relocating to any unit (global
    /// free-block selection) rather than the victim's own unit.
    bool globalDestination = true;

    /// Victim-selection policy name (see makeVictimPolicy).
    std::string victimPolicy = "greedy";
    /// Host-write allocation policy name (see makeAllocPolicy).
    std::string allocPolicy = "rr";
    /// Windowed-greedy victim selection: window size in blocks.
    std::uint32_t victimWindow = 8;

    /// Preemptible/partial GC rounds: the engine pauses a unit's round
    /// after each copy quantum while host I/O is outstanding and
    /// resumes it deterministically after preemptResumeNs. Under array
    /// coordination the grant is yielded while every active unit is
    /// paused and re-requested on resume.
    bool preemptible = false;
    /// Copies between preemption checks (>= 1).
    unsigned preemptQuantumPages = 4;
    /// Pause length before a paused unit re-checks for resume.
    std::uint64_t preemptResumeNs = 10000;
};

/** Human-readable policy name. */
inline const char *
gcPolicyName(GcPolicy p)
{
    switch (p) {
      case GcPolicy::Parallel:
        return "PaGC";
      case GcPolicy::Preemptive:
        return "PreemptiveGC";
      case GcPolicy::TinyTail:
        return "TinyTail";
    }
    return "?";
}

/**
 * Incrementally maintained victim-candidate index of one allocation
 * unit (see PageMapping). Replaces the historical O(blocks) victim
 * scan: eligibility transitions (block fills, page invalidated, GC
 * reservation drains, erase, retire) move blocks between valid-count
 * buckets in O(log blocks), and greedy selection reads the first
 * non-empty bucket.
 *
 * Eligibility matches the old scan exactly: fully written, not free,
 * not bad, no GC copies pending into the block. std::set keeps each
 * bucket in ascending block-id order, so min-element selection
 * reproduces the scan's lowest-block-id tie-break bit-identically and
 * is stable across histories.
 */
struct VictimIndex
{
    /// buckets[v] = eligible blocks with v valid pages.
    std::vector<std::set<std::uint32_t>> buckets;
    /// Fully-written, non-free, non-bad blocks in the order they
    /// filled (oldest first); superset of the bucketed blocks (a
    /// block with pending GC copies is listed here but not yet
    /// eligible). Drives windowed-greedy selection.
    std::deque<std::uint32_t> fillOrder;
};

/**
 * Victim-selection strategy: which block to collect next.
 * Implementations must be deterministic pure functions of the mapping
 * state (plus their own state), with a documented tie-break, so
 * figure outputs stay byte-identical across runs, rebuilds and
 * engine-thread counts.
 */
class VictimPolicy
{
  public:
    virtual ~VictimPolicy() = default;

    /** Factory-registered policy name. */
    virtual const char *name() const = 0;

    /**
     * Pick a victim block of @p unit, or nullopt when no eligible
     * block would free space.
     */
    virtual std::optional<std::uint32_t>
    pickVictim(const PageMapping &map, std::uint32_t unit) = 0;

    /** Register policy-specific counters under @p prefix. */
    virtual void
    registerStats(StatRegistry &reg, const std::string &prefix) const
    {
        (void)reg;
        (void)prefix;
    }
};

/**
 * Host-write allocation strategy: which unit takes the next host
 * page. Owns any striping cursor state; the default "rr" policy is
 * the historical round-robin loop, cursor semantics and all.
 */
class AllocPolicy
{
  public:
    virtual ~AllocPolicy() = default;

    /** Factory-registered policy name. */
    virtual const char *name() const = 0;

    /**
     * Unit of the next host write, or nullopt when no unit can take a
     * host allocation (every unit is down to its GC-reserve block).
     */
    virtual std::optional<std::uint32_t>
    chooseUnit(const PageMapping &map) = 0;

    /** Register policy-specific counters under @p prefix. */
    virtual void
    registerStats(StatRegistry &reg, const std::string &prefix) const
    {
        (void)reg;
        (void)prefix;
    }
};

/** Knobs forwarded to policy constructors by the factory. */
struct PolicyConfig
{
    /// Windowed-greedy: how many of the oldest full blocks compete.
    std::uint32_t victimWindow = 8;
};

/**
 * String-keyed policy factories. Every concrete policy class is
 * registered here (enforced by lint rule R7); fatal() on unknown
 * names, listing the registered ones.
 */
std::unique_ptr<VictimPolicy>
makeVictimPolicy(const std::string &name, const PolicyConfig &cfg = {});
std::unique_ptr<AllocPolicy>
makeAllocPolicy(const std::string &name, const PolicyConfig &cfg = {});

/** Registered policy names, in registration order. */
std::vector<std::string> victimPolicyNames();
std::vector<std::string> allocPolicyNames();

/** Whether @p name is a registered policy. */
bool isVictimPolicy(const std::string &name);
bool isAllocPolicy(const std::string &name);

} // namespace dssd

#endif // DSSD_FTL_POLICY_HH
