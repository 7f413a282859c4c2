/**
 * @file
 * Array-level garbage-collection scheduler.
 *
 * `SsdArray` fans host I/O out over N independent shards; left alone,
 * every shard also collects garbage whenever its own thresholds trip.
 * Uncoordinated per-device GC is what destroys array-level tail
 * latency: a request striped over all shards is as slow as the one
 * shard that happens to be collecting. The scheduler gives the array
 * an opinion about *when* shards may collect.
 *
 * Shards never collect on their own once coordinated (see
 * GcCoordinationHooks in core/gc.hh): they request a grant, the
 * scheduler answers according to its policy, and they release the
 * grant when the collection round drains, reporting the copy/erase
 * work done inside the window.
 *
 * Policies:
 *  - Uncoordinated: every request is granted immediately (the
 *    baseline; equivalent to today's behavior up to the grant
 *    delivery latency).
 *  - Staggered: at most `maxConcurrent` shards hold a grant at once;
 *    excess requests queue FIFO, so grants rotate across shards.
 *  - TokenBucket: one array-wide bucket refilled with
 *    `tokensPerEpoch` tokens every `tokenEpoch` ticks (capped at
 *    `tokenCap`). A grant needs a positive bucket and reserves one
 *    epoch's worth of tokens up front — so grants pace out at about
 *    one per epoch under pressure — and the window's actual copies +
 *    erases are reconciled against the reservation on release (the
 *    bucket may go negative: debt delays the next grant).
 *  - GlobalGreedy: like Staggered, but the queued shard with the
 *    worst free-block pressure is granted first (ties to the lower
 *    shard index).
 *
 * The scheduler lives entirely on the host engine: every decision is
 * a host-engine event, so grant order is the same in both engine
 * modes (under the engine group, requests and releases arrive through
 * its deterministic completion merge).
 */

#ifndef DSSD_CORE_ARRAY_GC_HH
#define DSSD_CORE_ARRAY_GC_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "sim/engine.hh"
#include "sim/stats.hh"

namespace dssd
{

class StatRegistry;

/** When may a shard collect garbage? */
enum class ArrayGcPolicy
{
    Uncoordinated, ///< grant immediately (baseline)
    Staggered,     ///< at most K shards at once, FIFO rotation
    TokenBucket,   ///< array-wide copy/erase budget per epoch
    GlobalGreedy,  ///< worst free-block pressure first
};

const char *arrayGcPolicyName(ArrayGcPolicy policy);

/** Parse a policy name (uncoordinated|staggered|token|greedy);
 *  empty when unrecognized. */
std::optional<ArrayGcPolicy> parseArrayGcPolicy(const std::string &name);

struct ArrayGcParams
{
    ArrayGcPolicy policy = ArrayGcPolicy::Uncoordinated;
    /** Staggered/GlobalGreedy: shards allowed to collect at once. */
    unsigned maxConcurrent = 1;
    /** TokenBucket: tokens credited to the array-wide bucket per
     *  epoch (also the per-grant up-front reservation). */
    std::uint64_t tokensPerEpoch = 256;
    /** TokenBucket: refill period. The default is on the scale of a
     *  GC round, so grants pace out visibly under sustained load. */
    Tick tokenEpoch = usToTicks(2000);
    /** TokenBucket: bucket ceiling (hoarding bound). */
    std::int64_t tokenCap = 512;
};

/** Host-side grant arbiter for the shards' GC engines. */
class ArrayGcScheduler
{
  public:
    /** Delivers a grant to shard s (the SsdArray bridges it to the
     *  shard's GcEngine::grantCollection with the proper latency). */
    using GrantFn = std::function<void(unsigned shard)>;

    ArrayGcScheduler(Engine &host, const ArrayGcParams &params,
                     unsigned shards, GrantFn deliver);

    /**
     * Shard @p shard asks to collect; @p pressure is its worst
     * per-unit free-block pressure at request time (GlobalGreedy
     * ranking key). Host-engine context; at most one outstanding
     * request per shard (the GcEngine state machine guarantees it).
     */
    void requestGrant(unsigned shard, std::uint32_t pressure);

    /**
     * Shard @p shard finished every round run under its grant;
     * @p copies / @p erases are the GC work done inside the window
     * (TokenBucket charges them against the bucket).
     */
    void releaseGrant(unsigned shard, std::uint64_t copies,
                      std::uint64_t erases);

    /** Whether @p shard currently holds a grant (the degraded-read
     *  busy predicate; pure host state). */
    bool granted(unsigned shard) const
    {
        return _state[shard] == ShardState::Granted;
    }

    unsigned activeGrants() const { return _active; }

    std::uint64_t requests() const { return _requests; }
    std::uint64_t grants() const { return _grants; }
    std::uint64_t waits() const { return _waits; }
    std::uint64_t releases() const { return _releases; }
    std::uint64_t tokensSpent() const { return _tokensSpent; }
    std::int64_t tokens() const { return _tokens; }

    /** Shards in grant-delivery order since construction — the
     *  determinism witness compared across engine modes. */
    const std::vector<unsigned> &grantLog() const { return _grantLog; }

    const ArrayGcParams &params() const { return _params; }

    /** Register scheduler counters under @p prefix
     *  (e.g. "<array>.array.gc"). */
    void registerStats(StatRegistry &reg, const std::string &prefix) const;

  private:
    enum class ShardState
    {
        Idle,
        Waiting,
        Granted,
    };

    struct Waiter
    {
        unsigned shard;
        std::uint32_t pressure;
        std::uint64_t seq; ///< arrival order (FIFO key)
    };

    /** Grant the waiter at @p queue_index and deliver it. */
    void grantAt(std::size_t queue_index);
    /** Grant as many waiters as the policy allows right now. */
    void pump();
    /** Credit token buckets for epochs elapsed since the last call. */
    void refillTokens();
    /** Arm a host event at the next token epoch boundary. */
    void scheduleTokenWake();

    Engine &_host;
    ArrayGcParams _params;
    GrantFn _deliver;
    std::vector<ShardState> _state;
    std::vector<Tick> _requestAt;
    std::vector<Tick> _grantAt;
    /// Tokens reserved by each shard's outstanding grant (reconciled
    /// against the actual copy/erase cost at release).
    std::vector<std::int64_t> _reserved;
    std::int64_t _tokens = 0;
    std::vector<Waiter> _queue;
    std::uint64_t _seq = 0;
    std::uint64_t _epochsCredited = 0;
    unsigned _active = 0;
    bool _wakeArmed = false;

    std::uint64_t _requests = 0;
    std::uint64_t _grants = 0;
    std::uint64_t _waits = 0;
    std::uint64_t _releases = 0;
    std::uint64_t _tokensSpent = 0;
    std::vector<unsigned> _grantLog;
    SampleStat _waitTicks{"array-gc-wait"};
    SampleStat _grantTicks{"array-gc-window"};
};

} // namespace dssd

#endif // DSSD_CORE_ARRAY_GC_HH
