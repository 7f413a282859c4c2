/**
 * @file
 * Conservatively-synchronized discrete-event engine group.
 *
 * An EngineGroup coordinates one shard Engine per array shard plus the
 * caller's host Engine. Shards never touch each other's state; they
 * interact with the host only through two explicitly-ordered message
 * channels:
 *
 *  - host -> shard: per-shard inbox mailboxes. A message carries an
 *    absolute due tick at least @ref lookahead past the posting time
 *    and is drained into the shard's engine at the next window
 *    boundary, in posting order.
 *  - shard -> host: per-shard outbox mailboxes. A completion is
 *    stamped with the shard clock at emission and delivered to the
 *    host engine at the window edge through a deterministic k-way
 *    merge keyed by (tick, shard index, per-shard emission order).
 *
 * Time advances in epochs of at most @ref lookahead ticks, aligned to
 * the lookahead grid. Each epoch runs the shard engines in shard order
 * up to the window bound, merges their completions, then runs the
 * host engine over the same window. Because every host->shard message
 * is due at least one full window ahead, a shard can never receive
 * work for a tick it has already passed.
 */

#ifndef DSSD_SIM_ENGINE_GROUP_HH
#define DSSD_SIM_ENGINE_GROUP_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/engine.hh"
#include "sim/types.hh"

namespace dssd
{

class StatRegistry;

/** One engine per shard, conservatively synchronized with the host. */
class EngineGroup
{
  public:
    using Callback = Engine::Callback;

    /**
     * @param host      The host-side engine (front-end, drivers).
     *                  Borrowed; must outlive the group.
     * @param shards    Number of shard engines to own (>= 1).
     * @param lookahead Minimum host->shard latency in ticks (> 0);
     *                  also the epoch width. For an SsdArray this is
     *                  the firmware fan-out latency.
     */
    EngineGroup(Engine &host, unsigned shards, Tick lookahead);

    EngineGroup(const EngineGroup &) = delete;
    EngineGroup &operator=(const EngineGroup &) = delete;

    Engine &hostEngine() { return _host; }
    Engine &shardEngine(unsigned s);
    unsigned shardCount() const
    {
        return static_cast<unsigned>(_shards.size());
    }
    Tick lookahead() const { return _lookahead; }

    /**
     * Post @p fn to shard @p s, to run @p delay ticks from the host
     * clock. Must be called from the host side (construction time or a
     * host-engine event), with @p delay >= lookahead(): that is the
     * conservative bound that lets shards run a full window ahead of
     * the host. Messages are delivered in posting order.
     */
    void postToShard(unsigned s, Tick delay, Callback fn);

    /**
     * Post @p fn back to the host from shard @p s, stamped with the
     * shard's current clock. Must be called from shard @p s's phase
     * (i.e. from an event on its engine). The host runs it at the
     * stamped tick, ordered against other shards' completions by
     * (tick, shard index, emission order).
     */
    void postToHost(unsigned s, Callback fn);

    /**
     * Run epochs until every engine and mailbox is past @p until.
     * Events at exactly @p until are executed (same contract as
     * Engine::runUntil).
     */
    void runUntil(Tick until);

    /** Run epochs until no engine or mailbox holds any work. */
    void run();

    /** Earliest pending tick across engines and mailboxes
     *  (maxTick when fully drained). */
    Tick nextTime();

    /** Epochs executed so far. */
    std::uint64_t epochsRun() const { return _epochs; }
    /** host->shard messages posted so far. */
    std::uint64_t messagesToShards() const { return _toShards; }
    /** shard->host completions merged so far. */
    std::uint64_t messagesToHost() const { return _toHost; }

    /**
     * Register the group's coordination counters under @p prefix.
     * Every value is a pure function of the simulated schedule.
     */
    void registerStats(StatRegistry &reg, const std::string &prefix) const;

  private:
    struct Message
    {
        Tick due;
        Callback fn;
    };

    struct Completion
    {
        Tick when;
        Callback fn;
    };

    /**
     * A shard engine plus its two mailboxes. The inbox is written by
     * the host between phases and drained by the shard at its phase
     * start; the outbox is written by the shard during its phase and
     * drained into the host engine by the merge.
     */
    struct Shard
    {
        Engine engine;
        std::vector<Message> inbox;
        std::vector<Completion> outbox;
    };

    /** Drain the inbox into the engine, then run it to @p bound. */
    void shardPhase(Shard &sh, Tick bound);
    /** Deterministically merge outboxes into the host engine. */
    void mergeCompletions();
    /** One whole epoch: shards to @p bound, merge, host to it. */
    void runEpoch(Tick bound);

    Engine &_host;
    Tick _lookahead;
    std::vector<std::unique_ptr<Shard>> _shards;

    std::uint64_t _epochs = 0;
    std::uint64_t _toShards = 0;
    std::uint64_t _toHost = 0;
    std::vector<std::size_t> _mergePos; ///< per-shard merge cursors
};

} // namespace dssd

#endif // DSSD_SIM_ENGINE_GROUP_HH
