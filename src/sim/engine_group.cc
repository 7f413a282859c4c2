#include "sim/engine_group.hh"

#include <algorithm>
#include <utility>

#include "sim/log.hh"
#include "sim/registry.hh"

namespace dssd
{

EngineGroup::EngineGroup(Engine &host, unsigned shards, Tick lookahead)
    : _host(host), _lookahead(lookahead)
{
    if (shards == 0)
        fatal("EngineGroup needs at least one shard engine");
    if (lookahead == 0)
        fatal("EngineGroup needs a positive lookahead (the minimum "
              "host-to-shard latency); zero would let the host reach "
              "into windows the shards have already simulated");
    _shards.reserve(shards);
    for (unsigned s = 0; s < shards; ++s)
        _shards.push_back(std::make_unique<Shard>());
    _mergePos.resize(shards, 0);
}

Engine &
EngineGroup::shardEngine(unsigned s)
{
    if (s >= _shards.size())
        panic("shard engine %u out of range (%zu shards)", s,
              _shards.size());
    return _shards[s]->engine;
}

void
EngineGroup::postToShard(unsigned s, Tick delay, Callback fn)
{
    if (s >= _shards.size())
        panic("postToShard: shard %u out of range", s);
    if (delay < _lookahead) {
        panic("postToShard: delay %llu below the lookahead %llu; a "
              "shorter cross-domain latency would require a smaller "
              "epoch window",
              static_cast<unsigned long long>(delay),
              static_cast<unsigned long long>(_lookahead));
    }
    ++_toShards;
    _shards[s]->inbox.push_back(
        Message{_host.now() + delay, std::move(fn)});
}

void
EngineGroup::postToHost(unsigned s, Callback fn)
{
    // Runs on shard s's phase; the merge drains the outbox after the
    // shard phases of the epoch.
    Shard &sh = *_shards[s];
    sh.outbox.push_back(Completion{sh.engine.now(), std::move(fn)});
}

void
EngineGroup::shardPhase(Shard &sh, Tick bound)
{
    for (Message &m : sh.inbox)
        sh.engine.scheduleAbs(m.due, std::move(m.fn));
    sh.inbox.clear();
    sh.engine.runUntil(bound);
}

void
EngineGroup::mergeCompletions()
{
    // Deterministic k-way merge of the shard outboxes into the host
    // engine. Each outbox is already time-sorted (a shard's clock is
    // monotone), so repeatedly taking the earliest head — breaking
    // tick ties by the lowest shard index — schedules completions in
    // (tick, shard, emission order). The host engine's FIFO-per-tick
    // ordering then replays them in that order.
    std::fill(_mergePos.begin(), _mergePos.end(), 0);
    for (;;) {
        std::size_t best = _shards.size();
        Tick best_when = maxTick;
        for (std::size_t s = 0; s < _shards.size(); ++s) {
            const std::vector<Completion> &out = _shards[s]->outbox;
            std::size_t pos = _mergePos[s];
            if (pos < out.size() && out[pos].when < best_when) {
                best_when = out[pos].when;
                best = s;
            }
        }
        if (best == _shards.size())
            break;
        Completion &c = _shards[best]->outbox[_mergePos[best]++];
        ++_toHost;
        _host.scheduleAbs(c.when, std::move(c.fn));
    }
    for (auto &sh : _shards)
        sh->outbox.clear();
}

void
EngineGroup::runEpoch(Tick bound)
{
    for (auto &sh : _shards)
        shardPhase(*sh, bound);
    mergeCompletions();
    _host.runUntil(bound);
    ++_epochs;
}

Tick
EngineGroup::nextTime()
{
    Tick next = _host.nextEventTick();
    for (auto &sh : _shards) {
        next = std::min(next, sh->engine.nextEventTick());
        for (const Message &m : sh->inbox)
            next = std::min(next, m.due);
    }
    return next;
}

void
EngineGroup::runUntil(Tick until)
{
    for (;;) {
        Tick next = nextTime();
        if (next == maxTick || next > until)
            return;
        // The epoch window containing the earliest pending tick,
        // aligned to the lookahead grid; the final epoch is trimmed to
        // `until` (events at exactly `until` still run, matching
        // Engine::runUntil).
        Tick start = next - next % _lookahead;
        Tick bound = start + (_lookahead - 1);
        if (bound < start)
            bound = maxTick; // overflow near the end of time
        runEpoch(std::min(bound, until));
    }
}

void
EngineGroup::run()
{
    runUntil(maxTick);
}

void
EngineGroup::registerStats(StatRegistry &reg,
                           const std::string &prefix) const
{
    reg.addScalar(prefix + ".epochs", [this] {
        return static_cast<double>(_epochs);
    });
    reg.addScalar(prefix + ".msgs_to_shards", [this] {
        return static_cast<double>(_toShards);
    });
    reg.addScalar(prefix + ".msgs_to_host", [this] {
        return static_cast<double>(_toHost);
    });
    reg.addScalar(prefix + ".lookahead_ticks", [this] {
        return static_cast<double>(_lookahead);
    });
}

} // namespace dssd
