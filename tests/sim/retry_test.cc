/**
 * Unit and property tests for RetryQueue: batching of same-tick
 * retries, the exact (tick, order) equivalence with one self-scheduled
 * event per retry, and the wedged-wait bound.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/resource.hh"
#include "sim/rng.hh"

namespace dssd
{
namespace
{

constexpr Tick kPeriod = RetryQueue::kPeriod;

TEST(RetryQueueTest, SameTickRetriesShareOneEvent)
{
    Engine e;
    RetryQueue q(e, "test", nullptr);
    std::vector<std::pair<Tick, int>> ran;
    for (int i = 0; i < 5; ++i)
        q.park([&ran, &e, i] { ran.emplace_back(e.now(), i); });
    EXPECT_EQ(q.waiters(), 5u);
    e.run();
    EXPECT_EQ(e.executedEvents(), 1u);
    EXPECT_EQ(q.waiters(), 0u);
    std::vector<std::pair<Tick, int>> want;
    for (int i = 0; i < 5; ++i)
        want.emplace_back(kPeriod, i);
    EXPECT_EQ(ran, want);
}

TEST(RetryQueueTest, EventScheduledBetweenParksStartsANewBatch)
{
    // B's own event would have come after X's, so X runs between A and
    // B when all three share a tick: the queue must not fold B into A's
    // batch.
    Engine e;
    RetryQueue q(e, "test", nullptr);
    std::vector<char> ran;
    q.park([&ran] { ran.push_back('A'); });
    e.schedule(kPeriod, [&ran] { ran.push_back('X'); });
    q.park([&ran] { ran.push_back('B'); });
    e.run();
    EXPECT_EQ(ran, (std::vector<char>{'A', 'X', 'B'}));
    EXPECT_EQ(e.executedEvents(), 3u);
}

TEST(RetryQueueTest, RetriesParkedByABatchFormTheNextBatch)
{
    // Three waiters retrying ten times each: ten batch events, not
    // thirty.
    Engine e;
    RetryQueue q(e, "test", nullptr);
    struct Again
    {
        RetryQueue *q;
        int *left;
        void
        operator()() const
        {
            if (--*left > 0)
                q->park(*this);
        }
    };
    int left[3] = {10, 10, 10};
    for (int &n : left)
        q.park(Again{&q, &n});
    e.run();
    EXPECT_EQ(e.executedEvents(), 10u);
    EXPECT_EQ(e.now(), 10 * kPeriod);
}

/**
 * One seeded script of waiters and plain events, run either with each
 * retry scheduling its own event one period ahead (the reference the
 * queue replaces) or through RetryQueue. Every callback logs
 * (tick, id); the logs must match exactly.
 *
 * Waiters retry a random number of times, then succeed and schedule
 * events. Events schedule more events and start new waiters from
 * inside their callbacks, at delays drawn from a menu that includes
 * zero and one period exactly, so plain events land on the same ticks
 * as retries and in between them. Waiters use two queues, as the
 * simulator's subsystems each own one.
 */
class Script
{
  public:
    Script(std::uint64_t seed, bool use_queue)
        : _rng(seed)
    {
        if (use_queue) {
            _queues[0].emplace(_engine, "a", nullptr);
            _queues[1].emplace(_engine, "b", nullptr);
        }
    }

    std::vector<std::pair<Tick, unsigned>>
    run()
    {
        // Waiters parked before the engine starts, then root events
        // at random phases across a few periods.
        for (int i = 0; i < 4; ++i)
            startWaiter();
        for (int i = 0; i < 24; ++i) {
            unsigned id = _nextId++;
            _engine.schedule(_rng.uniformInt(0, 6 * kPeriod),
                             [this, id] { event(id); });
        }
        _engine.run();
        return _log;
    }

    std::uint64_t executed() const { return _engine.executedEvents(); }

    std::size_t
    parked() const
    {
        std::size_t n = 0;
        for (const auto &q : _queues)
            n += q ? q->waiters() : 0;
        return n;
    }

  private:
    static constexpr unsigned kBudget = 4000;

    Tick
    delay()
    {
        switch (_rng.uniformInt(0, 6)) {
          case 0: return 0;
          case 1: return 1;
          case 2: return kPeriod - 1;
          case 3: return kPeriod;
          case 4: return kPeriod + 1;
          case 5: return 2 * kPeriod;
          default: return _rng.uniformInt(0, 3 * kPeriod);
        }
    }

    void
    spawn()
    {
        if (_nextId >= kBudget)
            return;
        if (_rng.chance(0.4)) {
            startWaiter();
            return;
        }
        unsigned id = _nextId++;
        _engine.schedule(delay(), [this, id] { event(id); });
    }

    void
    event(unsigned id)
    {
        _log.emplace_back(_engine.now(), id);
        auto children = _rng.uniformInt(0, 2);
        for (std::uint64_t i = 0; i < children; ++i)
            spawn();
    }

    void
    startWaiter()
    {
        unsigned id = _nextId++;
        auto queue = static_cast<unsigned>(_rng.uniformInt(0, 1));
        auto retries = static_cast<unsigned>(_rng.uniformInt(0, 12));
        attempt(id, queue, retries);
    }

    void
    attempt(unsigned id, unsigned queue, unsigned retries_left)
    {
        _log.emplace_back(_engine.now(), id);
        if (retries_left > 0) {
            auto retry = [this, id, queue, retries_left] {
                attempt(id, queue, retries_left - 1);
            };
            if (_queues[queue])
                _queues[queue]->park(retry);
            else
                _engine.schedule(kPeriod, retry);
            // Some failed attempts schedule work after parking, as a
            // stalled write kicks the flusher.
            if (_rng.chance(0.1))
                spawn();
            return;
        }
        auto children = _rng.uniformInt(0, 2);
        for (std::uint64_t i = 0; i < children; ++i)
            spawn();
    }

    Engine _engine;
    Rng _rng;
    std::optional<RetryQueue> _queues[2];
    std::vector<std::pair<Tick, unsigned>> _log;
    unsigned _nextId = 0;
};

TEST(RetryQueueProperty, MatchesOneEventPerRetryExactly)
{
    std::uint64_t ref_events = 0;
    std::uint64_t queue_events = 0;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        SCOPED_TRACE(seed);
        Script ref(seed, false);
        Script batched(seed, true);
        auto want = ref.run();
        auto got = batched.run();
        ASSERT_GT(want.size(), 100u);
        ASSERT_EQ(got, want);
        EXPECT_EQ(batched.parked(), 0u);
        EXPECT_LE(batched.executed(), ref.executed());
        ref_events += ref.executed();
        queue_events += batched.executed();
    }
    // The scripts exercise batching: some retries shared an event.
    EXPECT_LT(queue_events, ref_events);
}

TEST(RetryQueueDeathTest, WaitPastStallBoundIsFatal)
{
    auto wedge = [] {
        Engine e;
        RetryQueue q(e, "test", [] { return std::string("the state"); });
        struct Forever
        {
            RetryQueue *q;
            void operator()() const { q->park(*this); }
        };
        q.park(Forever{&q});
        q.park(Forever{&q});
        e.run();
    };
    EXPECT_DEATH(wedge(), "test wait wedged: 2 waiter\\(s\\), one waiting "
                          "1.000 s; the state");
}

TEST(RetryQueueTest, NewWaitAfterAFinishedOneGetsAFullBound)
{
    // The first waiter stops just short of the bound. A wait parked
    // later from a plain event is a new waiter with a full bound of its
    // own.
    Engine e;
    RetryQueue q(e, "test", nullptr);
    struct Until
    {
        RetryQueue *q;
        Engine *e;
        Tick stop;
        void
        operator()() const
        {
            if (e->now() < stop)
                q->park(*this);
        }
    };
    Tick almost = RetryQueue::kStallBound - kPeriod;
    q.park(Until{&q, &e, almost});
    e.schedule(almost + 1, [&q, &e, almost] {
        q.park(Until{&q, &e, 2 * almost});
    });
    e.run();
    EXPECT_EQ(e.now(), 2 * almost + 1);
}

} // namespace
} // namespace dssd
