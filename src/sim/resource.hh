/**
 * @file
 * Shared-resource primitives for the discrete-event models.
 *
 * Three primitives cover every shared component and wait in the SSD
 * model:
 *
 *  - BandwidthResource: a serialized channel (system bus, flash channel
 *    bus, NoC link, DRAM port, ECC pipeline). Transfers are granted in
 *    FIFO order; each occupies the resource for bytes/bandwidth ticks.
 *    Per-tag busy accounting lets us attribute utilization to I/O vs GC
 *    traffic, which is what Fig 2(c,d) and Fig 7(b) of the paper plot.
 *
 *  - SlotResource: a counting semaphore with FIFO wakeup (router input
 *    buffers, dBUF entries, page-buffer entries, outstanding-command
 *    limits).
 *
 *  - RetryQueue: waits that re-check their condition on a fixed 2 us
 *    grid until space frees (a host write facing a full write buffer
 *    or an exhausted free pool, a flush, GC copy or fault relocation
 *    with nowhere to allocate).
 */

#ifndef DSSD_SIM_RESOURCE_HH
#define DSSD_SIM_RESOURCE_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/engine.hh"
#include "sim/types.hh"

namespace dssd
{

class StatRegistry;

/** Traffic tags used for per-class utilization accounting. */
enum TrafficTag : int
{
    tagIo = 0,     ///< host I/O traffic
    tagGc = 1,     ///< garbage-collection / copyback traffic
    tagMeta = 2,   ///< metadata / control traffic
    numTrafficTags = 3,
};

/**
 * Records busy intervals into fixed-size windows so that per-window
 * utilization (busy fraction) can be reported as a time series.
 */
class UtilizationRecorder
{
  public:
    /**
     * @param window Window width in ticks (e.g., 1 ms for Fig 2).
     * @param num_tags Number of traffic tags tracked.
     */
    explicit UtilizationRecorder(Tick window, int num_tags = numTrafficTags);

    /** Account a busy interval [start, end) for @p tag. */
    void addBusy(Tick start, Tick end, int tag);

    /** Busy fraction per window for @p tag. */
    std::vector<double> series(int tag) const;

    /**
     * Busy fraction over [from, to) for @p tag. Sums every window
     * that overlaps [from, to), so @p from and @p to must fall on
     * window boundaries, or no busy time may follow @p to.
     */
    double busyFraction(int tag, Tick from, Tick to) const;

    Tick window() const { return _window; }

  private:
    void ensureWindows(std::size_t count);

    Tick _window;
    int _numTags;
    /// _busy[tag][w] = busy ticks of window w attributed to tag.
    std::vector<std::vector<Tick>> _busy;
};

/**
 * A FIFO-arbitrated serialized channel with finite bandwidth.
 *
 * The grant discipline is first-come-first-served: a transfer begins at
 * max(now, busyUntil) and holds the channel for ceil(bytes/bandwidth)
 * ticks. This is the classic "busy-until" bus model used by
 * SimpleSSD-style simulators.
 */
class BandwidthResource
{
  public:
    using Callback = Engine::Callback;

    BandwidthResource(Engine &engine, std::string name, BytesPerTick bw);

    /**
     * Reserve the channel for a @p bytes transfer and invoke @p done at
     * completion time.
     * @return the completion tick.
     */
    Tick transfer(std::uint64_t bytes, int tag, Callback done);

    /**
     * Reserve the channel without a completion callback.
     * @return the completion tick (caller schedules dependents).
     */
    Tick reserve(std::uint64_t bytes, int tag);

    /**
     * Reserve the channel but start no earlier than @p earliest (used
     * to coordinate simultaneous multi-resource reservations, e.g. the
     * crossbar's input+output ports).
     * @return the completion tick.
     */
    Tick reserveFrom(Tick earliest, std::uint64_t bytes, int tag);

    /** Duration the channel would be held for a @p bytes transfer. */
    Tick duration(std::uint64_t bytes) const;

    /** Time at which the channel becomes free. */
    Tick busyUntil() const { return _busyUntil; }

    /** Queueing delay a transfer issued now would see before starting. */
    Tick queueDelay() const;

    BytesPerTick bandwidth() const { return _bandwidth; }

    /** Attach a windowed utilization recorder (not owned). */
    void attachRecorder(UtilizationRecorder *rec) { _recorder = rec; }

    /** Total ticks the channel was held for @p tag transfers. */
    Tick busyTicks(int tag) const;

    /** Total ticks the channel was held, all tags. */
    Tick totalBusyTicks() const;

    /** Total bytes moved for @p tag. */
    std::uint64_t bytesMoved(int tag) const;

    /** Number of transfers granted. */
    std::uint64_t transfers() const { return _transfers; }

    const std::string &name() const { return _name; }

    /** Register transfer/byte/busy accounting under @p prefix. */
    void registerStats(StatRegistry &reg, const std::string &prefix) const;

  private:
    Engine &_engine;
    std::string _name;
    BytesPerTick _bandwidth;
    Tick _busyUntil = 0;
    std::uint64_t _transfers = 0;
    std::vector<Tick> _busyTicks;
    std::vector<std::uint64_t> _bytes;
    UtilizationRecorder *_recorder = nullptr;
    mutable int _tracePid = -1; ///< cached trace rows (see reserveFrom)
    mutable int _traceTid = -1;
};

/**
 * Counting semaphore with FIFO wakeup. Used for finite buffers: router
 * input buffers (credits), dBUF entries and page-buffer entries.
 */
class SlotResource
{
  public:
    using Callback = Engine::Callback;

    SlotResource(Engine &engine, std::string name, unsigned slots);

    /** Grab a slot now if one is free. */
    bool tryAcquire();

    /**
     * Request a slot; @p granted runs as soon as one is available
     * (immediately, at the current tick, if free).
     */
    void acquire(Callback granted);

    /** Return a slot; wakes the oldest waiter, if any. */
    void release();

    unsigned capacity() const { return _capacity; }
    unsigned freeSlots() const { return _free; }
    std::size_t waiters() const { return _waiters.size(); }

    /** High-water mark of concurrently held slots. */
    unsigned maxHeld() const { return _maxHeld; }

    const std::string &name() const { return _name; }

    /** Register capacity/occupancy accounting under @p prefix. */
    void registerStats(StatRegistry &reg, const std::string &prefix) const;

  private:
    /** Trace the current held-slot count as a counter sample. */
    void traceOccupancy();

    Engine &_engine;
    std::string _name;
    unsigned _capacity;
    unsigned _free;
    unsigned _maxHeld = 0;
    std::deque<Callback> _waiters;
    mutable int _tracePid = -1; ///< cached trace row (see traceOccupancy)
};

/**
 * Polling waits on the 2 us retry grid, batched without moving any
 * callback's place in the schedule.
 *
 * A waiter that cannot proceed parks a retry callable here instead of
 * scheduling it itself; the callable runs kPeriod ticks later, in the
 * (tick, sequence) slot its own event would have had. Retries parked
 * at the same tick with nothing scheduled on the engine in between
 * would have had consecutive sequence numbers, so nothing could run
 * between them: they share one engine event (a batch) and run back to
 * back in parking order. The joining rule reads the engine's scheduled
 * event count, pendingEvents() + executedEvents() (no event is ever
 * cancelled), so a retry joins only the newest batch, and only if that
 * batch is due at the same tick and its event is still the last one
 * scheduled. Every callback runs at the same tick and in the same order
 * as with one event per retry; only the executed-event count falls.
 *
 * A retry parked while the waiter's previous retry runs continues that
 * waiter's wait. A wait that reaches kStallBound is wedged: park()
 * stops the simulation with a fatal error that names the queue, its
 * waiter count and the state the waiters wait on.
 */
class RetryQueue
{
  public:
    /** Describes the state the waiters wait on, for the wedge error. */
    using StateFn = std::function<std::string()>;

    /** Retry grid: a parked callable runs this many ticks later. */
    static constexpr Tick kPeriod = usToTicks(2);
    /** A waiter still waiting this long after it first parked is wedged. */
    static constexpr Tick kStallBound = tickSec;
    /** Inline storage per parked callable (checked at compile time). */
    static constexpr std::size_t kInlineBytes = 64;

    RetryQueue(Engine &engine, std::string name, StateFn state);
    ~RetryQueue();
    RetryQueue(const RetryQueue &) = delete;
    RetryQueue &operator=(const RetryQueue &) = delete;

    /** Run @p fn kPeriod ticks from now (see the class comment). */
    template <typename F>
    void
    park(F &&fn)
    {
        using Fn = std::decay_t<F>;
        static_assert(sizeof(Fn) <= kInlineBytes,
                      "retry callable exceeds inline storage; shrink the "
                      "capture or raise RetryQueue::kInlineBytes");
        static_assert(alignof(Fn) <= alignof(std::max_align_t),
                      "over-aligned retry callable");
        Waiter *w = enqueue();
        ::new (static_cast<void *>(w->storage)) Fn(std::forward<F>(fn));
        w->manage = &manageImpl<Fn>;
    }

    /** Parked retries not yet run. */
    std::size_t waiters() const { return _waiters; }

  private:
    struct Waiter
    {
        Waiter *next;
        Tick since; ///< when this waiter's wait began
        /** Runs (when @p invoke) and destroys the callable in storage. */
        void (*manage)(void *storage, bool invoke);
        alignas(std::max_align_t) unsigned char storage[kInlineBytes];
    };

    /** Retries sharing one engine event, run in parking order. */
    struct Batch
    {
        Tick due;
        std::uint64_t scheduled; ///< engine event count after its event
        Waiter *head;
        Waiter *tail;
    };

    template <typename Fn>
    static void
    manageImpl(void *storage, bool invoke)
    {
        Fn *fn = std::launder(reinterpret_cast<Fn *>(storage));
        if (invoke)
            (*fn)();
        fn->~Fn();
    }

    /** Events the engine has scheduled so far. */
    std::uint64_t scheduledEvents() const
    {
        return _engine.pendingEvents() + _engine.executedEvents();
    }

    /** Check the stall bound and file a node into a batch. */
    Waiter *enqueue();
    /** The oldest batch's event: run its retries in order. */
    void runBatch();

    Engine &_engine;
    std::string _name;
    StateFn _state;
    std::deque<Batch> _batches;
    std::size_t _waiters = 0;

    // The waiter whose retry is running: its next park continues it.
    bool _resuming = false;
    Tick _resumeSince = 0;

    // Free-list node pool, backed by chunk allocations.
    Waiter *_freeList = nullptr;
    std::vector<std::unique_ptr<Waiter[]>> _chunks;
};

} // namespace dssd

#endif // DSSD_SIM_RESOURCE_HH
