/**
 * @file
 * Shared-resource primitives for the discrete-event models.
 *
 * Two primitives cover every shared component in the SSD model:
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
 */

#ifndef DSSD_SIM_RESOURCE_HH
#define DSSD_SIM_RESOURCE_HH

#include <cstdint>
#include <deque>
#include <string>
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

    /** Busy fraction over [from, to) for @p tag. */
    double busyFraction(int tag, Tick from, Tick to) const;

    Tick window() const { return _window; }

    /** Number of windows with any recorded activity. */
    std::size_t numWindows() const;

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

    void setBandwidth(BytesPerTick bw);
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

} // namespace dssd

#endif // DSSD_SIM_RESOURCE_HH
