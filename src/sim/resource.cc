#include "sim/resource.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "sim/log.hh"
#include "sim/registry.hh"
#include "sim/trace.hh"

namespace dssd
{

namespace
{

#if DSSD_TRACING
/** Slice label for a traffic tag. */
const char *
tagName(int tag)
{
    switch (tag) {
      case tagIo:
        return "io";
      case tagGc:
        return "gc";
      case tagMeta:
        return "meta";
      default:
        return "other";
    }
}
#endif

} // namespace

//
// UtilizationRecorder
//

UtilizationRecorder::UtilizationRecorder(Tick window, int num_tags)
    : _window(window), _numTags(num_tags), _busy(num_tags)
{
    if (window == 0)
        fatal("UtilizationRecorder window must be > 0");
    if (num_tags <= 0)
        fatal("UtilizationRecorder needs at least one tag");
}

void
UtilizationRecorder::ensureWindows(std::size_t count)
{
    for (auto &v : _busy) {
        if (v.size() < count)
            v.resize(count, 0);
    }
}

void
UtilizationRecorder::addBusy(Tick start, Tick end, int tag)
{
    if (tag < 0 || tag >= _numTags || end <= start)
        return;
    std::size_t last = static_cast<std::size_t>((end - 1) / _window);
    ensureWindows(last + 1);
    Tick t = start;
    while (t < end) {
        std::size_t w = static_cast<std::size_t>(t / _window);
        Tick w_end = (static_cast<Tick>(w) + 1) * _window;
        Tick seg_end = std::min(end, w_end);
        _busy[tag][w] += seg_end - t;
        t = seg_end;
    }
}

std::vector<double>
UtilizationRecorder::series(int tag) const
{
    std::vector<double> out;
    if (tag < 0 || tag >= _numTags)
        return out;
    out.reserve(_busy[tag].size());
    for (Tick b : _busy[tag])
        out.push_back(static_cast<double>(b) / static_cast<double>(_window));
    return out;
}

double
UtilizationRecorder::busyFraction(int tag, Tick from, Tick to) const
{
    if (tag < 0 || tag >= _numTags || to <= from)
        return 0.0;
    // Sum whole windows that overlap [from, to); window-granular since
    // busy time inside a window is not further localized.
    std::size_t w0 = static_cast<std::size_t>(from / _window);
    std::size_t w1 = static_cast<std::size_t>((to - 1) / _window);
    Tick busy = 0;
    for (std::size_t w = w0; w <= w1 && w < _busy[tag].size(); ++w)
        busy += _busy[tag][w];
    return static_cast<double>(busy) / static_cast<double>(to - from);
}

//
// BandwidthResource
//

BandwidthResource::BandwidthResource(Engine &engine, std::string name,
                                     BytesPerTick bw)
    : _engine(engine), _name(std::move(name)), _bandwidth(bw),
      _busyTicks(numTrafficTags, 0), _bytes(numTrafficTags, 0)
{
    if (bw <= 0.0)
        fatal("BandwidthResource %s: bandwidth must be positive",
              _name.c_str());
}

Tick
BandwidthResource::duration(std::uint64_t bytes) const
{
    if (bytes == 0)
        return 0;
    double d = static_cast<double>(bytes) / _bandwidth;
    return std::max<Tick>(1, static_cast<Tick>(std::ceil(d)));
}

Tick
BandwidthResource::queueDelay() const
{
    Tick now = _engine.now();
    return _busyUntil > now ? _busyUntil - now : 0;
}

Tick
BandwidthResource::reserve(std::uint64_t bytes, int tag)
{
    return reserveFrom(0, bytes, tag);
}

Tick
BandwidthResource::reserveFrom(Tick earliest, std::uint64_t bytes, int tag)
{
    Tick now = _engine.now();
    Tick start = std::max({now, earliest, _busyUntil});
    Tick dur = duration(bytes);
    Tick end = start + dur;
    _busyUntil = end;
    ++_transfers;
    if (tag >= 0 && tag < static_cast<int>(_busyTicks.size())) {
        _busyTicks[static_cast<std::size_t>(tag)] += dur;
        _bytes[static_cast<std::size_t>(tag)] += bytes;
    }
    if (_recorder)
        _recorder->addBusy(start, end, tag);
#if DSSD_TRACING
    // Every bus-like resource in the model reserves through here, so
    // this single site traces all transfer occupancy.
    Tracer *tr = _engine.tracer();
    if (tr && dur > 0) {
        if (_tracePid < 0) {
            _tracePid = tr->process("bus");
            _traceTid = tr->lane(_tracePid, _name);
        }
        tr->slice(_tracePid, _traceTid, tagName(tag), "bus", start, end);
    }
#endif
    return end;
}

Tick
BandwidthResource::transfer(std::uint64_t bytes, int tag, Callback done)
{
    Tick end = reserve(bytes, tag);
    _engine.scheduleAbs(end, std::move(done));
    return end;
}

Tick
BandwidthResource::busyTicks(int tag) const
{
    if (tag < 0 || tag >= static_cast<int>(_busyTicks.size()))
        return 0;
    return _busyTicks[static_cast<std::size_t>(tag)];
}

Tick
BandwidthResource::totalBusyTicks() const
{
    Tick sum = 0;
    for (Tick t : _busyTicks)
        sum += t;
    return sum;
}

std::uint64_t
BandwidthResource::bytesMoved(int tag) const
{
    if (tag < 0 || tag >= static_cast<int>(_bytes.size()))
        return 0;
    return _bytes[static_cast<std::size_t>(tag)];
}

void
BandwidthResource::registerStats(StatRegistry &reg,
                                 const std::string &prefix) const
{
    reg.addScalar(prefix + ".transfers", [this] {
        return static_cast<double>(_transfers);
    });
    reg.addScalar(prefix + ".busy_ticks", [this] {
        return static_cast<double>(totalBusyTicks());
    });
    reg.addScalar(prefix + ".bytes.io", [this] {
        return static_cast<double>(bytesMoved(tagIo));
    });
    reg.addScalar(prefix + ".bytes.gc", [this] {
        return static_cast<double>(bytesMoved(tagGc));
    });
    reg.addScalar(prefix + ".bytes.meta", [this] {
        return static_cast<double>(bytesMoved(tagMeta));
    });
}

//
// SlotResource
//

SlotResource::SlotResource(Engine &engine, std::string name, unsigned slots)
    : _engine(engine), _name(std::move(name)), _capacity(slots), _free(slots)
{
    if (slots == 0)
        fatal("SlotResource %s: capacity must be > 0", _name.c_str());
}

void
SlotResource::traceOccupancy()
{
#if DSSD_TRACING
    Tracer *tr = _engine.tracer();
    if (tr) {
        if (_tracePid < 0)
            _tracePid = tr->process("occupancy");
        tr->counter(_tracePid, _name.c_str(), _engine.now(),
                    static_cast<double>(_capacity - _free));
    }
#endif
}

bool
SlotResource::tryAcquire()
{
    if (_free == 0)
        return false;
    --_free;
    _maxHeld = std::max(_maxHeld, _capacity - _free);
    traceOccupancy();
    return true;
}

void
SlotResource::acquire(Callback granted)
{
    if (tryAcquire()) {
        // Run at the current tick but outside the caller's frame to keep
        // grant ordering FIFO with any queued waiters released this tick.
        _engine.schedule(0, std::move(granted));
    } else {
        _waiters.push_back(std::move(granted));
    }
}

void
SlotResource::release()
{
    if (_free == _capacity && _waiters.empty())
        panic("SlotResource %s: release without acquire", _name.c_str());
    if (!_waiters.empty()) {
        // Hand the slot directly to the oldest waiter.
        Callback cb = std::move(_waiters.front());
        _waiters.pop_front();
        _engine.schedule(0, std::move(cb));
    } else {
        ++_free;
        traceOccupancy();
    }
}

void
SlotResource::registerStats(StatRegistry &reg,
                            const std::string &prefix) const
{
    reg.addScalar(prefix + ".capacity", [this] {
        return static_cast<double>(_capacity);
    });
    reg.addScalar(prefix + ".max_held", [this] {
        return static_cast<double>(_maxHeld);
    });
    reg.addScalar(prefix + ".held", [this] {
        return static_cast<double>(_capacity - _free);
    });
    reg.addScalar(prefix + ".waiters", [this] {
        return static_cast<double>(_waiters.size());
    });
}

//
// RetryQueue
//

RetryQueue::RetryQueue(Engine &engine, std::string name, StateFn state)
    : _engine(engine), _name(std::move(name)), _state(std::move(state))
{
}

RetryQueue::~RetryQueue()
{
    // Destroy the callables of retries that never ran; the chunks free
    // the nodes.
    for (const Batch &b : _batches) {
        for (Waiter *w = b.head; w; w = w->next)
            w->manage(w->storage, false);
    }
}

RetryQueue::Waiter *
RetryQueue::enqueue()
{
    Tick now = _engine.now();
    Tick since = _resuming ? _resumeSince : now;
    _resuming = false;
    ++_waiters;
    if (now - since >= kStallBound) {
        fatal("%s wait wedged: %zu waiter(s), one waiting %.3f s; %s",
              _name.c_str(), _waiters, ticksToSec(now - since),
              _state ? _state().c_str() : "no state");
    }

    if (!_freeList) {
        constexpr std::size_t kChunk = 64;
        auto chunk = std::make_unique<Waiter[]>(kChunk);
        for (std::size_t i = kChunk; i-- > 0;) {
            chunk[i].next = _freeList;
            _freeList = &chunk[i];
        }
        _chunks.push_back(std::move(chunk));
    }
    Waiter *w = _freeList;
    _freeList = w->next;
    w->next = nullptr;
    w->since = since;

    Tick due = now + kPeriod;
    if (!_batches.empty() && _batches.back().due == due &&
        _batches.back().scheduled == scheduledEvents()) {
        Batch &b = _batches.back();
        b.tail->next = w;
        b.tail = w;
    } else {
        _engine.schedule(kPeriod, [this] { runBatch(); });
        _batches.push_back(Batch{due, scheduledEvents(), w, w});
    }
    return w;
}

void
RetryQueue::runBatch()
{
    // Batches are due in parking order, so this event is the oldest's.
    // Retries parked while it runs are due a period later and land in
    // newer batches, never in this one.
    Waiter *w = _batches.front().head;
    _batches.pop_front();
    while (w) {
        Waiter *next = w->next;
        --_waiters;
        _resuming = true;
        _resumeSince = w->since;
        w->manage(w->storage, true);
        _resuming = false;
        w->next = _freeList;
        _freeList = w;
        w = next;
    }
}

} // namespace dssd
