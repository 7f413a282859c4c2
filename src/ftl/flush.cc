#include "ftl/flush.hh"

#include <utility>

#include "sim/trace.hh"

namespace dssd
{

FlushEngine::FlushEngine(Engine &engine, PageMapping &mapping,
                         WriteBuffer &buffer, unsigned in_flight,
                         ResolveFn resolve, WriteBackFn write_back,
                         AllocNoteFn note_allocation,
                         RetryQueue::StateFn space_state)
    : _engine(engine), _mapping(mapping), _buffer(buffer),
      _maxInFlight(in_flight), _resolve(std::move(resolve)),
      _writeBack(std::move(write_back)),
      _note(std::move(note_allocation)),
      _spaceWaits(engine, "flush write-back", std::move(space_state))
{
}

void
FlushEngine::traceOccupancy()
{
#if DSSD_TRACING
    Tracer *tr = _engine.tracer();
    if (tr) {
        if (_tracePid < 0)
            _tracePid = tr->process("occupancy");
        tr->counter(_tracePid, "write-buffer", _engine.now(),
                    static_cast<double>(_buffer.occupancy()));
    }
#endif
}

void
FlushEngine::maybeStart()
{
    if (_buffer.mode() != BufferMode::Real)
        return;
    if (_active || !_buffer.flushNeeded())
        return;
    _active = true;
    pump();
}

void
FlushEngine::pump()
{
    while (_inFlight < _maxInFlight) {
        if (_buffer.flushSatisfied())
            break;
        auto batch = _buffer.drainForFlush(1);
        if (batch.empty())
            break;
        traceOccupancy();
        ++_inFlight;
        flushOne(batch.front(), [this] {
            --_inFlight;
            ++_flushedPages;
            pump();
        });
    }
    if (_inFlight == 0)
        _active = false;
}

void
FlushEngine::flushOne(Lpn lpn, Callback done)
{
    if (!_mapping.hostCanAllocate()) {
        // Free pool exhausted: hold this flush until GC reclaims.
        _spaceWaits.park([this, lpn, done = std::move(done)]() mutable {
            flushOne(lpn, std::move(done));
        });
        return;
    }
    PhysAddr addr = _mapping.allocate(lpn);
    std::uint32_t unit = _mapping.unitOf(addr);
    PhysAddr target = _resolve(addr);

    _writeBack(target, std::move(done));
    _note(unit);
}

} // namespace dssd
