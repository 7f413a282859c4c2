#include "hil/nvme_host.hh"

#include <algorithm>
#include <utility>

#include "sim/log.hh"
#include "sim/registry.hh"
#include "sim/trace.hh"

namespace dssd
{

NvmeHost::NvmeHost(Engine &engine, SubmitFn submit,
                   const NvmeHostParams &params)
    : _engine(engine), _submit(std::move(submit)),
      _arbiter(params.policy, params.quantumBytes),
      _window(params.window), _deviceDepth(0),
      _deviceDepthParam(params.deviceDepth),
      _ioBytes(params.window, "io-bytes")
{
}

unsigned
NvmeHost::addTenant(const TenantParams &params, Generator &source,
                    bool open_loop)
{
    if (_started)
        fatal("cannot add tenants after start()");
    if (params.queueDepth == 0)
        fatal("tenant queue depth must be > 0");
    unsigned idx = tenantCount();
    std::string name =
        params.name.empty() ? strformat("t%u", idx) : params.name;
    _arbiter.addQueue(params.weight, params.priority);
    _tenants.push_back(Tenant{
        params,
        std::move(name),
        &source,
        open_loop,
        TokenBucket(params.rateBytesPerSec, params.burstBytes),
        TenantStats(params, _window),
        {},
        0,
        0,
        false,
    });
    _states.resize(_tenants.size());
    return idx;
}

void
NvmeHost::start()
{
    if (_tenants.empty())
        fatal("host has no tenants");
    _started = true;
    _deviceDepth = _deviceDepthParam;
    if (_deviceDepth == 0) {
        for (const Tenant &t : _tenants)
            _deviceDepth += t.params.queueDepth;
    }
    for (unsigned q = 0; q < tenantCount(); ++q) {
        if (_tenants[q].openLoop)
            scheduleArrival(q);
        else
            pumpTenant(q);
    }
    arbitrate();
}

void
NvmeHost::stop()
{
    if (_stopped)
        return;
    _stopped = true;
    // Drop open-loop backlog (counted per tenant); closed-loop queued
    // and held requests still issue — nothing already admitted to a
    // queue slot is cancelled.
    for (Tenant &t : _tenants) {
        if (!t.openLoop)
            continue;
        while (!t.queue.empty()) {
#if DSSD_TRACING
            if (Tracer *tr = _engine.tracer()) {
                int pid = tr->process("host");
                tr->asyncEnd(pid, "qwait", t.name.c_str(),
                             t.queue.front().spanId, _engine.now());
            }
#endif
            t.stats.recordDrop();
            t.queue.pop_front();
        }
    }
    maybeFinish();
}

void
NvmeHost::pumpTenant(unsigned q)
{
    Tenant &t = _tenants[q];
    while (!_stopped && !t.exhausted &&
           t.queue.size() + t.inflight + t.held < t.params.queueDepth) {
        auto req = t.source->next();
        if (!req) {
            t.exhausted = true;
            break;
        }
        if (req->issueAt > _engine.now()) {
            // Trace replay: hold a queue slot until the timestamp.
            // Keep pulling: a `break` here would serialize burst
            // arrivals behind one timer and stall earlier-stamped
            // requests behind an out-of-order one; with one slot held
            // per waiting request, up to queueDepth future requests
            // wait concurrently, each firing at its own time.
            ++t.held;
            _engine.scheduleAbs(req->issueAt, [this, q, r = *req] {
                --_tenants[q].held;
                enqueue(q, r);
                pumpTenant(q);
                arbitrate();
            });
            continue;
        }
        enqueue(q, *req);
    }
}

void
NvmeHost::scheduleArrival(unsigned q)
{
    Tenant &t = _tenants[q];
    if (_stopped || t.exhausted)
        return;
    auto req = t.source->next();
    if (!req) {
        t.exhausted = true;
        maybeFinish();
        return;
    }
    Tick at = std::max(req->issueAt, _engine.now());
    _engine.scheduleAbs(at, [this, q, r = *req] {
        if (_stopped) {
            _tenants[q].stats.recordDrop();
            return;
        }
        enqueue(q, r);
        scheduleArrival(q);
        arbitrate();
    });
}

void
NvmeHost::enqueue(unsigned q, const IoRequest &req)
{
    Tenant &t = _tenants[q];
    SqEntry e{req, _nextReqId++, _engine.now()};
    e.req.tenant = q;
#if DSSD_TRACING
    if (Tracer *tr = _engine.tracer()) {
        int pid = tr->process("host");
        tr->asyncBegin(pid, "qwait", t.name.c_str(), e.spanId,
                       e.enqueued);
    }
#endif
    t.queue.push_back(e);
}

void
NvmeHost::arbitrate()
{
    // Submissions and completions can re-enter (a device that
    // completes synchronously); fold re-entrant calls into the
    // outermost loop instead of nesting.
    if (_arbitrating) {
        _arbitrateAgain = true;
        return;
    }
    _arbitrating = true;
    do {
        _arbitrateAgain = false;
        arbitrateOnce();
    } while (_arbitrateAgain);
    _arbitrating = false;
    maybeFinish();
}

void
NvmeHost::arbitrateOnce()
{
    Tick now = _engine.now();
    while (_deviceOutstanding < _deviceDepth) {
        bool token_blocked = false;
        Tick earliest = maxTick;
        for (unsigned q = 0; q < tenantCount(); ++q) {
            Tenant &t = _tenants[q];
            ArbiterQueueState st;
            if (!t.queue.empty() &&
                t.inflight < t.params.queueDepth) {
                std::uint64_t bytes = t.queue.front().req.bytes;
                if (t.bucket.admits(now, bytes)) {
                    st.eligible = true;
                    st.headBytes = bytes;
                } else {
                    token_blocked = true;
                    earliest = std::min(
                        earliest, t.bucket.nextAdmitTime(now, bytes));
                }
            }
            _states[q] = st;
        }
        int pick = _arbiter.pick(_states);
        if (pick < 0) {
            if (token_blocked)
                scheduleTokenRetry(earliest);
            return;
        }
        submitHead(static_cast<unsigned>(pick));
    }
}

void
NvmeHost::submitHead(unsigned q)
{
    Tenant &t = _tenants[q];
    SqEntry e = t.queue.front();
    t.queue.pop_front();
    t.bucket.consume(e.req.bytes);
    ++t.inflight;
    ++_deviceOutstanding;
    Tick submit_time = _engine.now();
#if DSSD_TRACING
    if (Tracer *tr = _engine.tracer()) {
        int pid = tr->process("host");
        tr->asyncEnd(pid, "qwait", t.name.c_str(), e.spanId,
                     submit_time);
        tr->asyncBegin(pid, "io", e.req.isRead() ? "read" : "write",
                       e.spanId, submit_time);
    }
#endif
    // Latency is end-to-end from SQ entry, not from device submit:
    // under open-loop overload the queue wait IS the latency story.
    // (Closed-loop with free device slots enqueues and submits at the
    // same tick, so there it is the device latency alone.)
    _submit(e.req, [this, q, r = e.req, enq = e.enqueued,
                    id = e.spanId] {
        Tick now = _engine.now();
        Tick lat = now - enq;
        _ioBytes.add(now, static_cast<double>(r.bytes));
        Tenant &t2 = _tenants[q];
        t2.stats.recordCompletion(r, now, lat);
#if DSSD_TRACING
        if (Tracer *tr = _engine.tracer()) {
            int pid = tr->process("host");
            tr->asyncEnd(pid, "io", r.isRead() ? "read" : "write", id,
                         now);
        }
#endif
        ++_completed;
        --_deviceOutstanding;
        --t2.inflight;
        if (!t2.openLoop)
            pumpTenant(q);
        arbitrate();
    });
}

void
NvmeHost::scheduleTokenRetry(Tick at)
{
    // One pending retry at a time; only replace it with an earlier
    // one. A superseded event recognises itself by the mismatched
    // timestamp and does nothing.
    if (_retryAt != 0 && _retryAt <= at)
        return;
    _retryAt = at;
    _engine.scheduleAbs(at, [this, at] {
        if (_retryAt != at)
            return;
        _retryAt = 0;
        arbitrate();
    });
}

void
NvmeHost::maybeFinish()
{
    if (_finished)
        return;
    if (!_stopped) {
        for (const Tenant &t : _tenants) {
            if (!t.exhausted)
                return;
        }
    }
    for (const Tenant &t : _tenants) {
        if (!t.queue.empty() || t.held != 0)
            return;
    }
    if (_deviceOutstanding != 0)
        return;
    _finished = true;
    if (_onFinished)
        _onFinished();
}

SampleStat
NvmeHost::readLatency() const
{
    SampleStat read("read-latency");
    for (const Tenant &t : _tenants)
        read.merge(t.stats.readLatency());
    return read;
}

SampleStat
NvmeHost::writeLatency() const
{
    SampleStat write("write-latency");
    for (const Tenant &t : _tenants)
        write.merge(t.stats.writeLatency());
    return write;
}

SampleStat
NvmeHost::allLatency() const
{
    SampleStat all("io-latency");
    for (const Tenant &t : _tenants) {
        all.merge(t.stats.readLatency());
        all.merge(t.stats.writeLatency());
    }
    return all;
}

const TenantStats &
NvmeHost::tenantStats(unsigned tenant) const
{
    if (tenant >= tenantCount())
        fatal("no tenant %u", tenant);
    return _tenants[tenant].stats;
}

const TenantParams &
NvmeHost::tenantParams(unsigned tenant) const
{
    if (tenant >= tenantCount())
        fatal("no tenant %u", tenant);
    return _tenants[tenant].params;
}

std::size_t
NvmeHost::tenantQueued(unsigned tenant) const
{
    if (tenant >= tenantCount())
        fatal("no tenant %u", tenant);
    return _tenants[tenant].queue.size();
}

void
NvmeHost::registerStats(StatRegistry &reg,
                        const std::string &prefix) const
{
    reg.addScalar(prefix + ".completed", [this] {
        return static_cast<double>(_completed);
    });
    reg.addScalar(prefix + ".outstanding", [this] {
        return static_cast<double>(_deviceOutstanding);
    });
    reg.addSample(prefix + ".latency.read", [this] { return readLatency(); });
    reg.addSample(prefix + ".latency.write",
                  [this] { return writeLatency(); });
    reg.addSample(prefix + ".latency.all", [this] { return allLatency(); });
    reg.addRate(prefix + ".io_bytes", &_ioBytes);
    for (unsigned q = 0; q < tenantCount(); ++q) {
        const Tenant &t = _tenants[q];
        std::string tp = strformat("%s.tenant.%u", prefix.c_str(), q);
        t.stats.registerStats(reg, tp);
        reg.addScalar(tp + ".queued", [this, q] {
            return static_cast<double>(_tenants[q].queue.size());
        });
        reg.addScalar(tp + ".inflight", [this, q] {
            return static_cast<double>(_tenants[q].inflight);
        });
    }
}

} // namespace dssd
