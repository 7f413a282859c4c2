#include "noc/network.hh"

#include <algorithm>
#include <utility>

#include "fault/fault.hh"
#include "sim/audit.hh"
#include "sim/log.hh"
#include "sim/registry.hh"
#include "sim/trace.hh"

namespace dssd
{

/** Per-packet in-flight state. */
struct NocNetwork::Transit
{
    unsigned src = 0;
    unsigned dst = 0;
    std::uint64_t totalBytes = 0;
    int tag = tagGc;
    std::vector<unsigned> route;
    unsigned hop = 0;
    unsigned vc = 0;
    /// Buffer index (node*2+vc) currently held, or -1.
    int heldBuffer = -1;
    Tick injectTime = 0;
    /// Tail arrival time at the node reached by the last transmitted hop.
    Tick tailArrive = 0;
    /// Trace span id (Tracer::nextSpanId; 0 when tracing is off). Spans
    /// must match begin to end across the packet's lifetime, so the id
    /// lives here rather than being an object address — addresses would
    /// make the trace file differ run to run.
    std::uint64_t spanId = 0;
    Callback done;
};

NocNetwork::NocNetwork(Engine &engine, std::unique_ptr<Topology> topo,
                       const NocParams &params)
    : _engine(engine), _topo(std::move(topo)), _params(params)
{
    if (_params.linkBandwidth <= 0.0)
        fatal("NocNetwork: link bandwidth must be positive");
    _links.reserve(_topo->numLinks());
    for (unsigned l = 0; l < _topo->numLinks(); ++l) {
        _links.push_back(std::make_unique<BandwidthResource>(
            _engine, strformat("%s-link%u", _topo->name().c_str(), l),
            _params.linkBandwidth));
    }
    _buffers.reserve(static_cast<std::size_t>(_topo->numLinks()) * 2);
    for (unsigned l = 0; l < _topo->numLinks(); ++l) {
        for (unsigned vc = 0; vc < 2; ++vc) {
            _buffers.push_back(std::make_unique<SlotResource>(
                _engine, strformat("link%u-vc%u-buf", l, vc),
                _params.bufferPackets));
        }
    }
}

SlotResource &
NocNetwork::buffer(unsigned link, unsigned vc)
{
    return *_buffers[link * 2 + vc];
}

void
NocNetwork::tracePacketBegin(Transit &t)
{
#if DSSD_TRACING
    Tracer *tr = _engine.tracer();
    if (tr) {
        int pid = tr->process("noc");
        t.spanId = tr->nextSpanId();
        tr->asyncBegin(pid, "packet", "packet", t.spanId, t.injectTime);
    }
#endif
}

void
NocNetwork::tracePacketEnd(const Transit &t)
{
#if DSSD_TRACING
    Tracer *tr = _engine.tracer();
    if (tr) {
        int pid = tr->process("noc");
        tr->asyncEnd(pid, "packet", "packet", t.spanId, _engine.now());
    }
#endif
}

void
NocNetwork::send(unsigned src, unsigned dst, std::uint64_t bytes, int tag,
                 Callback done)
{
    if (src >= _topo->numNodes() || dst >= _topo->numNodes())
        panic("NocNetwork::send out of range: %u -> %u", src, dst);

    auto t = std::make_shared<Transit>();
    t->src = src;
    t->dst = dst;
    t->totalBytes = bytes + _params.headerBytes;
    t->tag = tag;
    t->route = _topo->route(src, dst);
    t->injectTime = _engine.now();
    t->done = std::move(done);
    ++_inFlight;
    ++_packetsInjected;
    tracePacketBegin(*t);

    if (t->route.empty()) {
        // Degenerate src == dst injection: loop through the local NI.
        Tick lat = _params.hopLatency;
        _engine.schedule(lat, [this, t] {
            _latency.sample(static_cast<double>(_engine.now() -
                                                t->injectTime));
            tracePacketEnd(*t);
            ++_packetsDelivered;
            _bytesDelivered += t->totalBytes;
            --_inFlight;
            t->done();
        });
        return;
    }

    advance(t);
}

void
NocNetwork::advance(const std::shared_ptr<Transit> &t)
{
    if (t->hop >= t->route.size())
        panic("advance past end of route");

    if (_topo->simultaneousLinks()) {
        // Crossbar: hold a credit at the destination's input port,
        // then occupy the source output port and destination input
        // port together.
        buffer(t->route[1], 0).acquire([this, t] { transmit(t); });
        return;
    }

    unsigned link_id = t->route[t->hop];
    unsigned vc = t->vc;
    if (_topo->datelineLink(link_id))
        vc = 1; // escape VC past the ring dateline
    buffer(link_id, vc).acquire([this, t, vc] {
        t->vc = vc;
        transmit(t);
    });
}

bool
NocNetwork::deliveryCorrupted()
{
    if (_forceCorrupt > 0) {
        --_forceCorrupt;
        return true;
    }
    return _fault && _fault->packetCorrupted();
}

void
NocNetwork::retransmit(const std::shared_ptr<Transit> &t)
{
    // CRC failure detected at the destination NI: the packet is
    // dropped there (its input-buffer credit was already released, so
    // credit accounting is untouched), a NACK/timeout elapses, and the
    // source injects a fresh copy along the same route. The packet
    // stays in flight until a good copy lands, preserving packet
    // conservation; its latency sample includes every retransmission.
    ++_crcDrops;
    ++_retransmitsPending;
    Tick nack = _fault ? _fault->params().nocNackDelay : usToTicks(2);
    std::uint64_t span_id = 0;
#if DSSD_TRACING
    Tracer *tr = _engine.tracer();
    if (tr) {
        int pid = tr->process("fault");
        span_id = tr->nextSpanId();
        tr->asyncBegin(pid, "fault", "retransmit", span_id,
                       _engine.now());
    }
#endif
    _engine.schedule(nack, [this, t, span_id] {
        (void)span_id;
#if DSSD_TRACING
        Tracer *etr = _engine.tracer();
        if (etr) {
            int pid = etr->process("fault");
            etr->asyncEnd(pid, "fault", "retransmit", span_id,
                          _engine.now());
        }
#endif
        --_retransmitsPending;
        ++_retransmits;
        t->hop = 0;
        t->vc = 0;
        t->heldBuffer = -1;
        advance(t);
    });
}

void
NocNetwork::transmit(const std::shared_ptr<Transit> &t)
{
    if (_topo->simultaneousLinks()) {
        BandwidthResource &out = *_links[t->route[0]];
        BandwidthResource &in = *_links[t->route[1]];
        Tick start = std::max({_engine.now(), out.busyUntil(),
                               in.busyUntil()});
        out.reserveFrom(start, t->totalBytes, t->tag);
        Tick end = in.reserveFrom(start, t->totalBytes, t->tag);
        Tick arrive = end + _params.hopLatency;
        int held = static_cast<int>(t->route[1] * 2);
        _engine.scheduleAbs(arrive, [this, t, held] {
            _buffers[static_cast<unsigned>(held)]->release();
            if (deliveryCorrupted()) {
                retransmit(t);
                return;
            }
            _latency.sample(static_cast<double>(_engine.now() -
                                                t->injectTime));
            tracePacketEnd(*t);
            ++_packetsDelivered;
            _bytesDelivered += t->totalBytes;
            --_inFlight;
            t->done();
        });
        return;
    }

    unsigned link_id = t->route[t->hop];
    BandwidthResource &link = *_links[link_id];

    Tick end = link.reserve(t->totalBytes, t->tag);
    Tick start = end - link.duration(t->totalBytes);
    Tick head_arrive = start + _params.hopLatency;
    Tick tail_arrive = end + _params.hopLatency;

    // The packet's tail leaves the upstream node once it has fully
    // serialized onto this link; free that node's input buffer then.
    if (t->heldBuffer >= 0) {
        unsigned held = static_cast<unsigned>(t->heldBuffer);
        _engine.scheduleAbs(end, [this, held] {
            _buffers[held]->release();
        });
    }
    t->heldBuffer = static_cast<int>(link_id * 2 + t->vc);
    t->tailArrive = tail_arrive;
    ++t->hop;

    if (t->hop == t->route.size()) {
        // Delivered once the tail reaches the destination router; the
        // NI then drains it into the dBUF and frees the input buffer.
        _engine.scheduleAbs(tail_arrive, [this, t] {
            unsigned held = static_cast<unsigned>(t->heldBuffer);
            _buffers[held]->release();
            if (deliveryCorrupted()) {
                retransmit(t);
                return;
            }
            _latency.sample(static_cast<double>(_engine.now() -
                                                t->injectTime));
            tracePacketEnd(*t);
            ++_packetsDelivered;
            _bytesDelivered += t->totalBytes;
            --_inFlight;
            t->done();
        });
    } else {
        // Cut-through: the next hop may begin once the head arrives.
        _engine.scheduleAbs(head_arrive, [this, t] { advance(t); });
    }
}

Tick
NocNetwork::totalBusyTicks() const
{
    Tick sum = 0;
    for (const auto &l : _links)
        sum += l->totalBusyTicks();
    return sum;
}

Tick
NocNetwork::linkBusyTicks(unsigned link) const
{
    if (link >= _links.size())
        return 0;
    return _links[link]->totalBusyTicks();
}

void
NocNetwork::audit(AuditReport &r) const
{
    // Packet conservation: every injected packet is either still in
    // the network or was delivered, never duplicated or dropped.
    if (_packetsInjected != _packetsDelivered + _inFlight) {
        r.fail("packet conservation: %llu injected != %llu delivered "
               "+ %llu in flight",
               static_cast<unsigned long long>(_packetsInjected),
               static_cast<unsigned long long>(_packetsDelivered),
               static_cast<unsigned long long>(_inFlight));
    }
    if (_bytesDelivered <
        _packetsDelivered * _params.headerBytes) {
        r.fail("delivered %llu bytes for %llu packets, below the "
               "header overhead alone",
               static_cast<unsigned long long>(_bytesDelivered),
               static_cast<unsigned long long>(_packetsDelivered));
    }

    // Retransmission accounting: every CRC drop is either already
    // retransmitted or waiting out its NACK delay, and an idle network
    // has nothing waiting.
    if (_crcDrops != _retransmits + _retransmitsPending) {
        r.fail("retransmit conservation: %llu CRC drops != %llu "
               "retransmits + %llu pending",
               static_cast<unsigned long long>(_crcDrops),
               static_cast<unsigned long long>(_retransmits),
               static_cast<unsigned long long>(_retransmitsPending));
    }
    if (_inFlight == 0 && _retransmitsPending != 0) {
        r.fail("retransmit leak: %llu NACKs pending with no packet in "
               "flight",
               static_cast<unsigned long long>(_retransmitsPending));
    }

    // Credit conservation at each router input buffer.
    for (const auto &buf : _buffers) {
        if (buf->freeSlots() > buf->capacity()) {
            r.fail("credit overflow: buffer %s reports %u free slots "
                   "of %u",
                   buf->name().c_str(), buf->freeSlots(),
                   buf->capacity());
        }
        if (_inFlight == 0 && buf->freeSlots() != buf->capacity()) {
            r.fail("credit leak: buffer %s holds %u credits with no "
                   "packet in flight",
                   buf->name().c_str(),
                   buf->capacity() - buf->freeSlots());
        }
    }
}

void
NocNetwork::debugDropCredit(unsigned link, unsigned vc)
{
    buffer(link, vc).tryAcquire();
}

void
NocNetwork::registerStats(StatRegistry &reg,
                          const std::string &prefix) const
{
    reg.addScalar(prefix + ".packets_injected", [this] {
        return static_cast<double>(_packetsInjected);
    });
    reg.addScalar(prefix + ".packets_delivered", [this] {
        return static_cast<double>(_packetsDelivered);
    });
    reg.addScalar(prefix + ".bytes_delivered", [this] {
        return static_cast<double>(_bytesDelivered);
    });
    reg.addScalar(prefix + ".crc_drops", [this] {
        return static_cast<double>(_crcDrops);
    });
    reg.addScalar(prefix + ".retransmits", [this] {
        return static_cast<double>(_retransmits);
    });
    reg.addSample(prefix + ".latency", &_latency);
    for (std::size_t l = 0; l < _links.size(); ++l)
        _links[l]->registerStats(reg, prefix + strformat(".link%zu", l));
    for (std::size_t b = 0; b < _buffers.size(); ++b) {
        _buffers[b]->registerStats(reg,
                                   prefix + "." + _buffers[b]->name());
    }
}

} // namespace dssd
