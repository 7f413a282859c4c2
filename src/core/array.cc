#include "core/array.hh"

#include <algorithm>
#include <utility>

#include "core/gc.hh"
#include "sim/audit.hh"
#include "sim/log.hh"
#include "sim/registry.hh"
#include "sim/trace.hh"

namespace dssd
{

SsdArray::SsdArray(Engine &engine, const SsdConfig &config,
                   const SsdArrayParams &params)
    : _engine(engine), _params(params)
{
    if (_params.shards == 0)
        fatal("SsdArray needs at least one shard");
    if (_params.parity) {
        if (_params.shards < 2)
            fatal("parity striping needs at least two shards");
        if (_params.sharding != ShardingKind::Modulo)
            fatal("parity striping requires Modulo sharding");
    }
    if (_params.engineThreads > 0) {
        // The firmware fan-out latency is the minimum host-to-shard
        // delay, so it is the group's conservative lookahead.
        _group = std::make_unique<EngineGroup>(engine, _params.shards,
                                               config.firmwareLatency);
    }
    _shards.reserve(_params.shards);
    for (unsigned s = 0; s < _params.shards; ++s) {
        SsdConfig cfg = config;
        cfg.seed = config.seed + s;
        if (_group) {
            // Shard tracks register at construction, so the shard
            // engine needs the host's tracer before its Ssd exists.
            _group->shardEngine(s).setTracer(engine.tracer());
        }
        Engine &shard_engine = _group ? _group->shardEngine(s) : engine;
        _shards.push_back(std::make_unique<Ssd>(shard_engine, cfg));
    }
    _lpnsPerShard = _shards.front()->mapping().lpnCount();
    if (_params.parity) {
        _dataVersion.assign(_lpnsPerShard, 0);
        _parityVersion.assign(_lpnsPerShard, 0);
    }
    // The scheduler exists whenever grant windows matter: for any
    // coordinating policy, and for parity (degraded reads key off the
    // grant state even under Uncoordinated's immediate grants). A
    // plain uncoordinated parity-off array keeps today's direct paths.
    if (_params.gc.policy != ArrayGcPolicy::Uncoordinated ||
        _params.parity) {
        installCoordination();
    }
}

SsdArray::~SsdArray() = default;

void
SsdArray::installCoordination()
{
    _gcSched = std::make_unique<ArrayGcScheduler>(
        _engine, _params.gc, _params.shards,
        [this](unsigned s) { deliverGrant(s); });
    for (unsigned s = 0; s < _params.shards; ++s) {
        // Both hooks run on the shard's engine; in group mode they
        // bounce to the host through the deterministic merge, in
        // legacy mode the shared engine *is* the host engine, so the
        // scheduler sees the same ticks either way.
        GcCoordinationHooks hooks;
        hooks.request = [this, s](std::uint32_t pressure) {
            if (_group) {
                _group->postToHost(s, [this, s, pressure] {
                    _gcSched->requestGrant(s, pressure);
                });
                return;
            }
            _gcSched->requestGrant(s, pressure);
        };
        hooks.release = [this, s](std::uint64_t copies,
                                  std::uint64_t erases) {
            if (_group) {
                _group->postToHost(s, [this, s, copies, erases] {
                    _gcSched->releaseGrant(s, copies, erases);
                });
                return;
            }
            _gcSched->releaseGrant(s, copies, erases);
        };
        _shards[s]->gc().setCoordination(std::move(hooks));
    }
}

void
SsdArray::deliverGrant(unsigned s)
{
    if (_group) {
        _group->postToShard(s, _group->lookahead(), [this, s] {
            _shards[s]->gc().grantCollection();
        });
        return;
    }
    // Legacy mode charges the same firmware latency the group pays
    // through postToShard, keeping the coordinated schedule identical
    // in both engine modes.
    _engine.schedule(config().firmwareLatency, [this, s] {
        _shards[s]->gc().grantCollection();
    });
}

Lpn
SsdArray::lpnCount() const
{
    if (_params.parity)
        return _lpnsPerShard * (_shards.size() - 1);
    return _lpnsPerShard * _shards.size();
}

unsigned
SsdArray::shardOf(Lpn lpn) const
{
    if (_params.parity) {
        // Stripe g puts its parity page on shard g % N; the stripe's
        // N-1 data positions map onto the remaining shards in index
        // order (skip the parity shard).
        std::size_t n = _shards.size();
        Lpn stripe = lpn / (n - 1);
        unsigned pos = static_cast<unsigned>(lpn % (n - 1));
        unsigned parity = static_cast<unsigned>(stripe % n);
        return pos >= parity ? pos + 1 : pos;
    }
    if (_params.sharding == ShardingKind::Modulo)
        return static_cast<unsigned>(lpn % _shards.size());
    return static_cast<unsigned>(lpn / _lpnsPerShard);
}

Lpn
SsdArray::localLpn(Lpn lpn) const
{
    if (_params.parity)
        return lpn / (_shards.size() - 1);
    if (_params.sharding == ShardingKind::Modulo)
        return lpn / _shards.size();
    return lpn % _lpnsPerShard;
}

Lpn
SsdArray::stripeOf(Lpn lpn) const
{
    if (_params.parity)
        return lpn / (_shards.size() - 1);
    return localLpn(lpn);
}

void
SsdArray::runUntil(Tick until)
{
    if (_group)
        _group->runUntil(until);
    else
        _engine.runUntil(until);
}

void
SsdArray::run()
{
    if (_group)
        _group->run();
    else
        _engine.run();
}

void
SsdArray::readPage(Lpn lpn, Callback done)
{
    if (_params.parity) {
        parityRead(lpn, std::move(done));
        return;
    }
    unsigned s = shardOf(lpn);
    Lpn local = localLpn(lpn);
    if (!_group) {
        _shards[s]->readPage(local, std::move(done));
        return;
    }
    _group->postToShard(
        s, config().firmwareLatency,
        [this, s, local, cb = std::move(done)] {
            _shards[s]->readPage(local, [this, s, cb] {
                _group->postToHost(s, cb);
            });
        });
}

void
SsdArray::writePage(Lpn lpn, Callback done)
{
    if (_params.parity) {
        parityWrite(lpn, std::move(done));
        return;
    }
    unsigned s = shardOf(lpn);
    Lpn local = localLpn(lpn);
    if (!_group) {
        _shards[s]->writePage(local, std::move(done));
        return;
    }
    _group->postToShard(
        s, config().firmwareLatency,
        [this, s, local, cb = std::move(done)] {
            _shards[s]->writePage(local, [this, s, cb] {
                _group->postToHost(s, cb);
            });
        });
}

void
SsdArray::dispatchRead(unsigned s, Lpn lpn, Callback done)
{
    if (_group) {
        _group->postToShard(
            s, _group->lookahead(),
            [this, s, lpn, cb = std::move(done)] {
                _shards[s]->readPage(lpn, [this, s, cb] {
                    _group->postToHost(s, cb);
                });
            });
        return;
    }
    // Charge the same firmware fan-out latency group mode pays, so
    // parity timing is identical in both engine modes.
    _engine.schedule(config().firmwareLatency,
                     [this, s, lpn, cb = std::move(done)] {
                         _shards[s]->readPage(lpn, cb);
                     });
}

void
SsdArray::dispatchWrite(unsigned s, Lpn lpn, Callback done)
{
    if (_group) {
        _group->postToShard(
            s, _group->lookahead(),
            [this, s, lpn, cb = std::move(done)] {
                _shards[s]->writePage(lpn, [this, s, cb] {
                    _group->postToHost(s, cb);
                });
            });
        return;
    }
    _engine.schedule(config().firmwareLatency,
                     [this, s, lpn, cb = std::move(done)] {
                         _shards[s]->writePage(lpn, cb);
                     });
}

void
SsdArray::parityRead(Lpn lpn, Callback done)
{
    unsigned s = shardOf(lpn);
    Lpn stripe = stripeOf(lpn);
    // Degraded read: while the data shard holds a GC grant, read the
    // stripe's N-1 peer pages (data siblings + parity) instead and
    // reconstruct. The grant state is host-owned, so the decision is
    // the same in both engine modes. The parity shard is never
    // the data shard, so reconstruction is always possible.
    if (!coordinated() || !_gcSched->granted(s)) {
        dispatchRead(s, stripe, std::move(done));
        return;
    }
    ++_degradedReads;
#if DSSD_TRACING
    Tracer *tr = _engine.tracer();
    int pid = 0;
    std::uint64_t span = 0;
    if (tr) {
        pid = tr->process("array");
        span = tr->nextSpanId();
        tr->asyncBegin(pid, "array-parity", "reconstruct", span,
                       _engine.now());
    }
#endif
    unsigned n = shardCount();
    auto remaining = std::make_shared<unsigned>(n - 1);
    Callback part = [this, remaining,
#if DSSD_TRACING
                     pid, span,
#endif
                     cb = std::move(done)] {
        if (--*remaining != 0)
            return;
#if DSSD_TRACING
        Tracer *tr = _engine.tracer();
        if (tr) {
            tr->asyncEnd(pid, "array-parity", "reconstruct", span,
                         _engine.now());
        }
#endif
        cb();
    };
    for (unsigned q = 0; q < n; ++q) {
        if (q == s)
            continue;
        ++_reconReads;
        dispatchRead(q, stripe, part);
    }
}

void
SsdArray::parityWrite(Lpn lpn, Callback done)
{
    unsigned s = shardOf(lpn);
    Lpn stripe = stripeOf(lpn);
    unsigned p = parityShardOf(stripe);
    ++_dataVersion[stripe];
    ++_parityInFlight;
    ++_parityWrites;
    // A parity-protected write completes only when both the data page
    // and the read-modify-written parity page land.
    auto remaining = std::make_shared<unsigned>(2);
    Callback both = [remaining, cb = std::move(done)] {
        if (--*remaining == 0)
            cb();
    };
    dispatchWrite(s, stripe, both);
    dispatchWrite(p, stripe, [this, stripe, both] {
        ++_parityVersion[stripe];
        --_parityInFlight;
        both();
    });
}

void
SsdArray::prefill(double fill_fraction, double invalid_fraction)
{
    for (auto &s : _shards)
        s->prefill(fill_fraction, invalid_fraction);
}

void
SsdArray::submit(const IoRequest &req, Callback done)
{
    std::uint64_t page = config().geom.pageBytes;
    Lpn first = req.offset / page;
    std::uint64_t end = req.offset + std::max<std::uint64_t>(req.bytes, 1);
    std::uint64_t pages = (end + page - 1) / page - first;
    Lpn total = lpnCount();

    // A request past the end of the array is a caller bug: refuse it
    // loudly (same contract as the single-device trace validation in
    // workload/generator.cc) instead of silently aliasing the excess
    // pages onto low LPNs.
    if (first >= total || pages > total - first) {
        fatal("array request [%llu, %llu) extends beyond the "
              "%llu-page array (offset %llu, %llu bytes)",
              static_cast<unsigned long long>(first),
              static_cast<unsigned long long>(first + pages),
              static_cast<unsigned long long>(total),
              static_cast<unsigned long long>(req.offset),
              static_cast<unsigned long long>(req.bytes));
    }

    // `remaining` is only ever decremented on the host side: in group
    // mode every per-page completion comes back through postToHost and
    // runs as a host-engine event, so no atomics are needed and the
    // countdown order is the deterministic merge order.
    auto remaining = std::make_shared<std::uint64_t>(pages);
    Callback page_done = [remaining, cb = std::move(done)] {
        if (--*remaining == 0)
            cb();
    };

    // Parity mode dispatches page by page: each write fans out to its
    // data + parity shard, and each read may fan out to the N-1 peers
    // when its data shard is mid-collection.
    if (_params.parity) {
        for (std::uint64_t i = 0; i < pages; ++i) {
            Lpn lpn = first + i;
            if (req.isRead())
                parityRead(lpn, page_done);
            else
                parityWrite(lpn, page_done);
        }
        return;
    }

    // Split the request's pages by owning shard; each shard then
    // behaves exactly like a standalone device handling its slice
    // (its own per-request firmware charge included).
    std::vector<std::vector<Lpn>> split(_shards.size());
    for (std::uint64_t i = 0; i < pages; ++i) {
        Lpn lpn = first + i;
        split[shardOf(lpn)].push_back(localLpn(lpn));
    }

    Tick fw = config().firmwareLatency;
    for (unsigned s = 0; s < _shards.size(); ++s) {
        if (split[s].empty())
            continue;
        auto batch =
            std::make_shared<std::vector<Lpn>>(std::move(split[s]));
        if (_group) {
            _group->postToShard(s, fw, [this, s, batch, page_done,
                                        is_read = req.isRead()] {
                Callback local_done = [this, s, page_done] {
                    _group->postToHost(s, page_done);
                };
                for (Lpn lpn : *batch) {
                    if (is_read)
                        _shards[s]->readPage(lpn, local_done);
                    else
                        _shards[s]->writePage(lpn, local_done);
                }
            });
            continue;
        }
        _engine.schedule(fw, [this, s, batch, page_done,
                              is_read = req.isRead()] {
            for (Lpn lpn : *batch) {
                if (is_read)
                    _shards[s]->readPage(lpn, page_done);
                else
                    _shards[s]->writePage(lpn, page_done);
            }
        });
    }
}

void
SsdArray::forceAllGc(unsigned victims_per_unit, Callback done)
{
    auto remaining = std::make_shared<unsigned>(
        static_cast<unsigned>(_shards.size()));
    Callback shard_done = [remaining, cb = std::move(done)] {
        if (--*remaining == 0)
            cb();
    };
    if (_group) {
        // Like host I/O, the kick must cross into the shard domains:
        // charge the lookahead and bring completions home through the
        // deterministic merge.
        for (unsigned s = 0; s < _shards.size(); ++s) {
            _group->postToShard(
                s, _group->lookahead(),
                [this, s, victims_per_unit, shard_done] {
                    _shards[s]->gc().forceAll(
                        victims_per_unit, [this, s, shard_done] {
                            _group->postToHost(s, shard_done);
                        });
                });
        }
        return;
    }
    for (unsigned s = 0; s < _shards.size(); ++s) {
        if (coordinated()) {
            // Mirror group mode's postToShard charge so a coordinated
            // array's forced rounds land at the same ticks in both
            // engine modes.
            _engine.schedule(config().firmwareLatency,
                             [this, s, victims_per_unit, shard_done] {
                                 _shards[s]->gc().forceAll(
                                     victims_per_unit, shard_done);
                             });
            continue;
        }
        _shards[s]->gc().forceAll(victims_per_unit, shard_done);
    }
}

std::uint64_t
SsdArray::hostReads() const
{
    std::uint64_t n = 0;
    for (const auto &s : _shards)
        n += s->hostReads();
    return n;
}

std::uint64_t
SsdArray::hostWrites() const
{
    std::uint64_t n = 0;
    for (const auto &s : _shards)
        n += s->hostWrites();
    return n;
}

std::uint64_t
SsdArray::flushedPages() const
{
    std::uint64_t n = 0;
    for (const auto &s : _shards)
        n += s->flushedPages();
    return n;
}

unsigned
SsdArray::ioOutstanding() const
{
    unsigned n = 0;
    for (const auto &s : _shards)
        n += s->ioOutstanding();
    return n;
}

std::uint64_t
SsdArray::gcPagesMoved() const
{
    std::uint64_t n = 0;
    for (const auto &s : _shards)
        n += s->gc().pagesMoved();
    return n;
}

Tick
SsdArray::gcFirstStart() const
{
    Tick t = maxTick;
    for (const auto &s : _shards)
        t = std::min(t, s->gc().firstGcStart());
    return t;
}

Tick
SsdArray::gcLastEnd() const
{
    Tick t = 0;
    for (const auto &s : _shards)
        t = std::max(t, s->gc().lastGcEnd());
    return t;
}

BreakdownStats
SsdArray::ioBreakdown() const
{
    BreakdownStats agg;
    for (const auto &s : _shards) {
        agg.sum += s->ioBreakdown().sum;
        agg.count += s->ioBreakdown().count;
    }
    return agg;
}

BreakdownStats
SsdArray::copybackBreakdown() const
{
    BreakdownStats agg;
    for (const auto &s : _shards) {
        agg.sum += s->copybackBreakdown().sum;
        agg.count += s->copybackBreakdown().count;
    }
    return agg;
}

void
SsdArray::registerStats(StatRegistry &reg,
                        const std::string &prefix) const
{
    reg.addScalar(prefix + ".host.reads", [this] {
        return static_cast<double>(hostReads());
    });
    reg.addScalar(prefix + ".host.writes", [this] {
        return static_cast<double>(hostWrites());
    });
    reg.addScalar(prefix + ".host.flushed_pages", [this] {
        return static_cast<double>(flushedPages());
    });
    reg.addScalar(prefix + ".host.outstanding", [this] {
        return static_cast<double>(ioOutstanding());
    });
    reg.addScalar(prefix + ".shards", [this] {
        return static_cast<double>(_shards.size());
    });
    if (_gcSched)
        _gcSched->registerStats(reg, prefix + ".array.gc");
    if (_params.parity) {
        reg.addScalar(prefix + ".array.parity.degraded_reads", [this] {
            return static_cast<double>(_degradedReads);
        });
        reg.addScalar(prefix + ".array.parity.reconstruction_reads",
                      [this] {
                          return static_cast<double>(_reconReads);
                      });
        reg.addScalar(prefix + ".array.parity.parity_writes", [this] {
            return static_cast<double>(_parityWrites);
        });
        // Bandwidth the redundancy layer steals from the host: every
        // parity update is one extra page program.
        reg.addScalar(prefix + ".array.parity.stolen_bytes", [this] {
            return static_cast<double>(_parityWrites) *
                   static_cast<double>(config().geom.pageBytes);
        });
        reg.addScalar(prefix + ".array.parity.in_flight", [this] {
            return static_cast<double>(_parityInFlight);
        });
    }
    if (_group)
        _group->registerStats(reg, prefix + ".group");
    for (std::size_t s = 0; s < _shards.size(); ++s) {
        _shards[s]->registerStats(reg,
                                  prefix + strformat(".shard%zu", s));
    }
}

void
SsdArray::registerAudits(Auditor &auditor)
{
    for (std::size_t s = 0; s < _shards.size(); ++s)
        _shards[s]->registerAudits(auditor, strformat("shard%zu.", s));
    if (!_params.parity)
        return;
    // Parity-group consistency: every data write bumps its stripe's
    // data version at issue and the parity version when the update
    // lands, so per stripe the parity version never runs ahead and
    // the total lag equals the in-flight parity updates.
    auditor.addCheck("array.parity", [this](AuditReport &r) {
        std::uint64_t lag = 0;
        for (Lpn g = 0; g < _lpnsPerShard; ++g) {
            if (_parityVersion[g] > _dataVersion[g]) {
                r.fail("stripe %llu: parity version %u ahead of data "
                       "version %u",
                       static_cast<unsigned long long>(g),
                       _parityVersion[g], _dataVersion[g]);
                continue;
            }
            lag += _dataVersion[g] - _parityVersion[g];
        }
        if (lag != _parityInFlight) {
            r.fail("parity-group lag %llu != %llu in-flight parity "
                   "updates",
                   static_cast<unsigned long long>(lag),
                   static_cast<unsigned long long>(_parityInFlight));
        }
    });
}

} // namespace dssd
