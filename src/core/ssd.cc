#include "core/ssd.hh"

#include <cstdlib>
#include <memory>
#include <utility>

#include "core/gc.hh"
#include "sim/log.hh"
#include "sim/registry.hh"
#include "sim/trace.hh"

namespace dssd
{

LatencyBreakdown
BreakdownStats::mean() const
{
    LatencyBreakdown m;
    if (count == 0)
        return m;
    m.flashMem = sum.flashMem / count;
    m.flashBus = sum.flashBus / count;
    m.systemBus = sum.systemBus / count;
    m.dram = sum.dram / count;
    m.ecc = sum.ecc / count;
    m.noc = sum.noc / count;
    m.other = sum.other / count;
    return m;
}

Ssd::Ssd(Engine &engine, const SsdConfig &config)
    : _engine(engine), _config(config), _rng(config.seed),
      _bufferWaits(engine, "buffered host write",
                   [this] {
                       return strformat(
                           "write buffer %llu/%llu pages, %u flushes in "
                           "flight",
                           static_cast<unsigned long long>(
                               _writeBuffer->occupancy()),
                           static_cast<unsigned long long>(
                               _writeBuffer->capacity()),
                           _flush->inFlight());
                   }),
      _spaceWaits(engine, "direct host write",
                  [this] { return spaceState(); })
{
    _config.geom.validate();

    _busRecorder =
        std::make_unique<UtilizationRecorder>(_config.statWindow);
    _systemBus = std::make_unique<SystemBus>(
        engine, _config.effectiveSystemBusBandwidth());
    _systemBus->attachRecorder(_busRecorder.get());
    _dram = std::make_unique<Dram>(engine, _config.dramBandwidth);

    _channels.reserve(_config.geom.channels);
    for (unsigned ch = 0; ch < _config.geom.channels; ++ch) {
        _channels.push_back(std::make_unique<FlashChannel>(
            engine, _config.geom, _config.timing, ch, _config.channel));
    }

    _datapath = makeDatapath(
        DatapathEnv{engine, _config, _channels, *_systemBus, *_dram});

    MappingParams mp;
    mp.geom = _config.geom;
    mp.overProvision = _config.overProvision;
    mp.gcFreeBlockThreshold = _config.gcFreeBlockThreshold;
    mp.gcFreeBlockTarget = _config.gcFreeBlockTarget;
    mp.victimPolicy = _config.gc.victimPolicy;
    mp.allocPolicy = _config.gc.allocPolicy;
    mp.victimWindow = _config.gc.victimWindow;
    _mapping = std::make_unique<PageMapping>(mp);

    _writeBuffer = std::make_unique<WriteBuffer>(_config.writeBuffer);
    _gc = std::make_unique<GcEngine>(*this, _config.gc);
    // The conflict-aware allocator asks the mapping whether a unit is
    // GC-busy; round activity is known only up here, so inject it.
    _mapping->setGcBusyProbe(
        [this](std::uint32_t unit) { return _gc->unitActive(unit); });

    _flush = std::make_unique<FlushEngine>(
        engine, *_mapping, *_writeBuffer, _config.flushInFlight,
        [this](const PhysAddr &addr) { return _datapath->resolve(addr); },
        [this](const PhysAddr &target, Callback done) {
            // Write-back: DRAM read -> system bus -> flash program.
            std::uint64_t page = _config.geom.pageBytes;
            _dram->port().transfer(page, tagIo,
                                   [this, page, target,
                                    done = std::move(done)]() mutable {
                _systemBus->channel().transfer(page, tagIo,
                                               [this, target,
                                                done = std::move(done)]()
                                                   mutable {
                    _channels[target.channel]->program(target, 1, tagIo,
                                                       std::move(done));
                });
            });
        },
        [this](std::uint32_t unit) { _gc->noteAllocation(unit); },
        [this] { return spaceState(); });

    if (_config.fault.enabled) {
        _fault =
            std::make_unique<FaultModel>(_config.geom, _config.fault);

        RecoveryEngine::Routes routes;
        routes.copyPage = [this](const PhysAddr &src, const PhysAddr &dst,
                                 Callback done) {
            gcCopyPage(src, dst, std::move(done));
        };
        routes.unremap = [this](const PhysAddr &addr) {
            return _datapath->unresolve(addr);
        };
        routes.channelRead = [this](const PhysAddr &addr, int tag,
                                    LatencyBreakdown *bd, Callback done) {
            _channels[addr.channel]->read(addr, 1, tag, std::move(done),
                                          bd);
        };
        routes.softDecode = [this](unsigned ch, std::uint64_t bytes,
                                   int tag, Callback done) {
            _datapath->eccFor(ch).processSoft(bytes, tag,
                                              std::move(done));
        };
        routes.channelProgram = [this](const PhysAddr &addr, int tag,
                                       LatencyBreakdown *bd,
                                       Callback done) {
            _channels[addr.channel]->program(addr, 1, tag,
                                             std::move(done), bd);
        };
        routes.spaceState = [this] { return spaceState(); };
        if (isDecoupled(_config.arch)) {
            routes.hardwareRepair = [this](const PhysAddr &addr) {
                return _datapath->tryHardwareRepair(addr, *_recovery);
            };
        }
        _recovery = std::make_unique<RecoveryEngine>(
            engine, _config.geom, *_mapping, *_systemBus, *_dram,
            _config.gcFirmwareLatency, std::move(routes));

        _fault->setSink([this](const PhysAddr &a, FaultKind k) {
            _recovery->onBlockFault(a, k);
        });
        for (auto &ch : _channels)
            ch->setFaultModel(_fault.get());
        _datapath->attachFaults(_fault.get(), _recovery.get());

        // Pre-seed each decoupled controller's RBT with spare blocks
        // pulled out of FTL visibility, so runtime hardware repair has
        // material to work with (the RESERV idea applied to bad-block
        // management).
        _datapath->seedRbtSpares(*_mapping);
    }

#ifdef DSSD_AUDIT
    // Debug-gated invariant auditing: cross-check the model every N
    // executed events and abort on the first violation. The interval
    // trades detection latency against audit cost (each run walks the
    // whole mapping).
    _auditor = std::make_unique<Auditor>(AuditMode::Abort);
    registerAudits(*_auditor);
    std::uint64_t every = 65536;
    // Read-only env probe at construction; nothing in the simulator
    // calls setenv, so the mt-unsafe concern does not apply.
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    if (const char *env = std::getenv("DSSD_AUDIT_EVERY"))
        every = std::strtoull(env, nullptr, 10);
    if (every != 0)
        _auditor->attach(_engine, every);
#endif
}

Ssd::~Ssd() = default;

void
Ssd::registerAudits(Auditor &auditor, const std::string &prefix)
{
    auditor.addCheck(prefix + "ftl.mapping", [this](AuditReport &r) {
        _mapping->audit(r);
    });
    auditor.addCheck(prefix + "ftl.writebuffer", [this](AuditReport &r) {
        _writeBuffer->audit(r);
    });
    _datapath->registerAudits(auditor, prefix);
}

void
Ssd::registerStats(StatRegistry &reg, const std::string &prefix) const
{
    reg.addScalar(prefix + ".host.reads", [this] {
        return static_cast<double>(_hostReads);
    });
    reg.addScalar(prefix + ".host.writes", [this] {
        return static_cast<double>(_hostWritesOps);
    });
    reg.addScalar(prefix + ".host.flushed_pages", [this] {
        return static_cast<double>(_flush->flushedPages());
    });
    reg.addScalar(prefix + ".host.outstanding", [this] {
        return static_cast<double>(_ioOutstanding);
    });

    _writeBuffer->registerStats(reg, prefix + ".wbuf");
    _systemBus->registerStats(reg, prefix + ".sysbus");
    _dram->registerStats(reg, prefix + ".dram");

    for (std::size_t ch = 0; ch < _channels.size(); ++ch) {
        std::string chp = prefix + strformat(".ch%zu", ch);
        _channels[ch]->registerStats(reg, chp);
        _datapath->registerChannelStats(reg, chp,
                                        static_cast<unsigned>(ch));
    }

    _gc->registerStats(reg, prefix + ".gc");
    _datapath->registerStats(reg, prefix);

    // Policy-tagged counters appear only under a non-default policy
    // configuration, keeping the default --stats output byte-identical
    // with pre-policy-seam builds.
    if (_config.gc.victimPolicy != "greedy" ||
        _config.gc.allocPolicy != "rr" || _config.gc.preemptible) {
        _mapping->registerPolicyStats(reg, prefix + ".ftl.policy");
    }

    if (_fault) {
        _fault->registerStats(reg, prefix + ".fault");
        reg.addScalar(prefix + ".fault.repairs", [this] {
            return static_cast<double>(_recovery->blocksRepaired());
        });
        reg.addScalar(prefix + ".fault.retirements", [this] {
            return static_cast<double>(_recovery->blocksRetired());
        });
        reg.addScalar(prefix + ".fault.repair_pages", [this] {
            return static_cast<double>(_recovery->repairPagesCopied());
        });
        reg.addScalar(prefix + ".fault.retire_pages", [this] {
            return static_cast<double>(_recovery->retirePagesCopied());
        });
        reg.addScalar(prefix + ".fault.copyback_fallbacks", [this] {
            return static_cast<double>(_recovery->copybackFallbacks());
        });
        reg.addScalar(prefix + ".fault.remaps", [this] {
            return static_cast<double>(_recovery->remapEvents());
        });
    }
}

std::string
Ssd::spaceState() const
{
    std::uint64_t free_blocks = 0;
    for (std::uint32_t u = 0; u < _mapping->unitCount(); ++u)
        free_blocks += _mapping->freeBlockCount(u);
    return strformat("%llu free blocks in %u units, %u GC units active",
                     static_cast<unsigned long long>(free_blocks),
                     _mapping->unitCount(), _gc->activeUnits());
}

FlashChannel &
Ssd::channel(unsigned ch)
{
    if (ch >= _channels.size())
        panic("channel %u out of range", ch);
    return *_channels[ch];
}

unsigned
Ssd::channelCount() const
{
    return static_cast<unsigned>(_channels.size());
}

void
Ssd::prefill(double fill_fraction, double invalid_fraction)
{
    _mapping->prefill(fill_fraction, invalid_fraction, _rng);
}

void
Ssd::submit(const IoRequest &req, Callback done)
{
    std::uint64_t page = _config.geom.pageBytes;
    Lpn first = req.offset / page;
    std::uint64_t end = req.offset + std::max<std::uint64_t>(req.bytes, 1);
    std::uint64_t pages = (end + page - 1) / page - first;
    Lpn lpn_count = _mapping->lpnCount();

    auto remaining = std::make_shared<std::uint64_t>(pages);
    auto page_done = [remaining, cb = std::move(done)] {
        if (--*remaining == 0)
            cb();
    };

    // Firmware (FTL request handling) is charged once per request.
    _engine.schedule(_config.firmwareLatency,
                     [this, req, first, pages, lpn_count, page_done] {
        for (std::uint64_t i = 0; i < pages; ++i) {
            Lpn lpn = (first + i) % lpn_count;
            if (req.isRead())
                readPage(lpn, page_done);
            else
                writePage(lpn, page_done);
        }
    });
}

void
Ssd::readPage(Lpn lpn, Callback done)
{
    ++_ioOutstanding;
    ++_hostReads;
    readPageInternal(lpn, std::move(done));
}

void
Ssd::writePage(Lpn lpn, Callback done)
{
    ++_ioOutstanding;
    ++_hostWritesOps;
    writePageInternal(lpn, std::move(done));
}

void
Ssd::readPageInternal(Lpn lpn, Callback done)
{
    auto bd = makePooled<LatencyBreakdown>(_bdPool);
    auto finish = [this, bd, cb = std::move(done)] {
        _ioBreakdown.add(*bd);
        --_ioOutstanding;
        cb();
    };

    std::uint64_t page = _config.geom.pageBytes;
    bool hit = _writeBuffer->readHit(lpn);
    _writeBuffer->recordProbe(hit);

    if (hit) {
        // Buffer-cache hit: DRAM port then system bus, no flash.
        Tick t0 = _engine.now();
        _dram->port().transfer(page, tagIo, [this, page, bd, t0, finish] {
            bdSpanClose(_engine, bd.get(), bdDram, t0);
            Tick t1 = _engine.now();
            _systemBus->channel().transfer(page, tagIo,
                                           [this, bd, t1, finish] {
                bdSpanClose(_engine, bd.get(), bdSystemBus, t1);
                finish();
            });
        });
        return;
    }

    auto ppn = _mapping->translate(lpn);
    if (!ppn) {
        // Unwritten logical page: served as zeroes by the firmware.
        _engine.schedule(0, finish);
        return;
    }
    PhysAddr addr = resolve(_config.geom.pageAddr(*ppn));
    _datapath->hostReadMiss(addr, bd, std::move(finish));
}

void
Ssd::writePageInternal(Lpn lpn, Callback done)
{
    auto bd = makePooled<LatencyBreakdown>(_bdPool);
    auto finish = [this, bd, cb = std::move(done)] {
        _ioBreakdown.add(*bd);
        --_ioOutstanding;
        cb();
    };

    if (_writeBuffer->mode() != BufferMode::AlwaysMiss) {
        bufferedWrite(lpn, bd, std::move(finish));
        return;
    }

    // Direct (write-through) path: allocate, cross the bus, program.
    // Under heavy write bursts the free pool can be momentarily
    // exhausted; stall the write until GC reclaims a block (this is
    // exactly the blocking behind the paper's I/O-bandwidth dips).
    retryDirectWrite(lpn, bd, finish);
}

void
Ssd::bufferedWrite(Lpn lpn, std::shared_ptr<LatencyBreakdown> bd,
                   Callback finish)
{
    // Buffered write: host -> system bus -> DRAM, then ack. Flash
    // programs happen lazily in the flush path. When the buffer is
    // full the host write stalls until the flusher drains — write-
    // cache backpressure is what turns flash/GC slowness into
    // host-visible latency.
    if (_writeBuffer->mode() == BufferMode::Real &&
        _writeBuffer->occupancy() >= _writeBuffer->capacity() &&
        !_writeBuffer->readHit(lpn)) {
        bd->other += RetryQueue::kPeriod;
        _bufferWaits.park([this, lpn, bd = std::move(bd),
                           finish = std::move(finish)]() mutable {
            bufferedWrite(lpn, std::move(bd), std::move(finish));
        });
        _flush->maybeStart();
        return;
    }

    std::uint64_t page = _config.geom.pageBytes;
    Tick t0 = _engine.now();
    _systemBus->channel().transfer(page, tagIo,
                                   [this, lpn, page, bd, t0, finish] {
        bdSpanClose(_engine, bd.get(), bdSystemBus, t0);
        Tick t1 = _engine.now();
        _dram->port().transfer(page, tagIo, [this, lpn, bd, t1, finish] {
            bdSpanClose(_engine, bd.get(), bdDram, t1);
            _writeBuffer->insert(lpn);
            _flush->traceOccupancy();
            finish();
            _flush->maybeStart();
        });
    });
}

void
Ssd::retryDirectWrite(Lpn lpn, std::shared_ptr<LatencyBreakdown> bd,
                      Callback finish)
{
    if (!_mapping->hostCanAllocate()) {
        bd->other += RetryQueue::kPeriod;
        _spaceWaits.park([this, lpn, bd = std::move(bd),
                          finish = std::move(finish)]() mutable {
            retryDirectWrite(lpn, std::move(bd), std::move(finish));
        });
        return;
    }
    directWrite(lpn, bd, std::move(finish));
}

void
Ssd::directWrite(Lpn lpn, std::shared_ptr<LatencyBreakdown> bd,
                 Callback finish)
{
    std::uint64_t page = _config.geom.pageBytes;
    PhysAddr addr = _mapping->allocate(lpn);
    std::uint32_t unit = _mapping->unitOf(addr);
    PhysAddr target = resolve(addr);
    Tick t0 = _engine.now();
    _systemBus->channel().transfer(page, tagIo,
                                   [this, target, bd, t0,
                                    finish = std::move(finish)] {
        bdSpanClose(_engine, bd.get(), bdSystemBus, t0);
        _channels[target.channel]->program(target, 1, tagIo, finish,
                                           bd.get());
    });
    _gc->noteAllocation(unit);
}

void
Ssd::gcCopyPage(const PhysAddr &src, const PhysAddr &dst, Callback done)
{
    auto bd = makePooled<LatencyBreakdown>(_bdPool);
    auto finish = [this, bd, cb = std::move(done)] {
        _cbBreakdown.add(*bd);
        cb();
    };
    _datapath->copyPage(src, dst, tagGc, bd, std::move(finish));
}

void
Ssd::gcEraseBlock(std::uint32_t unit, std::uint32_t block, Callback done)
{
    PhysAddr addr = _mapping->unitBlockAddr(unit, block);
    PhysAddr target = resolve(addr);
    _channels[target.channel]->erase(target, tagGc, std::move(done));
}

} // namespace dssd
