#include "sim/trace.hh"

#include <cstdarg>

#include "sim/log.hh"

namespace dssd
{

namespace
{

/** Ticks (ns) to the trace_event microsecond timebase. */
double
toUs(Tick t)
{
    return static_cast<double>(t) / 1000.0;
}

} // namespace

Tracer::Tracer(const std::string &path)
{
    _file = std::fopen(path.c_str(), "w");
    if (!_file)
        fatal("cannot open trace file '%s' for writing", path.c_str());
    std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", _file);
}

Tracer::~Tracer()
{
    finish();
}

void
Tracer::emit(const char *fmt, ...)
{
    if (!_file)
        panic("trace emission after finish()");
    std::fputs(_first ? "\n" : ",\n", _file);
    _first = false;
    std::va_list args;
    va_start(args, fmt);
    std::vfprintf(_file, fmt, args);
    va_end(args);
    ++_events;
}

int
Tracer::process(const std::string &name)
{
    auto it = _pids.find(name);
    if (it != _pids.end())
        return it->second;
    int pid = _nextPid++;
    _pids.emplace(name, pid);
    emit("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%d,\"tid\":0,"
         "\"args\":{\"name\":\"%s\"}}",
         pid, name.c_str());
    return pid;
}

int
Tracer::lane(int pid, const std::string &name)
{
    auto key = std::make_pair(pid, name);
    auto it = _lanes.find(key);
    if (it != _lanes.end())
        return it->second;
    int tid = ++_nextTid[pid];
    _lanes.emplace(key, tid);
    emit("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":%d,\"tid\":%d,"
         "\"args\":{\"name\":\"%s\"}}",
         pid, tid, name.c_str());
    return tid;
}

void
Tracer::slice(int pid, int tid, const char *name, const char *cat,
              Tick start, Tick end)
{
    emit("{\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"name\":\"%s\","
         "\"cat\":\"%s\",\"ts\":%.3f,\"dur\":%.3f}",
         pid, tid, name, cat, toUs(start),
         toUs(end >= start ? end - start : 0));
}

void
Tracer::asyncBegin(int pid, const char *cat, const char *name,
                   std::uint64_t id, Tick when)
{
    emit("{\"ph\":\"b\",\"pid\":%d,\"tid\":0,\"name\":\"%s\","
         "\"cat\":\"%s\",\"id\":\"0x%llx\",\"ts\":%.3f}",
         pid, name, cat, static_cast<unsigned long long>(id),
         toUs(when));
}

void
Tracer::asyncEnd(int pid, const char *cat, const char *name,
                 std::uint64_t id, Tick when)
{
    emit("{\"ph\":\"e\",\"pid\":%d,\"tid\":0,\"name\":\"%s\","
         "\"cat\":\"%s\",\"id\":\"0x%llx\",\"ts\":%.3f}",
         pid, name, cat, static_cast<unsigned long long>(id),
         toUs(when));
}

void
Tracer::counter(int pid, const char *name, Tick when, double value)
{
    emit("{\"ph\":\"C\",\"pid\":%d,\"tid\":0,\"name\":\"%s\","
         "\"ts\":%.3f,\"args\":{\"value\":%.17g}}",
         pid, name, toUs(when), value);
}

void
Tracer::finish()
{
    if (!_file)
        return;
    std::fputs("\n]}\n", _file);
    std::fclose(_file);
    _file = nullptr;
}

} // namespace dssd
