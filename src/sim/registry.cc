#include "sim/registry.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "sim/log.hh"

namespace dssd
{

namespace
{

/** JSON-number formatting that round-trips doubles and keeps
 *  integral values integral-looking. */
std::string
jsonNumber(double v)
{
    char buf[64];
    if (v == static_cast<double>(static_cast<long long>(v)) &&
        v >= -1e15 && v <= 1e15) {
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(v));
    } else {
        std::snprintf(buf, sizeof(buf), "%.17g", v);
    }
    return buf;
}

std::string
sampleJson(const SampleStat &s)
{
    return "{\"count\": " + jsonNumber(static_cast<double>(s.count())) +
           ", \"mean\": " + jsonNumber(s.mean()) +
           ", \"min\": " + jsonNumber(s.min()) +
           ", \"p50\": " + jsonNumber(s.percentile(50.0)) +
           ", \"p99\": " + jsonNumber(s.percentile(99.0)) +
           ", \"p999\": " + jsonNumber(s.percentile(99.9)) +
           ", \"max\": " + jsonNumber(s.max()) + "}";
}

} // namespace

void
StatRegistry::insert(Entry entry)
{
    if (entry.path.empty())
        fatal("StatRegistry: empty stat path");
    if (has(entry.path))
        fatal("StatRegistry: duplicate stat path '%s'",
              entry.path.c_str());
    _entries.push_back(std::move(entry));
}

void
StatRegistry::addCounter(const std::string &path, const Counter *c)
{
    Entry e;
    e.path = path;
    e.kind = Kind::CounterStat;
    e.counter = c;
    insert(std::move(e));
}

void
StatRegistry::addSample(const std::string &path, const SampleStat *s)
{
    Entry e;
    e.path = path;
    e.kind = Kind::Sample;
    e.sample = s;
    insert(std::move(e));
}

void
StatRegistry::addSample(const std::string &path, SampleFn fn)
{
    Entry e;
    e.path = path;
    e.kind = Kind::Sample;
    e.sampleFn = std::move(fn);
    insert(std::move(e));
}

void
StatRegistry::addRate(const std::string &path, const RateSeries *r)
{
    Entry e;
    e.path = path;
    e.kind = Kind::Rate;
    e.rate = r;
    insert(std::move(e));
}

void
StatRegistry::addScalar(const std::string &path, ScalarFn fn)
{
    Entry e;
    e.path = path;
    e.kind = Kind::Scalar;
    e.scalar = std::move(fn);
    insert(std::move(e));
}

const StatRegistry::Entry *
StatRegistry::find(const std::string &path) const
{
    for (const auto &e : _entries)
        if (e.path == path)
            return &e;
    return nullptr;
}

bool
StatRegistry::has(const std::string &path) const
{
    return find(path) != nullptr;
}

double
StatRegistry::value(const std::string &path) const
{
    const Entry *e = find(path);
    if (!e)
        fatal("StatRegistry: no stat registered at '%s'", path.c_str());
    switch (e->kind) {
      case Kind::CounterStat:
        return static_cast<double>(e->counter->value());
      case Kind::Sample:
        return static_cast<double>(
            e->sample ? e->sample->count() : e->sampleFn().count());
      case Kind::Rate:
        return e->rate->total();
      case Kind::Scalar:
        return e->scalar();
    }
    return 0.0;
}

std::vector<std::size_t>
StatRegistry::sortedIndex() const
{
    std::vector<std::size_t> order(_entries.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [this](std::size_t a, std::size_t b) {
                  return _entries[a].path < _entries[b].path;
              });
    return order;
}

std::vector<std::string>
StatRegistry::paths() const
{
    std::vector<std::string> out;
    out.reserve(_entries.size());
    for (std::size_t i : sortedIndex())
        out.push_back(_entries[i].path);
    return out;
}

std::string
StatRegistry::json() const
{
    std::string out = "{\n";
    bool first = true;
    for (std::size_t i : sortedIndex()) {
        const Entry &e = _entries[i];
        if (!first)
            out += ",\n";
        first = false;
        out += "  \"" + e.path + "\": ";
        switch (e.kind) {
          case Kind::CounterStat:
            out += jsonNumber(static_cast<double>(e.counter->value()));
            break;
          case Kind::Sample:
            out += e.sample ? sampleJson(*e.sample)
                            : sampleJson(e.sampleFn());
            break;
          case Kind::Rate:
            out += "{\"total\": " + jsonNumber(e.rate->total()) +
                   ", \"window_ticks\": " +
                   jsonNumber(static_cast<double>(e.rate->window())) +
                   ", \"windows\": " +
                   jsonNumber(
                       static_cast<double>(e.rate->windows().size())) +
                   "}";
            break;
          case Kind::Scalar:
            out += jsonNumber(e.scalar());
            break;
        }
    }
    out += "\n}\n";
    return out;
}

void
StatRegistry::writeJson(const std::string &path) const
{
    std::string doc = json();
    if (path == "-") {
        std::fwrite(doc.data(), 1, doc.size(), stdout);
        return;
    }
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        fatal("cannot open stats file '%s' for writing", path.c_str());
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
}

} // namespace dssd
