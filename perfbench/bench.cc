#include "bench.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <unordered_map>

namespace perfbench {

LatencySegments::LatencySegments(std::size_t per_segment)
    : perSegment_(per_segment)
{
    cur_.reserve(per_segment);
}

void
LatencySegments::add(int64_t ns)
{
    cur_.push_back(ns);
    ++n_;
    if (cur_.size() == perSegment_)
        closeSegment();
}

void
LatencySegments::closeSegment()
{
    if (cur_.empty())
        return;
    // Nearest rank: the smallest sample with at least q*n at or below.
    const auto rank = [&](double q) {
        const auto k = static_cast<std::size_t>(
            std::ceil(q * static_cast<double>(cur_.size())));
        const std::size_t idx = k == 0 ? 0 : k - 1;
        std::nth_element(cur_.begin(), cur_.begin() + idx, cur_.end());
        return static_cast<double>(cur_[idx]);
    };
    p50_.push_back(rank(0.50));
    p99_.push_back(rank(0.99));
    cur_.clear();
}

void
LatencySegments::finish()
{
    if (p50_.empty())
        closeSegment();
}

double
LatencySegments::p50Ns()
{
    finish();
    return hostQuietLatency(p50_);
}

double
LatencySegments::p99Ns()
{
    finish();
    return hostQuietLatency(p99_);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    const auto k = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    const std::size_t idx = k == 0 ? 0 : k - 1;
    std::nth_element(v.begin(), v.begin() + idx, v.end());
    return v[idx];
}

double
median(std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    const std::size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + mid, v.end());
    double m = v[mid];
    if (v.size() % 2 == 0) {
        m = (m + *std::max_element(v.begin(), v.begin() + mid)) / 2.0;
    }
    return m;
}

Tracer::Tracer(std::size_t capacity) : ring_(capacity) {}

uint16_t
Tracer::nameId(const std::string &name)
{
    for (std::size_t i = 0; i < names_.size(); ++i) {
        if (names_[i] == name)
            return static_cast<uint16_t>(i);
    }
    names_.push_back(name);
    return static_cast<uint16_t>(names_.size() - 1);
}

uint64_t
Tracer::open(uint16_t name, uint64_t parent, uint64_t request)
{
    const uint64_t id = nextId_++;
    if (ring_.empty())
        return id;
    Span &s = ring_[id % ring_.size()];
    s.id = id;
    s.parent = parent;
    s.request = request;
    s.name = name;
    s.end = 0;
    s.start = nowNs();
    return id;
}

void
Tracer::close(uint64_t id)
{
    const int64_t t = nowNs();
    if (ring_.empty())
        return;
    Span &s = ring_[id % ring_.size()];
    if (s.id == id)
        s.end = t;
}

uint64_t
Tracer::record(uint16_t name, uint64_t parent, uint64_t request,
               int64_t start, int64_t end)
{
    const uint64_t id = nextId_++;
    if (!ring_.empty())
        ring_[id % ring_.size()] = Span{id, parent, request, start, end, name};
    return id;
}

std::size_t
Tracer::retained() const
{
    std::size_t n = 0;
    for (const Span &s : ring_)
        n += s.id != 0 && s.end != 0;
    return n;
}

std::vector<double>
Tracer::selfTimes(const std::string &name_str, uint64_t since) const
{
    const auto named =
        std::find(names_.begin(), names_.end(), name_str);
    if (named == names_.end())
        return {};
    const auto name = static_cast<uint16_t>(named - names_.begin());
    // Children of each retained span of this name, grouped by parent.
    std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
        children;
    std::vector<const Span *> mine;
    for (const Span &s : ring_) {
        if (s.id < since || s.id == 0 || s.end == 0)
            continue;
        if (s.name == name)
            mine.push_back(&s);
    }
    if (mine.empty())
        return {};
    std::unordered_map<uint64_t, std::size_t> index;
    index.reserve(mine.size());
    for (std::size_t i = 0; i < mine.size(); ++i)
        index.emplace(mine[i]->id, i);
    for (const Span &s : ring_) {
        if (s.id == 0 || s.end == 0 || s.parent == 0)
            continue;
        if (index.count(s.parent))
            children[s.parent].emplace_back(s.start, s.end);
    }
    std::vector<double> out;
    out.reserve(mine.size());
    for (const Span *s : mine) {
        int64_t covered = 0;
        auto it = children.find(s->id);
        if (it != children.end()) {
            auto &iv = it->second;
            std::sort(iv.begin(), iv.end());
            int64_t cur_lo = 0, cur_hi = 0;
            bool open_iv = false;
            for (auto [lo, hi] : iv) {
                lo = std::max(lo, s->start);
                hi = std::min(hi, s->end);
                if (hi <= lo)
                    continue;
                if (open_iv && lo <= cur_hi) {
                    cur_hi = std::max(cur_hi, hi);
                } else {
                    if (open_iv)
                        covered += cur_hi - cur_lo;
                    cur_lo = lo;
                    cur_hi = hi;
                    open_iv = true;
                }
            }
            if (open_iv)
                covered += cur_hi - cur_lo;
        }
        out.push_back(static_cast<double>(s->end - s->start - covered));
    }
    return out;
}

double
Tracer::medianSelfNs(const std::string &name, uint64_t since) const
{
    std::vector<double> v = selfTimes(name, since);
    return median(v);
}

bool
Tracer::write(const std::string &path) const
{
    std::vector<const Span *> spans;
    for (const Span &s : ring_) {
        if (s.id != 0 && s.end != 0)
            spans.push_back(&s);
    }
    std::sort(spans.begin(), spans.end(),
              [](const Span *a, const Span *b) { return a->id < b->id; });
    std::ofstream out(path);
    if (!out)
        return false;
    out << "id\tparent\trequest\tname\tstart_ns\tend_ns\n";
    for (const Span *s : spans) {
        out << s->id << '\t' << s->parent << '\t' << s->request << '\t'
            << names_[s->name] << '\t' << s->start << '\t' << s->end
            << '\n';
    }
    return static_cast<bool>(out);
}

uint64_t
subSeed(uint64_t seed, uint64_t stream)
{
    // splitmix64 over (seed, stream): independent, reproducible streams.
    uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull +
                 0x94d049bb133111ebull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

} // namespace perfbench
