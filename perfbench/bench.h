#ifndef CARAM_PERFBENCH_BENCH_H_
#define CARAM_PERFBENCH_BENCH_H_

/**
 * @file
 * Shared pieces of the benchmark driver: options, per-segment latency
 * percentiles, the in-memory span tracer, and the result record each
 * workload fills.
 */

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/database.h"
#include "engine/parallel_search_engine.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Where the traced run writes its spans ("" = nowhere). */
    std::string traceOut;
};

/**
 * Latency percentiles taken per segment: samples are grouped into
 * segments of a fixed size, and each percentile is first taken exactly
 * within each segment.  A segment must be large enough that at least
 * ten samples lie beyond its p99.
 */
class LatencySegments
{
  public:
    explicit LatencySegments(std::size_t per_segment);
    void add(int64_t ns);
    uint64_t count() const { return n_; }
    /** The host-quiet p50 / p99, ns: see hostQuietLatency(). */
    double p50Ns();
    double p99Ns();

  private:
    void closeSegment();
    /** Fold a trailing partial segment in when it is the only one. */
    void finish();

    std::size_t perSegment_;
    std::vector<int64_t> cur_;
    std::vector<double> p50_, p99_;
    uint64_t n_ = 0;
};

/** Nearest-rank @p q quantile of @p v (0 when empty). */
double quantile(std::vector<double> v, double q);

/**
 * The figure the host gives when it is not contended, from per-segment
 * figures: the 99th percentile of segment throughputs, or the 1st
 * percentile of segment latencies.  On a shared host a run flips
 * between a fast state and one up to ~35% slower (other tenants on the
 * same cores and caches), and on a busy host a whole run can pass
 * without one quiet 100-ms stretch.  A median would report whichever
 * state a run happened to land in; short segments (a few ms) and this
 * quantile still find the uncontended stretches, as long as a
 * hundredth of the segments ran in one.
 */
inline double
hostQuietRate(const std::vector<double> &rates)
{
    return quantile(rates, 0.99);
}
inline double
hostQuietLatency(const std::vector<double> &latencies)
{
    return quantile(latencies, 0.01);
}

/** Median of @p v (0 when empty); reorders @p v. */
double median(std::vector<double> &v);

/**
 * In-memory span recorder.  Spans live in a fixed ring (the newest
 * `capacity` survive), so recording cost stays constant however long a
 * traced phase runs.  Span ids are 1-based and monotonic; 0 means "no
 * parent".
 */
class Tracer
{
  public:
    struct Span
    {
        uint64_t id = 0;
        uint64_t parent = 0;
        uint64_t request = 0;
        int64_t start = 0;
        int64_t end = 0;
        uint16_t name = 0;
    };

    static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 18;

    /** @p capacity spans are kept (0: the run records none). */
    explicit Tracer(std::size_t capacity);
    /** Intern a span name (call outside timed loops). */
    uint16_t nameId(const std::string &name);
    uint64_t open(uint16_t name, uint64_t parent, uint64_t request);
    void close(uint64_t id);
    /** Record a span whose interval was measured by the caller. */
    uint64_t record(uint16_t name, uint64_t parent, uint64_t request,
                    int64_t start, int64_t end);

    /** The id the next span gets: spans of a phase started now have
     *  ids >= mark(). */
    uint64_t mark() const { return nextId_; }

    /**
     * Self times, ns, of the retained spans named @p name with id >=
     * @p since: each span's duration minus the part of it its children
     * cover.
     */
    std::vector<double> selfTimes(const std::string &name,
                                  uint64_t since) const;
    /** Median of selfTimes() (0 when no such span was retained). */
    double medianSelfNs(const std::string &name, uint64_t since) const;
    std::size_t retained() const;
    /** Write the retained spans as TSV; false on I/O failure. */
    bool write(const std::string &path) const;

  private:

    std::vector<Span> ring_;
    uint64_t nextId_ = 1;
    std::vector<std::string> names_;
};

/** RAII span. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &t, uint16_t name, uint64_t parent, uint64_t request)
        : t_(t), id_(t.open(name, parent, request))
    {
    }
    ~ScopedSpan() { t_.close(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;
    uint64_t id() const { return id_; }

  private:
    Tracer &t_;
    uint64_t id_;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one workload run produced. */
struct Result
{
    uint64_t attempted = 0;
    /** Wrong answers + ok=false responses + refused submits. */
    uint64_t failed = 0;
    std::vector<Metric> endToEnd;
    std::vector<Metric> layers;
    /** Modeled counts that differed between two identical passes. */
    std::vector<std::string> schedulingDependent;
    /** Free-form lines printed before the result. */
    std::vector<std::string> notes;

    /** Units come from the driver's canonical metric lists. */
    void e2e(const std::string &n, double v) { endToEnd.push_back({n, v, ""}); }
    void layer(const std::string &n, double v) { layers.push_back({n, v, ""}); }
};

/** Peak resident set size of this process so far, MiB. */
double peakRssMb();

/** The engine configuration every engine run uses: one knob set. */
caram::engine::EngineConfig benchEngineConfig();
/** One engine port: a 32-bit binary exact-match table. */
caram::core::DatabaseConfig portDbConfig(const std::string &name);

/** Stream seed for input @p stream of a run seeded @p seed. */
uint64_t subSeed(uint64_t seed, uint64_t stream);

Result runIpLpm(const Options &opt, Tracer &tracer);
Result runEngine(const Options &opt, Tracer &tracer, bool churn);

} // namespace perfbench

#endif // CARAM_PERFBENCH_BENCH_H_
