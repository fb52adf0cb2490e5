/**
 * @file
 * Workloads engine_uniform and engine_churn_zipf: four 32-bit binary
 * exact-match ports served by ParallelSearchEngine (two workers, every
 * other setting at its default), driven by one producer thread that
 * keeps a fixed window of requests outstanding through
 * submitRequest()/fetchResult().  Every response is checked against a
 * per-port serial replay of the same stream in submission order, which
 * per-port FIFO makes exact.
 */

#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "baseline/chained_hash.h"
#include "bench.h"
#include "common/random.h"
#include "core/subsystem.h"
#include "hash/bit_select.h"

namespace perfbench {

using caram::Key;
using caram::core::PortOp;
using caram::core::PortRequest;
using caram::core::PortResponse;

namespace {

constexpr unsigned kPorts = 4;
constexpr unsigned kIndexBits = 14;
constexpr unsigned kSlots = 8;
/** 60% of 2^14 x 8 slots per port. */
constexpr std::size_t kRecordsPerPort = (std::size_t{1} << kIndexBits) *
                                        kSlots * 6 / 10;
/** Loaded keys that seed each port's erase FIFO; the rest stay put. */
constexpr std::size_t kChurnPoolPerPort = kRecordsPerPort / 5;
constexpr unsigned kWindow = 32;
constexpr double kHitFrac = 0.6;
constexpr double kMutationFrac = 0.1;
constexpr double kZipfS = 0.99;
/** Ops generated per chunk (the clock pauses while a chunk is made). */
constexpr std::size_t kChunk = std::size_t{1} << 16;
/** Fixed-length modeled-clock pass (identical on every run). */
constexpr std::size_t kModeledPass = std::size_t{1} << 18;
/** Mutations of engine_uniform's update probe, run after every chunk. */
constexpr std::size_t kProbePerChunk = 800;
/** Completions per throughput segment. */
constexpr uint64_t kRateSegment = uint64_t{1} << 12;
/** Latency samples per segment: all ops, and the mutations alone. */
constexpr std::size_t kLatencySegment = std::size_t{1} << 12;
constexpr std::size_t kUpdateSegment = std::size_t{1} << 10;
constexpr std::size_t kProbeSegment = 1600;
/** Ops of each traced single-thread layer pass. */
constexpr std::size_t kLayerPass = std::size_t{1} << 17;
constexpr unsigned kBatch = 32;
/** Table builds per run (three serve the passes); setup_s is their
 *  median. */
constexpr int kSetupBuilds = 5;

enum class Kind : uint8_t
{
    Search,
    Insert,
    Erase,
};

/** One generated op with its oracle answer. */
struct Op
{
    uint32_t key = 0;
    uint16_t data = 0;
    uint8_t port = 0;
    Kind kind = Kind::Search;
    bool expHit = false;
    uint16_t expData = 0;
};

/**
 * The seeded op stream and its oracle: per-port maps replayed serially
 * in submission order.  Identical seeds give identical tables, streams
 * and answers.
 */
class Stream
{
  public:
    Stream(uint64_t seed, bool churn)
        : rng_(subSeed(seed, 11)), churn_(churn)
    {
        for (unsigned p = 0; p < kPorts; ++p) {
            PortState &ps = ports_[p];
            ps.salt = static_cast<uint32_t>(rng_.next64());
            ps.live.reserve(kRecordsPerPort * 2);
            ps.loaded.reserve(kRecordsPerPort);
            while (ps.loaded.size() < kRecordsPerPort) {
                const uint32_t k = freshKey(ps);
                const uint16_t d = static_cast<uint16_t>(rng_.below(1u << 16));
                ps.live.emplace(k, d);
                ps.loaded.push_back(k);
            }
            // The newest-loaded fifth seeds the erase FIFO; searches
            // draw their hits only from the rest, which is never erased.
            for (std::size_t i = kRecordsPerPort - kChurnPoolPerPort;
                 i < kRecordsPerPort; ++i)
                ps.fifo.push_back(ps.loaded[i]);
        }
        zipf_ = std::make_unique<caram::ZipfStream>(
            kRecordsPerPort - kChurnPoolPerPort, kZipfS, subSeed(seed, 12));
    }

    std::vector<caram::core::Record>
    records(unsigned port) const
    {
        std::vector<caram::core::Record> out;
        out.reserve(kRecordsPerPort);
        for (uint32_t k : ports_[port].loaded)
            out.push_back({Key::fromUint(k, 32), ports_[port].live.at(k)});
        return out;
    }

    /** Append the next @p n ops; @p mutations_only forces updates. */
    void
    next(std::vector<Op> &out, std::size_t n, bool mutations_only = false)
    {
        out.clear();
        for (std::size_t i = 0; i < n; ++i) {
            const unsigned p = static_cast<unsigned>(seq_++ % kPorts);
            PortState &ps = ports_[p];
            Op op;
            op.port = static_cast<uint8_t>(p);
            if (mutations_only || (churn_ && rng_.chance(kMutationFrac))) {
                if (ps.insertNext) {
                    op.kind = Kind::Insert;
                    op.key = freshKey(ps);
                    op.data = static_cast<uint16_t>(rng_.below(1u << 16));
                    ps.live.emplace(op.key, op.data);
                    ps.fifo.push_back(op.key);
                    op.expHit = true;
                } else {
                    op.kind = Kind::Erase;
                    op.key = ps.fifo.front();
                    ps.fifo.pop_front();
                    ps.live.erase(op.key);
                    op.expHit = true;
                    op.expData = 1; // copies removed
                }
                ps.insertNext = !ps.insertNext;
            } else {
                if (churn_) {
                    op.key = ps.loaded[zipf_->next(rng_)];
                } else if (rng_.chance(kHitFrac)) {
                    op.key = ps.loaded[rng_.below(kRecordsPerPort -
                                                  kChurnPoolPerPort)];
                } else {
                    op.key = static_cast<uint32_t>(rng_.next64());
                }
                const auto it = ps.live.find(op.key);
                op.expHit = it != ps.live.end();
                op.expData = op.expHit ? it->second : 0;
            }
            out.push_back(op);
        }
    }

    /** The oracle's current contents of @p port. */
    const std::unordered_map<uint32_t, uint16_t> &
    live(unsigned port) const
    {
        return ports_[port].live;
    }

  private:
    struct PortState
    {
        std::unordered_map<uint32_t, uint16_t> live;
        std::vector<uint32_t> loaded;
        std::deque<uint32_t> fifo;
        uint32_t salt = 0;
        /** Keys handed out so far: key i is scramble(i), never reused. */
        uint32_t issued = 0;
        bool insertNext = true;
    };

    /** A bijection on 32-bit values (each step is invertible), so
     *  distinct counters give distinct, well-spread keys. */
    static uint32_t
    scramble(uint32_t x, uint32_t salt)
    {
        x ^= salt;
        x *= 0x9e3779b1u;
        x ^= x >> 16;
        x *= 0x85ebca6bu;
        x ^= x >> 13;
        x *= 0xc2b2ae35u;
        x ^= x >> 16;
        return x;
    }

    /** A key this port has never stored. */
    static uint32_t
    freshKey(PortState &ps)
    {
        return scramble(ps.issued++, ps.salt);
    }

    caram::Rng rng_;
    bool churn_;
    PortState ports_[kPorts];
    std::unique_ptr<caram::ZipfStream> zipf_;
    uint64_t seq_ = 0;
};

/** Tables, engine and oracle of one setup.  The engine is declared
 *  after the subsystem it serves, so it is destroyed first. */
struct Setup
{
    std::unique_ptr<Stream> stream;
    std::unique_ptr<caram::core::CaRamSubsystem> sys;
    std::unique_ptr<caram::engine::ParallelSearchEngine> engine;
    double setupS = 0.0;
    double bulkLoadS = 0.0;
    uint64_t bulkRowFetches = 0;
    uint64_t bulkFailed = 0;
};

Setup
buildSetup(uint64_t seed, bool churn)
{
    Setup s;
    const int64_t t0 = nowNs();
    s.stream = std::make_unique<Stream>(seed, churn);
    s.sys = std::make_unique<caram::core::CaRamSubsystem>();
    for (unsigned p = 0; p < kPorts; ++p)
        s.sys->addDatabase(portDbConfig("port" + std::to_string(p)));
    s.engine = std::make_unique<caram::engine::ParallelSearchEngine>(
        *s.sys, benchEngineConfig());
    std::vector<std::vector<caram::core::Record>> recs(kPorts);
    for (unsigned p = 0; p < kPorts; ++p)
        recs[p] = s.stream->records(p);
    const int64_t t1 = nowNs();
    for (unsigned p = 0; p < kPorts; ++p) {
        const caram::core::InsertBatchSummary sum =
            s.engine->bulkLoad(p, recs[p]);
        s.bulkRowFetches += sum.rowFetches;
        s.bulkFailed += sum.failed;
    }
    const int64_t t2 = nowNs();
    s.setupS = (t2 - t0) / 1e9;
    s.bulkLoadS = (t2 - t1) / 1e9;
    return s;
}

PortRequest
toRequest(const Op &op, uint64_t tag)
{
    PortRequest r;
    r.port = op.port;
    r.key = Key::fromUint(op.key, 32);
    r.tag = tag;
    switch (op.kind) {
      case Kind::Search:
        r.op = PortOp::Search;
        break;
      case Kind::Insert:
        r.op = PortOp::Insert;
        r.data = op.data;
        break;
      case Kind::Erase:
        r.op = PortOp::Erase;
        break;
    }
    return r;
}

/** True when @p got is the oracle's answer to @p op. */
bool
matches(const Op &op, bool ok, bool hit, uint64_t data)
{
    if (!ok || hit != op.expHit)
        return false;
    if (op.kind == Kind::Insert)
        return true;
    return !hit || data == op.expData;
}

/** Closed-loop driver statistics. */
struct Drive
{
    uint64_t done = 0;
    uint64_t failed = 0;
    int64_t wallNs = 0;
    uint64_t searchAccesses = 0; ///< sum of bucketsAccessed of searches
    uint64_t searches = 0;
    uint64_t mutations = 0;
    /** Where to append the rate of every kRateSegment completions,
     *  Mops (nullptr: nowhere). */
    std::vector<double> *rates = nullptr;
};

/**
 * Push @p ops through @p engine keeping up to @p window requests
 * outstanding; every response is checked against its op's oracle
 * answer.  Latencies (submit -> fetchResult) go to @p lat, mutation
 * latencies also to @p upd.  With a tracer, each request records a
 * root span with its submit and fetch children.
 */
void
drive(caram::engine::ParallelSearchEngine &engine,
      const std::vector<Op> &ops, unsigned window, uint64_t &tag,
      LatencySegments *lat, LatencySegments *upd, Tracer *tracer,
      Drive &d)
{
    struct Pending
    {
        std::size_t op;
        uint64_t tag;
        int64_t t0;
        int64_t submitted;
    };
    std::deque<Pending> pending[kPorts];
    uint16_t req_n = 0, submit_n = 0, fetch_n = 0;
    if (tracer) {
        req_n = tracer->nameId("engine.request");
        submit_n = tracer->nameId("engine.submit");
        fetch_n = tracer->nameId("engine.fetch");
    }
    std::size_t next = 0;
    std::size_t outstanding = 0;
    const int64_t start = nowNs();
    int64_t rate_mark = start;
    uint64_t since_mark = 0;
    while (next < ops.size() || outstanding > 0) {
        while (outstanding < window && next < ops.size()) {
            const Op &op = ops[next];
            const PortRequest req = toRequest(op, tag);
            const int64_t t0 = nowNs();
            const bool accepted = engine.submitRequest(req);
            const int64_t t1 = tracer ? nowNs() : t0;
            if (accepted) {
                pending[op.port].push_back({next, tag, t0, t1});
                ++outstanding;
            } else {
                ++d.failed; // refused: counts as failed, never as fast
                ++d.done;
            }
            ++tag;
            ++next;
        }
        bool progressed = false;
        for (unsigned p = 0; p < kPorts; ++p) {
            while (!pending[p].empty()) {
                const int64_t f0 = tracer ? nowNs() : 0;
                std::optional<PortResponse> r = engine.fetchResult(p);
                if (!r)
                    break;
                const int64_t f1 = nowNs();
                const Pending pd = pending[p].front();
                pending[p].pop_front();
                --outstanding;
                progressed = true;
                const Op &op = ops[pd.op];
                ++d.done;
                d.failed += r->tag != pd.tag ||
                            !matches(op, r->ok, r->hit, r->data);
                if (op.kind == Kind::Search) {
                    d.searchAccesses += r->bucketsAccessed;
                    ++d.searches;
                } else {
                    ++d.mutations;
                    if (upd)
                        upd->add(f1 - pd.t0);
                }
                if (lat)
                    lat->add(f1 - pd.t0);
                if (d.rates && ++since_mark == kRateSegment) {
                    d.rates->push_back(kRateSegment / ((f1 - rate_mark) / 1e3));
                    rate_mark = f1;
                    since_mark = 0;
                }
                if (tracer) {
                    const uint64_t root =
                        tracer->record(req_n, 0, pd.tag, pd.t0, f1);
                    tracer->record(submit_n, root, pd.tag, pd.t0,
                                   pd.submitted);
                    tracer->record(fetch_n, root, pd.tag, f0, f1);
                }
            }
        }
        // The window is full or the ops are all submitted: wait.
        if (!progressed)
            std::this_thread::yield();
    }
    d.wallNs += nowNs() - start;
}

/** The modeled-clock counts of one fixed pass, by name. */
struct Counts
{
    std::vector<std::pair<std::string, double>> values;
    double get(const std::string &n) const
    {
        for (const auto &[k, v] : values)
            if (k == n)
                return v;
        return 0.0;
    }
};

/** Fixed-length pass over the stream's first kModeledPass ops. */
Counts
modeledPass(Setup &s, Tracer *tracer, Result &res, double &wall_mops,
            double &wall_reported)
{
    std::vector<Op> ops;
    s.stream->next(ops, kModeledPass);
    s.engine->start();
    uint64_t tag = 0;
    Drive d;
    drive(*s.engine, ops, kWindow, tag, nullptr, nullptr, tracer, d);
    s.engine->drain();
    const caram::engine::EngineReport rep = s.engine->report();
    res.attempted += d.done;
    res.failed += d.failed;
    wall_mops = d.done / (d.wallNs / 1e3);
    wall_reported = rep.wallMsps;
    Counts c;
    const auto frac = [](uint64_t a, uint64_t b) {
        return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
    };
    c.values = {
        {"modeled_msps", rep.modeledMsps},
        {"engine.modeled_speedup", rep.modeledSpeedup},
        {"core.slice.amal", frac(d.searchAccesses, d.searches)},
        {"engine.cache.hit_frac",
         frac(rep.cacheHits, rep.cacheHits + rep.cacheMisses)},
        {"engine.cache.invalidations",
         static_cast<double>(rep.cacheInvalidations)},
        {"core.prefilter.skip_frac",
         frac(rep.prefilterSkips, rep.prefilterProbes)},
        {"engine.writer.row_fetches_per_mutation",
         frac(rep.writerRowFetches, d.mutations)},
        {"engine.writer.rows_combined",
         static_cast<double>(rep.rowsCombined)},
        {"engine.writer.staged_runs",
         static_cast<double>(rep.stagedMutationRuns)},
        {"engine.maintenance.steps",
         static_cast<double>(rep.maintenanceSteps)},
        {"engine.bulk_load.row_fetches",
         static_cast<double>(s.bulkRowFetches)},
    };
    return c;
}

} // namespace

caram::engine::EngineConfig
benchEngineConfig()
{
    caram::engine::EngineConfig cfg;
    cfg.workers = 2;
    return cfg;
}

caram::core::DatabaseConfig
portDbConfig(const std::string &name)
{
    caram::core::DatabaseConfig cfg;
    cfg.name = name;
    cfg.sliceShape.indexBits = kIndexBits;
    cfg.sliceShape.logicalKeyBits = 32;
    cfg.sliceShape.ternary = false;
    cfg.sliceShape.slotsPerBucket = kSlots;
    cfg.sliceShape.dataBits = 16;
    cfg.indexFactory = [](const caram::core::SliceConfig &eff)
        -> std::unique_ptr<caram::hash::IndexGenerator> {
        return std::make_unique<caram::hash::LowBitsIndex>(
            eff.logicalKeyBits, eff.indexBits);
    };
    return cfg;
}

Result
runEngine(const Options &opt, Tracer &tracer, bool churn)
{
    Result res;
    std::vector<double> setup_s, bulk_s;
    uint64_t bulk_failed = 0;

    // Two identical fixed passes on two fresh builds (the second traced
    // in the traced run): every modeled count must repeat exactly.
    double pass_mops = 0.0, pass_reported = 0.0, unused = 0.0;
    Counts first;
    double storage_bytes = 0.0;
    for (int b = 3; b < kSetupBuilds; ++b) {
        const Setup extra = buildSetup(opt.seed, churn);
        setup_s.push_back(extra.setupS);
        bulk_s.push_back(extra.bulkLoadS);
        bulk_failed += extra.bulkFailed;
    }
    {
        Setup s = buildSetup(opt.seed, churn);
        setup_s.push_back(s.setupS);
        bulk_s.push_back(s.bulkLoadS);
        bulk_failed += s.bulkFailed;
        uint64_t bits = 0;
        for (unsigned p = 0; p < kPorts; ++p)
            bits += s.sys->database(p).nominalStorageBits();
        storage_bytes = bits / 8.0 / (kPorts * kRecordsPerPort);
        first = modeledPass(s, nullptr, res, pass_mops, pass_reported);
    }
    {
        Setup s = buildSetup(opt.seed, churn);
        setup_s.push_back(s.setupS);
        bulk_s.push_back(s.bulkLoadS);
        bulk_failed += s.bulkFailed;
        const Counts second = modeledPass(s, opt.trace ? &tracer : nullptr,
                                          res, unused, unused);
        for (const auto &[name, v] : first.values) {
            if (second.get(name) != v) {
                res.schedulingDependent.push_back(
                    name + " (" + std::to_string(v) + " vs " +
                    std::to_string(second.get(name)) + ")");
            }
        }
    }

    Setup live = buildSetup(opt.seed, churn);
    setup_s.push_back(live.setupS);
    bulk_s.push_back(live.bulkLoadS);
    bulk_failed += live.bulkFailed;
    res.failed += bulk_failed;
    res.attempted += kSetupBuilds * kPorts * kRecordsPerPort;

    // Timed phase: the stream continues chunk by chunk; the clock runs
    // only while a chunk is in flight.
    caram::engine::ParallelSearchEngine &engine = *live.engine;
    engine.start();
    uint64_t tag = 0;
    std::vector<Op> ops;
    // engine_uniform is read-only, so its update latency comes from a
    // burst of mutations run after every chunk through the same window,
    // outside the chunk's timing: the bursts sample the same stretch of
    // host time while each chunk stays read-only.
    std::vector<Op> probe;
    const auto timed = [&](double seconds, Tracer *t, LatencySegments &lat,
                           LatencySegments &upd) {
        std::vector<double> rates;
        int64_t wall = 0;
        const int64_t budget = static_cast<int64_t>(seconds * 1e9);
        while (wall < budget) {
            live.stream->next(ops, kChunk);
            Drive d;
            d.rates = &rates;
            drive(engine, ops, kWindow, tag, &lat, &upd, t, d);
            wall += d.wallNs;
            d.rates = nullptr;
            if (!churn) {
                live.stream->next(probe, kProbePerChunk,
                                  /*mutations_only=*/true);
                drive(engine, probe, kWindow, tag, nullptr, &upd, t, d);
            }
            res.attempted += d.done;
            res.failed += d.failed;
        }
        return hostQuietRate(rates);
    };
    LatencySegments lat(kLatencySegment), traced_lat(kLatencySegment);
    LatencySegments upd(churn ? kUpdateSegment : kProbeSegment);
    LatencySegments traced_upd(churn ? kUpdateSegment : kProbeSegment);
    double mops = 0.0, traced_mops = 0.0;
    uint64_t traced_spans = tracer.mark();
    if (opt.trace) {
        mops = timed(opt.seconds * 0.3, nullptr, lat, upd);
        traced_spans = tracer.mark();
        traced_mops = timed(opt.seconds * 0.3, &tracer, traced_lat,
                            traced_upd);
    } else {
        mops = timed(opt.seconds, nullptr, lat, upd);
    }
    const double submit_ns = tracer.medianSelfNs("engine.submit", traced_spans);

    engine.stop();

    if (!opt.trace) {
        res.e2e("throughput_mops", mops);
        res.e2e("p50_us", lat.p50Ns() / 1e3);
        res.e2e("p99_us", lat.p99Ns() / 1e3);
        res.e2e("update_p99_us", upd.p99Ns() / 1e3);
        res.e2e("modeled_msps", first.get("modeled_msps"));
        res.e2e("setup_s", median(setup_s));
        res.e2e("peak_rss_mb", peakRssMb());
        res.notes.push_back("latency samples " +
                            std::to_string(lat.count()) +
                            ", update samples " +
                            std::to_string(upd.count()));
        res.notes.push_back("fixed pass wall " + std::to_string(pass_mops) +
                            " Mops, EngineReport::wallMsps " +
                            std::to_string(pass_reported));
        return res;
    }

    // Traced run, single-thread layers on the stopped engine's tables:
    // the stream (and its oracle) simply continues.
    caram::core::CaRamSubsystem &sys = *live.sys;
    const uint64_t serial_spans = tracer.mark();
    {
        const uint16_t proc_n = tracer.nameId("core.subsystem.process");
        live.stream->next(ops, kLayerPass);
        for (std::size_t i = 0; i < ops.size(); ++i) {
            const Op &op = ops[i];
            const Key key = Key::fromUint(op.key, 32);
            std::optional<PortResponse> r;
            {
                ScopedSpan s(tracer, proc_n, 0, tag);
                bool accepted = false;
                switch (op.kind) {
                  case Kind::Search:
                    accepted = sys.submit(op.port, key, tag);
                    break;
                  case Kind::Insert:
                    accepted = sys.submitInsert(
                        op.port, caram::core::Record{key, op.data}, 0, tag);
                    break;
                  case Kind::Erase:
                    accepted = sys.submitErase(op.port, key, tag);
                    break;
                }
                if (accepted) {
                    sys.process();
                    r = sys.fetchResult();
                }
            }
            ++tag;
            ++res.attempted;
            res.failed += !r || !matches(op, r->ok, r->hit, r->data);
        }
    }
    std::vector<double> process = tracer.selfTimes("core.subsystem.process",
                                                   serial_spans);
    double process_total = 0.0;
    for (double ns : process)
        process_total += ns;
    const double serial_mops =
        process_total > 0 ? process.size() / (process_total / 1e3) : 0.0;
    const double process_ns = median(process);

    // One span per public call into each layer, on the same keys; a
    // chained hash table holding the same records answers the same
    // searches.
    std::vector<std::unique_ptr<caram::baseline::ChainedHashTable>> chained;
    for (unsigned p = 0; p < kPorts; ++p) {
        chained.push_back(std::make_unique<caram::baseline::ChainedHashTable>(
            std::make_unique<caram::hash::LowBitsIndex>(32, kIndexBits + 3)));
        for (const auto &[k, v] : live.stream->live(p))
            chained[p]->insert(Key::fromUint(k, 32), v);
    }
    const uint64_t layer_spans = tracer.mark();
    {
        const uint16_t root = tracer.nameId("engine.layers");
        const uint16_t homes_n = tracer.nameId("hash.candidate_homes");
        const uint16_t rows_n = tracer.nameId("core.match.search_rows");
        const uint16_t slice_n = tracer.nameId("core.slice.search");
        const uint16_t db_n = tracer.nameId("core.database.search");
        const uint16_t ch_n = tracer.nameId("baseline.chained_hash.find");
        const uint16_t ins_n = tracer.nameId("core.database.insert");
        const uint16_t era_n = tracer.nameId("core.database.erase");
        std::vector<uint64_t> homes;
        homes.reserve(64);
        caram::core::MatchProcessor::PackedKey packed;
        // engine_uniform has no mutations in its stream: replay the
        // update probe's kind of traffic so insert/erase are measured.
        live.stream->next(ops, kLayerPass);
        std::vector<Op> muts;
        if (!churn)
            live.stream->next(muts, kLayerPass / 16, true);
        ops.insert(ops.end(), muts.begin(), muts.end());
        for (std::size_t i = 0; i < ops.size(); ++i) {
            const Op &op = ops[i];
            caram::core::Database &db = sys.database(op.port);
            caram::core::CaRamSlice &slice = db.slice();
            const Key key = Key::fromUint(op.key, 32);
            ScopedSpan req(tracer, root, 0, i);
            ++res.attempted;
            if (op.kind == Kind::Insert) {
                bool placed = false;
                {
                    ScopedSpan s(tracer, ins_n, req.id(), i);
                    placed = db.insert(caram::core::Record{key, op.data});
                }
                chained[op.port]->insert(key, op.data);
                res.failed += !matches(op, true, placed, 0);
                continue;
            }
            if (op.kind == Kind::Erase) {
                unsigned removed = 0;
                {
                    ScopedSpan s(tracer, era_n, req.id(), i);
                    removed = db.erase(key);
                }
                chained[op.port]->erase(key);
                res.failed += !matches(op, true, removed > 0, removed);
                continue;
            }
            {
                ScopedSpan s(tracer, homes_n, req.id(), i);
                slice.candidateHomes(key, homes);
            }
            caram::core::SearchResult rows, sl, full;
            {
                ScopedSpan s(tracer, rows_n, req.id(), i);
                slice.packSearchKey(key, packed);
                rows = slice.searchRows(packed, homes.data(),
                                        static_cast<unsigned>(homes.size()));
            }
            {
                ScopedSpan s(tracer, slice_n, req.id(), i);
                sl = slice.search(key);
            }
            {
                ScopedSpan s(tracer, db_n, req.id(), i);
                full = db.search(key);
            }
            std::optional<uint64_t> found;
            {
                ScopedSpan s(tracer, ch_n, req.id(), i);
                found = chained[op.port]->find(key);
            }
            res.failed += !matches(op, true, full.hit, full.data) ||
                          !matches(op, true, sl.hit, sl.data) ||
                          !matches(op, true, rows.hit, rows.data) ||
                          !matches(op, true, found.has_value(),
                                   found.value_or(0));
        }
    }
    const auto layerNs = [&](const char *name) {
        return tracer.medianSelfNs(name, layer_spans);
    };
    const double homes_ns = layerNs("hash.candidate_homes");
    const double rows_ns = layerNs("core.match.search_rows");
    const double slice_ns = layerNs("core.slice.search");
    const double db_ns = layerNs("core.database.search");
    const double chained_ns = layerNs("baseline.chained_hash.find");
    const double insert_ns = layerNs("core.database.insert");
    const double erase_ns = layerNs("core.database.erase");

    // Database::searchBatch over runs of same-port searches; a port's
    // run is flushed before that port's next mutation, so every batch
    // sees the state the oracle answered for.
    uint64_t batched_keys = 0;
    double batched_ns = 0.0;
    {
        const uint16_t batch_n = tracer.nameId("core.database.search_batch");
        live.stream->next(ops, kLayerPass);
        std::vector<std::size_t> run[kPorts];
        std::vector<Key> keys(kBatch);
        std::vector<const Key *> ptrs(kBatch);
        std::vector<caram::core::SearchResult> out(kBatch);
        const auto flush = [&](unsigned p) {
            const unsigned n = static_cast<unsigned>(run[p].size());
            if (n == 0)
                return;
            for (unsigned k = 0; k < n; ++k) {
                keys[k] = Key::fromUint(ops[run[p][k]].key, 32);
                ptrs[k] = &keys[k];
            }
            const int64_t t0 = nowNs();
            sys.database(p).searchBatch(ptrs.data(), n, out.data());
            const int64_t t1 = nowNs();
            tracer.record(batch_n, 0, run[p][0], t0, t1);
            batched_ns += static_cast<double>(t1 - t0);
            batched_keys += n;
            for (unsigned k = 0; k < n; ++k) {
                const Op &op = ops[run[p][k]];
                res.failed += !matches(op, true, out[k].hit, out[k].data);
                ++res.attempted;
            }
            run[p].clear();
        };
        for (std::size_t i = 0; i < ops.size(); ++i) {
            const Op &op = ops[i];
            if (op.kind == Kind::Search) {
                run[op.port].push_back(i);
                if (run[op.port].size() == kBatch)
                    flush(op.port);
                continue;
            }
            flush(op.port);
            const Key key = Key::fromUint(op.key, 32);
            caram::core::Database &db = sys.database(op.port);
            ++res.attempted;
            if (op.kind == Kind::Insert) {
                res.failed += !matches(op, true, db.insert({key, op.data}), 0);
            } else {
                const unsigned removed = db.erase(key);
                res.failed += !matches(op, true, removed > 0, removed);
            }
        }
        for (unsigned p = 0; p < kPorts; ++p)
            flush(p);
    }
    const double batch_ns_per_key =
        batched_keys ? batched_ns / static_cast<double>(batched_keys) : 0.0;

    res.layer("hash.candidate_homes_ns", homes_ns);
    res.layer("core.match.search_rows_ns", rows_ns);
    res.layer("core.slice.search_ns", slice_ns);
    res.layer("core.database.search_ns", db_ns);
    res.layer("core.database.search_batch_ns_per_key", batch_ns_per_key);
    res.layer("core.database.insert_ns", insert_ns);
    res.layer("core.database.erase_ns", erase_ns);
    res.layer("core.subsystem.process_ns", process_ns);
    res.layer("engine.vs_serial", serial_mops > 0 ? mops / serial_mops : 0);
    res.layer("engine.handoff_ns", lat.p50Ns() - db_ns);
    res.layer("engine.submit_wait_ns", submit_ns);
    res.layer("engine.wall_msps_reported", pass_reported);
    for (const auto &[name, v] : first.values) {
        if (name != "modeled_msps")
            res.layer(name, v);
    }
    res.layer("engine.bulk_load_s", median(bulk_s));
    res.layer("mem.storage_bytes_per_record", storage_bytes);
    res.layer("baseline.chained_hash.find_ns", chained_ns);
    res.layer("core.database.search_vs_chained_hash",
              chained_ns > 0 ? db_ns / chained_ns : 0.0);
    res.layer("bench.trace_overhead_frac",
              mops > 0 ? 1.0 - traced_mops / mops : 0.0);
    res.layer("bench.modeled_sched_dependent",
              static_cast<double>(res.schedulingDependent.size()));
    return res;
}

} // namespace perfbench
