#include "engine/parallel_search_engine.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <optional>
#include <set>
#include <string>

#include "common/logging.h"
#include "common/strings.h"
#include "engine/maintenance_engine.h"
#include "sim/spsc_block_queue.h"

namespace caram::engine {

namespace {

/**
 * The CARAM_* knob @p name parsed as a decimal integer in [@p lo, @p hi],
 * read fresh on every call (i.e. at each engine's construction) -- a
 * function-local cache would pin whatever value the first engine in the
 * process saw and silently ignore later environment changes.  nullopt
 * when unset, empty or garbage; garbage (not a number, or out of range)
 * warns once per variable.  The forced-feature CI legs set these so
 * every engine whose config leaves the knob unset runs the whole suite
 * with the feature on.
 */
std::optional<uint64_t>
env(const char *name, uint64_t lo, uint64_t hi)
{
    const char *text = std::getenv(name);
    if (!text || !*text)
        return std::nullopt;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || v < lo || v > hi) {
        static std::mutex warned_mutex;
        static std::set<std::string> warned;
        const std::lock_guard<std::mutex> lock(warned_mutex);
        if (warned.insert(name).second)
            warn(strprintf("%s=%s is not a number in [%llu, %llu]; the "
                           "setting stays config-controlled",
                           name, text,
                           static_cast<unsigned long long>(lo),
                           static_cast<unsigned long long>(hi)));
        return std::nullopt;
    }
    return v;
}

constexpr uint64_t kUnsignedMax = std::numeric_limits<unsigned>::max();

} // namespace

/** A request travelling through a worker queue, stamped at enqueue. */
struct ParallelSearchEngine::Job
{
    core::PortRequest request;
    std::chrono::steady_clock::time_point enqueued;
};

/** Per-port result stream and instrumentation. */
struct ParallelSearchEngine::PortState
{
    /**
     * The port's responses, in execution (= per-port FIFO) order, pushed
     * only by the port's owning worker (or, in inline mode, the
     * submitting caller).  Consumers (fetchResult(), from any thread)
     * take turns on fetchMutex, which no worker ever touches.
     */
    sim::SpscBlockQueue<core::PortResponse> results;
    alignas(sim::kCacheLineBytes) std::mutex fetchMutex;
    PortStats stats;
    /** Cached Database::searchBandwidthMsps (bit-cast double), written
     *  by refreshAnalyticBounds() at quiesced points and read by
     *  report() -- the live computation would read non-atomic slice
     *  load statistics while a worker mutates the table. */
    std::atomic<uint64_t> analyticBoundBits{0};
    /** Pre-filter consult/skip totals (main + overflow slice), also
     *  snapshot at quiesced points: the counters live on the slice
     *  object itself, and a worker-executed rebuildSwap replaces that
     *  object under report()'s feet. */
    std::atomic<uint64_t> prefilterProbesSnap{0};
    std::atomic<uint64_t> prefilterSkipsSnap{0};
};

/** One worker: its request ring, its doorbell and its private modeled
 *  clock.  The ring and the doorbell keep their producer-side state on
 *  their own cache lines, so the counters below (written by this thread
 *  for every request) never share a line with anything a producer
 *  writes or reads per request. */
struct ParallelSearchEngine::Worker
{
    explicit Worker(std::size_t capacity) : queue(capacity) {}
    sim::MpmcRing<Job> queue;
    /** Parked here when the ring is empty; producers ring after
     *  pushing (notifies only a parked thread). */
    sim::Doorbell bell;
    /** Busy cycles of this worker's modeled input controller.  Atomic
     *  (like the run counters below) because report() sums them while
     *  the run is still in flight. */
    std::atomic<uint64_t> modeledCycles{0};
    /** Wall-clock end stamp (ns since wallStart) of the last response
     *  this thread published; report() takes the max over threads. */
    std::atomic<uint64_t> wallEndNs{0};
    /** Batched-run scratch (sized once, reused across runs). */
    std::vector<const Key *> keyPtrs;
    std::vector<core::SearchResult> batchResults;
    /** Bulk-ingest scratch (sized once, reused across runs). */
    std::vector<core::Record> records;
    std::vector<int> priorities;
    std::vector<core::InsertOutcome> outcomes;
    /** Merged row-op accounting of this worker's insert runs, under
     *  ingestMutex (a struct of counters cannot be read atomically). */
    std::mutex ingestMutex;
    core::InsertBatchSummary ingest;
    /** Run counters (EngineReport). */
    std::atomic<uint64_t> batchedSearchRuns{0};
    std::atomic<uint64_t> batchedInsertRuns{0};
    /** Result-cache stamping scratch: candidate-home scratch for
     *  Database::searchRegionMask, and the per-key region masks /
     *  stamps of one batched segment (captured before the slice
     *  search runs). */
    std::vector<uint64_t> maskHomes;
    std::vector<uint64_t> fillMasks;
    std::vector<uint64_t> fillStamps;
    /** Fan-out scratch: the packed key every shard reads, the
     *  candidate home rows left after pre-filter pruning (and how many
     *  were pruned), and one result slot per shard.  All pre-sized
     *  after the first fan-out, so steady-state fan-out lookups
     *  allocate nothing -- and strictly worker-local, never the
     *  slice's own scratch (CaRamSlice's single-owner rule). */
    core::MatchProcessor::PackedKey fanoutPacked;
    std::vector<uint64_t> fanoutHomes;
    unsigned fanoutPruned = 0;
    std::array<core::SearchResult, kMaxFanoutShards> shardResults;
    /** Fan-out counters (EngineReport). */
    std::atomic<uint64_t> fanoutLookups{0};
    std::atomic<uint64_t> fanoutShards{0};
    std::atomic<uint64_t> fanoutSerialFallbacks{0};
};

ParallelSearchEngine::ParallelSearchEngine(core::CaRamSubsystem &subsystem,
                                           EngineConfig config)
    : sys(&subsystem), cfg(config),
      workerCount(std::max(1u, cfg.workers))
{
    if (sys->databaseCount() == 0)
        fatal("parallel search engine needs at least one database");
    if (cfg.queueCapacity == 0)
        fatal("engine queue capacity must be nonzero");
    if (cfg.drainBatch == 0)
        cfg.drainBatch = 1;
    cfg.rowFanoutMaxShards =
        std::clamp(cfg.rowFanoutMaxShards, 1u, kMaxFanoutShards);
    rowFanoutMin_ = cfg.rowFanoutMin;
    if (rowFanoutMin_ == 0) {
        if (const auto v = env("CARAM_ROW_FANOUT_MIN", 0, kUnsignedMax))
            rowFanoutMin_ = static_cast<unsigned>(*v);
    }
    // Result cache: an explicit config value (including an explicit 0,
    // which pins the cache off) always wins over the environment.
    std::size_t cache_entries = cfg.resultCacheEntries.value_or(0);
    if (!cfg.resultCacheEntries.has_value()) {
        if (const auto v =
                env("CARAM_RESULT_CACHE_ENTRIES", 0,
                    std::numeric_limits<std::size_t>::max()))
            cache_entries = static_cast<std::size_t>(*v);
    }
    if (cache_entries > 0) {
        resultCache_ = std::make_unique<ResultCache>(
            cache_entries, cfg.resultCacheWays,
            static_cast<unsigned>(sys->databaseCount()));
    }
    // Pre-filter: an explicit config value (including an explicit
    // false, which pins the filter off) always wins over the
    // environment.  The flag lives on the slices themselves, so
    // rebuildSwap() replacements inherit it without engine help.
    prefilter_ = cfg.prefilter.value_or(false);
    if (!cfg.prefilter.has_value()) {
        if (const auto v = env("CARAM_PREFILTER", 0, 1))
            prefilter_ = *v != 0;
    }
    for (std::size_t p = 0; p < sys->databaseCount(); ++p) {
        sys->database(static_cast<unsigned>(p))
            .setPrefilterEnabled(prefilter_);
    }
    // Maintenance: an explicit config value (including an explicit
    // false, which pins it off) always wins over the environment.
    // Inline mode has no background execution authority, so the knob
    // is ignored there regardless of source.
    bool maintenance = cfg.maintenance.value_or(false);
    if (!cfg.maintenance.has_value()) {
        if (const auto v = env("CARAM_MAINTENANCE", 0, 1))
            maintenance = *v != 0;
    }
    if (cfg.workers == 0)
        maintenance = false;
    if (maintenance)
        maintenance_ = std::make_unique<MaintenanceEngine>(*this);
    // Idle workers spin before parking only when every engine thread,
    // plus one producer, can have a core to itself: a spinner on a
    // shared core takes time from a thread that has work.
    const unsigned threads = 1 + cfg.workers + (maintenance ? 1 : 0);
    if (threads <= std::thread::hardware_concurrency())
        idleSpin_ = sim::Doorbell::kSpin;
    for (std::size_t p = 0; p < sys->databaseCount(); ++p)
        ports.push_back(std::make_unique<PortState>());
    refreshAnalyticBounds(); // pre-thread: nothing can be mutating yet
    for (unsigned w = 0; w < workerCount; ++w)
        workers.push_back(std::make_unique<Worker>(cfg.queueCapacity));
    wallStart = std::chrono::steady_clock::now();
}

ParallelSearchEngine::~ParallelSearchEngine()
{
    stop();
}

unsigned
ParallelSearchEngine::workerOf(unsigned port) const
{
    return port % workerCount;
}

void
ParallelSearchEngine::start()
{
    if (running || stopped || cfg.workers == 0)
        return;
    running = true;
    wallStart = std::chrono::steady_clock::now();
    for (unsigned w = 0; w < cfg.workers; ++w)
        threads.emplace_back([this, w] { workerMain(w); });
    if (maintenance_)
        maintenance_->start();
}

void
ParallelSearchEngine::finishResponse(
    core::PortResponse resp,
    std::chrono::steady_clock::time_point enqueued, unsigned worker_index)
{
    PortState &port = *ports[resp.port];
    const bool hit = resp.hit;
    const bool ok = resp.ok;
    if (resp.op == core::PortOp::Search)
        port.stats.bucketsAccessed.add(resp.bucketsAccessed);

    const auto now = std::chrono::steady_clock::now();
    const double us =
        std::chrono::duration_cast<std::chrono::nanoseconds>(now -
                                                             enqueued)
            .count() /
        1e3;
    port.stats.latencyUs.add(us);
    port.stats.latencyLog2Us.add(
        static_cast<uint64_t>(std::floor(std::log2(1.0 + us))));

    // The result stream has one producer: the port's owning worker (in
    // inline mode, the submitting caller).  The push precedes the
    // seq_cst `completed` increment below, so a drain() that sees the
    // count is followed by a fetchResult() that sees the response.
    port.results.push(std::move(resp));

    // Store this thread's wall-clock end stamp *before* advancing the
    // completion counters: report() reads `completed` first (acquire,
    // pairing with the release below), so every completion it counts
    // has already published its end stamp, and a mid-run wallMsps can
    // understate but never inflate the throughput.  Each worker owns
    // its stamp (one writer, so it only grows); report() takes the
    // max.
    workers[worker_index]->wallEndNs.store(
        static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                now - wallStart)
                .count()),
        std::memory_order_relaxed);
    if (hit)
        port.stats.hits.fetch_add(1, std::memory_order_relaxed);
    if (!ok)
        port.stats.errors.fetch_add(1, std::memory_order_relaxed);
    // seq_cst: drain()'s predicate (inflightCount) re-checks this
    // counter after raising drainers_ -- see wakeDrain().
    port.stats.completed.fetch_add(1, std::memory_order_seq_cst);
}

bool
ParallelSearchEngine::fanoutEligible(core::Database &db, const Key &key,
                                     Worker &self)
{
    if (rowFanoutMin_ == 0)
        return false;
    // Fully specified keys have exactly one candidate home: only a
    // forced threshold of <= 1 routes them through the shard walk
    // (single-shard coverage of the fan-out machinery).
    if (rowFanoutMin_ > 1 && key.fullySpecified())
        return false;
    if (key.bits() != db.slice().config().logicalKeyBits)
        return false; // let the serial path report the width mismatch
    db.slice().candidateHomes(key, self.fanoutHomes);
    // Shard pruning: homes whose whole chain the filter proves empty
    // never join a shard (they contribute zero accesses either way, so
    // the merged result stays bit-identical to the serial filtered
    // walk).  The pruned homes are charged to the filter's counters
    // only if the lookup fans out (executeFanoutSearch); a lookup
    // pruned below the threshold falls back to the serial path, which
    // consults and skips the same rows itself.
    self.fanoutPruned =
        db.slice().prefilterPruneHomes(key, self.fanoutHomes);
    return self.fanoutHomes.size() >= rowFanoutMin_;
}

void
ParallelSearchEngine::executeFanoutSearch(
    core::Database &db, const core::PortRequest &request,
    std::chrono::steady_clock::time_point enqueued, unsigned worker_index)
{
    Worker &self = *workers[worker_index];
    core::CaRamSlice &sl = db.slice();
    // Stamp capture before any shard touches the table.  The region
    // mask is recomputed from the FULL candidate home set -- the
    // pruned fanoutHomes scratch is not enough, because a pre-filter-
    // pruned home that later gains a matching record must still
    // invalidate this entry.
    uint64_t cache_mask = 0;
    uint64_t cache_stamp = 0;
    if (resultCache_) {
        cache_mask = db.searchRegionMask(request.key, self.maskHomes);
        cache_stamp =
            resultCache_->captureStamp(request.port, cache_mask);
    }
    const auto nhomes = static_cast<unsigned>(self.fanoutHomes.size());
    const unsigned nshards = std::min(cfg.rowFanoutMaxShards, nhomes);
    self.fanoutLookups.fetch_add(1, std::memory_order_relaxed);
    if (nshards <= 1)
        self.fanoutSerialFallbacks.fetch_add(1,
                                             std::memory_order_relaxed);
    else
        self.fanoutShards.fetch_add(nshards, std::memory_order_relaxed);

    sl.packSearchKey(request.key, self.fanoutPacked);
    // Walk every shard on this thread, in home order.  No shard stops
    // early on another's hit: the modeled charge below needs each
    // shard's own chain length, exactly as if the banks had fetched
    // concurrently, and the merge discards the speculative work.
    const uint64_t *homes = self.fanoutHomes.data();
    const unsigned base = nhomes / nshards;
    const unsigned rem = nhomes % nshards;
    unsigned offset = 0;
    uint64_t slowest = 0;
    for (unsigned s = 0; s < nshards; ++s) {
        const unsigned count = base + (s < rem ? 1 : 0);
        self.shardResults[s] =
            sl.searchRows(self.fanoutPacked, homes + offset, count);
        slowest = std::max<uint64_t>(slowest,
                                     self.shardResults[s].bucketsAccessed);
        offset += count;
    }

    core::SearchResult merged = core::CaRamSlice::mergeShardResults(
        self.shardResults.data(), nshards, sl.config().lpm);
    // The slice's counters advance exactly as one serial search()
    // reporting this many accesses would (we are the port's owning
    // worker, so the single-owner rule holds) -- the pruned homes
    // included, as the consults and skips the serial walk makes.
    sl.noteFanoutSearch(merged.bucketsAccessed, self.fanoutPruned);
    const uint64_t overflow_fetches =
        db.mergeOverflowResult(request.key, merged);
    if (resultCache_)
        resultCache_->fill(request.port, request.key, merged,
                           cache_stamp, cache_mask);

    // Modeled cost: the shards fetch from independent banks
    // simultaneously (the paper's multi-bank overlap), so the lookup
    // occupies the port for the *slowest* shard's chain -- including
    // shards the serial early exit would have skipped, because the
    // hardware dispatches every bank before any verdict is known.  A
    // parallel overflow area overlaps the same way.
    const uint64_t accesses =
        std::max<uint64_t>(1, std::max(slowest, overflow_fetches));
    const uint64_t cycles =
        accesses * std::max(1u, cfg.timing.minCycleGap);
    PortState &port = *ports[request.port];
    port.stats.modeledCycles.fetch_add(cycles, std::memory_order_relaxed);
    self.modeledCycles.fetch_add(cycles, std::memory_order_relaxed);

    core::PortResponse resp;
    resp.tag = request.tag;
    resp.port = request.port;
    resp.op = core::PortOp::Search;
    resp.hit = merged.hit;
    resp.data = merged.data;
    resp.key = merged.key;
    resp.bucketsAccessed = merged.bucketsAccessed;
    finishResponse(std::move(resp), enqueued, worker_index);
}

bool
ParallelSearchEngine::probeCache(const core::PortRequest &request,
                                 core::SearchResult &out)
{
    if (!resultCache_)
        return false;
    PortStats &stats = ports[request.port]->stats;
    if (resultCache_->probe(request.port, request.key, out)) {
        stats.cacheHits.fetch_add(1, std::memory_order_relaxed);
        return true;
    }
    stats.cacheMisses.fetch_add(1, std::memory_order_relaxed);
    return false;
}

void
ParallelSearchEngine::publishCached(
    const core::PortRequest &request, const core::SearchResult &cached,
    std::chrono::steady_clock::time_point enqueued, unsigned worker_index)
{
    // Zero modeled cycles: the cached reply activates no rows, so the
    // port's bank is never occupied -- this is the entire throughput
    // claim of the hot-key cache.  The response fields (including the
    // replayed bucketsAccessed, which keeps the AMAL histogram
    // identical to the uncached engine's) are bit-identical to what
    // the slice search would have produced on the unmutated table.
    core::PortResponse resp;
    resp.tag = request.tag;
    resp.port = request.port;
    resp.op = core::PortOp::Search;
    resp.hit = cached.hit;
    resp.data = cached.data;
    resp.key = cached.key;
    resp.bucketsAccessed = cached.bucketsAccessed;
    finishResponse(std::move(resp), enqueued, worker_index);
}

void
ParallelSearchEngine::invalidateCache(unsigned port, bool wholePort)
{
    if (!resultCache_)
        return;
    // The mutation already executed: drain the rows it dirtied and
    // bump exactly their regions (rebuilds and bulk loads bump the
    // whole port -- a repack moves records between rows wholesale, so
    // even an untouched region's cached bucketsAccessed could change).
    // Bumping *after* the mutation is safe because every request of the
    // port runs on its owning worker (inline: the caller), so no probe
    // of this port can run between the mutation and the bump.
    // The dirty mask is drained even on the whole-port path so stale
    // bits never leak into a later mutation's bump.
    const uint64_t dirty = sys->database(port).takeDirtyRegionMask();
    if (wholePort)
        resultCache_->invalidate(port);
    else
        resultCache_->invalidateRegions(port, dirty);
    ports[port]->stats.cacheInvalidations.fetch_add(
        1, std::memory_order_relaxed);
}

void
ParallelSearchEngine::execute(
    const core::PortRequest &request,
    std::chrono::steady_clock::time_point enqueued, unsigned worker_index)
{
    if (request.op == core::PortOp::Maintenance) {
        // Engine-internal maintenance step: runs here, on the port's
        // owning worker in the port's FIFO position, so the owner stays
        // the single mutation authority.  No response, no per-port
        // stats; the modeled row operations are charged to this worker
        // so the interference shows up in modeled throughput.
        core::Database &db = sys->database(request.port);
        uint64_t row_ops = 0;
        if (maintenance_ &&
            db.powerState() == core::PowerState::Active)
            row_ops = maintenance_->executeStep(db, request.port);
        if (row_ops > 0) {
            invalidateCache(request.port, /*wholePort=*/false);
            const uint64_t cycles =
                row_ops * std::max(1u, cfg.timing.minCycleGap);
            workers[worker_index]->modeledCycles.fetch_add(
                cycles, std::memory_order_relaxed);
        }
        maintenanceInflight_.fetch_sub(1, std::memory_order_seq_cst);
        return;
    }
    // A user Erase or Rebuild must not observe the transient duplicate
    // of a tear-interrupted migration (the Erase would remove and
    // count both copies; a Rebuild would repack them into two live
    // records): retire the far copy first.
    if (maintenance_ && (request.op == core::PortOp::Erase ||
                         request.op == core::PortOp::Rebuild)) {
        core::Database &db = sys->database(request.port);
        if (db.powerState() == core::PowerState::Active)
            maintenance_->completePending(db, request.port);
    }
    if (request.op == core::PortOp::Search) {
        if (resultCache_ || rowFanoutMin_ > 0) {
            core::Database &db = sys->database(request.port);
            if (db.powerState() == core::PowerState::Active) {
                // Cache probe first: a hit short-circuits the slice
                // search *and* the fan-out machinery.
                core::SearchResult cached;
                if (probeCache(request, cached)) {
                    publishCached(request, cached, enqueued,
                                  worker_index);
                    return;
                }
                if (rowFanoutMin_ > 0 &&
                    fanoutEligible(db, request.key,
                                   *workers[worker_index])) {
                    executeFanoutSearch(db, request, enqueued,
                                        worker_index);
                    return;
                }
            }
        }
    }
    // Stamp capture *before* the search runs: a mutation slipping in
    // between (impossible on the engine's serialized ports, but the
    // discipline is what the cache's coherence argument rests on)
    // would make the fill below unservable rather than stale.  The
    // region mask covers the lookup's full candidate home set; a
    // retained database or a width-mismatched key never reaches the
    // fill (resp.ok is false), so the mask is only computed when the
    // search will actually run.
    uint64_t cache_mask = 0;
    uint64_t cache_stamp = 0;
    core::Database &req_db = sys->database(request.port);
    if (resultCache_ && request.op == core::PortOp::Search &&
        req_db.powerState() == core::PowerState::Active &&
        request.key.bits() ==
            req_db.slice().config().logicalKeyBits) {
        cache_mask = req_db.searchRegionMask(
            request.key, workers[worker_index]->maskHomes);
        cache_stamp =
            resultCache_->captureStamp(request.port, cache_mask);
    }
    // Threaded engines pass their epoch domain, so a Rebuild becomes a
    // rebuildSwap and a concurrent peek() never reads a half-repacked
    // slice.  Inline engines have no other thread to protect.
    core::PortResponse resp = core::executePortRequest(
        req_db, request, cfg.workers > 0 ? &epochDomain_ : nullptr);
    if (request.op != core::PortOp::Search) {
        // Row-granular coherence: the mutation ran, its dirty rows are
        // known -- bump exactly their regions (whole port for Rebuild:
        // a repack can change any cached entry's bucketsAccessed).
        invalidateCache(request.port,
                        request.op == core::PortOp::Rebuild);
    } else if (resultCache_ && resp.ok) {
        core::SearchResult r;
        r.hit = resp.hit;
        r.data = resp.data;
        r.key = resp.key;
        r.bucketsAccessed = resp.bucketsAccessed;
        resultCache_->fill(request.port, request.key, r, cache_stamp,
                           cache_mask);
    }

    // Modeled cost: the lookup occupies this worker's bank for n_mem
    // cycles per bucket accessed (probe chains are sequential); every
    // request costs at least one access slot.
    const uint64_t accesses = std::max(1u, resp.bucketsAccessed);
    const uint64_t cycles =
        accesses * std::max(1u, cfg.timing.minCycleGap);

    PortState &port = *ports[request.port];
    port.stats.modeledCycles.fetch_add(cycles, std::memory_order_relaxed);
    workers[worker_index]->modeledCycles.fetch_add(
        cycles, std::memory_order_relaxed);

    finishResponse(std::move(resp), enqueued, worker_index);
}

void
ParallelSearchEngine::executeSearchRun(const Job *jobs, std::size_t count,
                                       unsigned worker_index)
{
    const unsigned port_no = jobs[0].request.port;
    core::Database &db = sys->database(port_no);
    if (db.powerState() != core::PowerState::Active) {
        // Retained database: fall back to the serial path, which
        // produces the per-request error responses.
        for (std::size_t i = 0; i < count; ++i)
            execute(jobs[i].request, jobs[i].enqueued, worker_index);
        return;
    }

    if (rowFanoutMin_ == 0 && !resultCache_) {
        executeBatchSegment(db, jobs, count, worker_index);
        return;
    }

    // Cache hits and fan-out-eligible keys leave the batch.  A hit
    // never touches the slice at all; a fan-out key would make
    // searchBatch walk its many home chains inside the chunk (its
    // multi-home fallback) and charge their sum, the very cost the
    // fan-out replaces with its slowest shard.  The segments between
    // them still batch,
    // and responses are published in submission order under any split
    // -- the preceding miss segment always flushes before a cached
    // response goes out, so per-port FIFO (and bit-identity against
    // the serial oracle) is preserved.
    Worker &self = *workers[worker_index];
    std::size_t seg = 0;
    for (std::size_t k = 0; k < count; ++k) {
        core::SearchResult cached;
        if (probeCache(jobs[k].request, cached)) {
            if (k > seg)
                executeBatchSegment(db, jobs + seg, k - seg,
                                    worker_index);
            publishCached(jobs[k].request, cached, jobs[k].enqueued,
                          worker_index);
            seg = k + 1;
            continue;
        }
        if (rowFanoutMin_ == 0)
            continue;
        // Single-home (fully specified) keys always stay in the batch,
        // even under a forced threshold of 1: sharding a one-home chain
        // cannot help, and pulling the key out would destroy the run's
        // row sharing.
        if (jobs[k].request.key.fullySpecified() ||
            !fanoutEligible(db, jobs[k].request.key, self))
            continue;
        if (k > seg)
            executeBatchSegment(db, jobs + seg, k - seg, worker_index);
        executeFanoutSearch(db, jobs[k].request, jobs[k].enqueued,
                            worker_index);
        seg = k + 1;
    }
    if (count > seg)
        executeBatchSegment(db, jobs + seg, count - seg, worker_index);
}

void
ParallelSearchEngine::executeBatchSegment(core::Database &db,
                                          const Job *jobs,
                                          std::size_t count,
                                          unsigned worker_index)
{
    const unsigned port_no = jobs[0].request.port;
    Worker &self = *workers[worker_index];
    self.keyPtrs.clear();
    for (std::size_t i = 0; i < count; ++i)
        self.keyPtrs.push_back(&jobs[i].request.key);
    if (self.batchResults.size() < count)
        self.batchResults.resize(count);
    if (resultCache_) {
        // Per-key stamp capture before the batched walk runs: each
        // fill is stamped with its own key's candidate home-row
        // coverage, so a later mutation invalidates exactly the keys
        // whose regions it dirtied.
        if (self.fillMasks.size() < count) {
            self.fillMasks.resize(count);
            self.fillStamps.resize(count);
        }
        for (std::size_t i = 0; i < count; ++i) {
            self.fillMasks[i] = db.searchRegionMask(jobs[i].request.key,
                                                    self.maskHomes);
            self.fillStamps[i] =
                resultCache_->captureStamp(port_no, self.fillMasks[i]);
        }
    }
    const uint64_t fetches =
        db.searchBatch(self.keyPtrs.data(), static_cast<unsigned>(count),
                       self.batchResults.data());
    if (resultCache_) {
        // Negative results are cached too: a repeated miss replays the
        // same (deterministic) empty-handed chain walk.
        for (std::size_t i = 0; i < count; ++i)
            resultCache_->fill(port_no, jobs[i].request.key,
                               self.batchResults[i], self.fillStamps[i],
                               self.fillMasks[i]);
    }

    // Modeled cost of the whole run: the bank is occupied once per
    // *distinct* row fetch -- a row matched for a whole group of keys
    // cost one access where the serial controller would pay one per
    // key.  This is the batched pipeline's bandwidth claim, and the
    // per-response bucketsAccessed below still reports the
    // serial-equivalent counts for the AMAL statistics.
    const uint64_t cycles = std::max<uint64_t>(1, fetches) *
                            std::max(1u, cfg.timing.minCycleGap);
    PortState &port = *ports[port_no];
    port.stats.modeledCycles.fetch_add(cycles, std::memory_order_relaxed);
    self.modeledCycles.fetch_add(cycles, std::memory_order_relaxed);
    self.batchedSearchRuns.fetch_add(1, std::memory_order_relaxed);

    for (std::size_t i = 0; i < count; ++i) {
        const core::SearchResult &r = self.batchResults[i];
        core::PortResponse resp;
        resp.tag = jobs[i].request.tag;
        resp.port = port_no;
        resp.op = core::PortOp::Search;
        resp.hit = r.hit;
        resp.data = r.data;
        resp.key = r.key;
        resp.bucketsAccessed = r.bucketsAccessed;
        finishResponse(std::move(resp), jobs[i].enqueued, worker_index);
    }
}

void
ParallelSearchEngine::executeInsertRun(const Job *jobs, std::size_t count,
                                       unsigned worker_index)
{
    const unsigned port_no = jobs[0].request.port;
    core::Database &db = sys->database(port_no);
    if (db.powerState() != core::PowerState::Active) {
        // Retained database: the serial path produces the per-request
        // error responses.
        for (std::size_t i = 0; i < count; ++i)
            execute(jobs[i].request, jobs[i].enqueued, worker_index);
        return;
    }

    Worker &self = *workers[worker_index];
    self.records.clear();
    self.priorities.clear();
    for (std::size_t i = 0; i < count; ++i) {
        self.records.push_back(
            core::Record{jobs[i].request.key, jobs[i].request.data});
        self.priorities.push_back(jobs[i].request.priority);
    }
    if (self.outcomes.size() < count)
        self.outcomes.resize(count);
    const core::InsertBatchSummary sum = db.insertBatch(
        std::span<const core::Record>(self.records), self.outcomes.data(),
        self.priorities.data());
    {
        std::lock_guard<std::mutex> lock(self.ingestMutex);
        self.ingest.merge(sum);
    }
    self.batchedInsertRuns.fetch_add(1, std::memory_order_relaxed);

    // Invalidate *after* the batch lands: the slice accumulated the
    // exact dirty-region mask while the guards ran, and per-port
    // serialization guarantees no search on this port probes between
    // the writes and this bump.
    invalidateCache(port_no, /*wholePort=*/false);

    // Modeled cost: a serial CAM-mode insert occupies the bank for one
    // access slot per request (inserts report no bucketsAccessed), so
    // the run charges exactly what serial execution would -- modeled
    // accounting stays bit-identical, and the row-op economy of the
    // bulk path is reported through the ingest summary instead.
    const uint64_t cycles =
        count * std::max(1u, cfg.timing.minCycleGap);
    PortState &port = *ports[port_no];
    port.stats.modeledCycles.fetch_add(cycles, std::memory_order_relaxed);
    self.modeledCycles.fetch_add(cycles, std::memory_order_relaxed);

    for (std::size_t i = 0; i < count; ++i) {
        core::PortResponse resp;
        resp.tag = jobs[i].request.tag;
        resp.port = port_no;
        resp.op = core::PortOp::Insert;
        resp.hit = self.outcomes[i].ok;
        finishResponse(std::move(resp), jobs[i].enqueued, worker_index);
    }
}

uint64_t
ParallelSearchEngine::inflightCount() const
{
    // Per port, `submitted` is read before `completed`: a request is
    // counted submitted before it is published and completed after its
    // response, so a difference is only ever understated by requests
    // submitted while this runs.
    uint64_t n = maintenanceInflight_.load(std::memory_order_seq_cst);
    for (const auto &p : ports) {
        const uint64_t submitted =
            p->stats.submitted.load(std::memory_order_seq_cst);
        const uint64_t completed =
            p->stats.completed.load(std::memory_order_seq_cst);
        n += submitted > completed ? submitted - completed : 0;
    }
    return n;
}

void
ParallelSearchEngine::wakeDrain()
{
    // Dekker pair with drain(): the caller's completions (seq_cst
    // increments) precede this seq_cst load, and drain() raises the
    // flag before its locked predicate re-check, so either drain()
    // sees the completions or this load sees the flag.
    if (drainers_.load(std::memory_order_seq_cst) == 0)
        return;
    { std::lock_guard<std::mutex> lock(drainMutex); }
    drainCv.notify_all();
}

void
ParallelSearchEngine::ring(unsigned index)
{
    workers[index]->bell.ring();
}

void
ParallelSearchEngine::workerMain(unsigned index)
{
    Worker &self = *workers[index];
    std::vector<Job> batch;
    for (;;) {
        if (self.queue.tryPopBatch(batch, cfg.drainBatch) > 0) {
            processJobs(batch, index);
            continue;
        }
        if (self.queue.closed() && self.queue.empty())
            break;
        // Nothing queued: spin (idleSpin_), then park on the doorbell.
        // Every source the predicate reads is published seq_cst before
        // its publisher rings (submits, stop()).
        self.bell.wait(
            [&] { return !self.queue.empty() || self.queue.closed(); },
            idleSpin_);
    }
}

void
ParallelSearchEngine::processJobs(const std::vector<Job> &batch,
                                  unsigned index)
{
    std::size_t i = 0;
    while (i < batch.size()) {
        // Extend a run of same-port searches -- or same-port inserts --
        // up to batchSize; any other request (or a port change) flushes
        // the run, so mutations never reorder against the requests
        // around them.
        std::size_t j = i;
        const core::PortOp op = batch[i].request.op;
        if (cfg.batchSize > 1 &&
            (op == core::PortOp::Search || op == core::PortOp::Insert)) {
            while (j + 1 < batch.size() && j + 1 - i < cfg.batchSize &&
                   batch[j + 1].request.op == op &&
                   batch[j + 1].request.port == batch[i].request.port)
                ++j;
        }
        if (j > i && op == core::PortOp::Search)
            executeSearchRun(batch.data() + i, j - i + 1, index);
        else if (j > i)
            executeInsertRun(batch.data() + i, j - i + 1, index);
        else
            execute(batch[i].request, batch[i].enqueued, index);
        i = j + 1;
    }
    wakeDrain();
}

bool
ParallelSearchEngine::enqueue(const core::PortRequest &request,
                              bool block, bool ringNow)
{
    if (request.port >= ports.size() || stopped)
        return false;
    const auto now = std::chrono::steady_clock::now();
    if (cfg.workers == 0) {
        // Deterministic fallback: run inline on the calling thread.
        ++ports[request.port]->stats.submitted;
        execute(request, now, workerOf(request.port));
        return true;
    }
    // Count the submission *before* publishing the job: once the push
    // succeeds the owning worker can complete the request at any
    // moment, and a submitted count that trails the push lets a
    // concurrent report() or drain() observe completed > submitted
    // (and tears a plain counter under TSan).  A rejected push rolls
    // it back.  `submitted` is the only counter a submit writes, and it
    // sits on a cache line of its own: only producers write it.
    PortStats &stats = ports[request.port]->stats;
    stats.submitted.fetch_add(1, std::memory_order_seq_cst);
    const unsigned owner = workerOf(request.port);
    auto &queue = workers[owner]->queue;
    Job job{request, now};
    bool pushed = queue.tryPush(std::move(job));
    if (!pushed && block && !queue.closed()) {
        // Full: the owner may be parked without a ring for pushes this
        // caller deferred (submitBatch), so ring before waiting.
        ring(owner);
        pushed = queue.push(std::move(job));
    }
    if (!pushed) {
        // Ring full (non-blocking) or closed: roll the count back.
        stats.submitted.fetch_sub(1, std::memory_order_seq_cst);
        wakeDrain();
        return false;
    }
    if (ringNow)
        ring(owner);
    return true;
}

bool
ParallelSearchEngine::submitRequest(const core::PortRequest &request)
{
    return enqueue(request, /*block=*/true);
}

bool
ParallelSearchEngine::submit(unsigned port, const Key &key, uint64_t tag)
{
    return enqueue({.port = port, .key = key, .tag = tag},
                   /*block=*/true);
}

bool
ParallelSearchEngine::trySubmit(unsigned port, const Key &key,
                                uint64_t tag)
{
    return enqueue({.port = port, .key = key, .tag = tag},
                   /*block=*/false);
}

bool
ParallelSearchEngine::submitMaintenanceStep(unsigned port)
{
    if (stopped || !running || port >= ports.size())
        return false;
    core::PortRequest req;
    req.port = port;
    req.op = core::PortOp::Maintenance;
    // Counts toward maintenanceInflight_ only -- drain() must cover an
    // in-flight step (it mutates the table), but no response is
    // produced, so the per-port submitted/completed counters stay
    // foreground-only.
    maintenanceInflight_.fetch_add(1, std::memory_order_seq_cst);
    if (!workers[workerOf(port)]->queue.tryPush(
            Job{req, std::chrono::steady_clock::now()})) {
        maintenanceInflight_.fetch_sub(1, std::memory_order_seq_cst);
        wakeDrain();
        return false;
    }
    ring(workerOf(port));
    return true;
}

uint64_t
ParallelSearchEngine::completedCount() const
{
    uint64_t done = 0;
    for (const auto &port : ports)
        done += port->stats.completed.load(std::memory_order_relaxed);
    return done;
}

std::size_t
ParallelSearchEngine::submitBatch(
    std::span<const core::PortRequest> requests)
{
    // One doorbell per owning worker per call: the pushes go out
    // unrung and each worker that received any is rung once at the end
    // (enqueue() still rings an owner before waiting on its full ring).
    std::vector<bool> touched(workerCount, false);
    std::size_t accepted = 0;
    for (const core::PortRequest &req : requests) {
        if (!enqueue(req, /*block=*/true, /*ringNow=*/false))
            break;
        touched[workerOf(req.port)] = true;
        ++accepted;
    }
    for (unsigned w = 0; w < workerCount; ++w)
        if (touched[w])
            ring(w);
    return accepted;
}

bool
ParallelSearchEngine::submitRebuild(unsigned port, uint64_t tag)
{
    core::PortRequest req;
    req.port = port;
    req.op = core::PortOp::Rebuild;
    req.tag = tag;
    return submitRequest(req);
}

core::InsertBatchSummary
ParallelSearchEngine::bulkLoad(unsigned port,
                               std::span<const core::Record> records,
                               core::InsertOutcome *outcomes,
                               const int *priorities)
{
    if (port >= ports.size() || running) {
        // A caller error, not an engine fault: reject every record.  (A
        // running port's database belongs to its executing thread.)
        if (outcomes != nullptr)
            std::fill_n(outcomes, records.size(), core::InsertOutcome{});
        core::InsertBatchSummary rejected;
        rejected.failed = records.size();
        return rejected;
    }
    // Whole-port: a bulk load can touch most of the table, and with
    // the engine stopped no probe can race the bump anyway.
    invalidateCache(port, /*wholePort=*/true);
    return sys->database(port).insertBatch(records, outcomes, priorities);
}

void
ParallelSearchEngine::drain()
{
    if (cfg.workers == 0 || !running)
        return; // inline mode is always drained
    // Pause the maintenance planner for the wait: its steps count
    // toward the in-flight total, so an unpaused planner could keep it
    // bouncing off zero indefinitely.  The count also asks every
    // executing thread to ring drainCv after each batch (wakeDrain).
    drainers_.fetch_add(1, std::memory_order_seq_cst);
    {
        std::unique_lock<std::mutex> lock(drainMutex);
        drainCv.wait(lock, [&] { return inflightCount() == 0; });
    }
    // Quiesced window: nothing is in flight (maintenance steps
    // included) and the paused planner cannot submit a new one until
    // the count below drops, so no thread is mutating the tables.  A
    // response is published only after its request's last table
    // write, so a completed count covers the work behind it.
    refreshAnalyticBounds();
    drainers_.fetch_sub(1, std::memory_order_release);
}

void
ParallelSearchEngine::refreshAnalyticBounds()
{
    for (std::size_t p = 0; p < ports.size(); ++p) {
        core::Database &db = sys->database(static_cast<unsigned>(p));
        const double bound = db.searchBandwidthMsps(cfg.timing);
        ports[p]->analyticBoundBits.store(std::bit_cast<uint64_t>(bound),
                                          std::memory_order_relaxed);
        uint64_t probes = db.slice().prefilterProbes();
        uint64_t skips = db.slice().prefilterSkips();
        if (const core::CaRamSlice *ov = db.overflowSlice()) {
            probes += ov->prefilterProbes();
            skips += ov->prefilterSkips();
        }
        ports[p]->prefilterProbesSnap.store(probes,
                                            std::memory_order_relaxed);
        ports[p]->prefilterSkipsSnap.store(skips,
                                           std::memory_order_relaxed);
    }
}

void
ParallelSearchEngine::stop()
{
    if (stopped)
        return;
    // Planner first: no new maintenance steps once the drain starts.
    if (maintenance_)
        maintenance_->stopPlanner();
    if (running)
        drain();
    stopped = true;
    for (auto &w : workers)
        w->queue.close();
    for (unsigned w = 0; w < workers.size(); ++w)
        ring(w); // wake parked workers so they observe close
    for (std::thread &t : threads)
        t.join();
    threads.clear();
    running = false;
    // With every execution thread joined, retire any migration the
    // tear hook left half-done so the stopped tables hold exactly one
    // copy per record (peek() readers stay safe: this is the ordinary
    // quiesce-then-remove phase 2).
    if (maintenance_)
        maintenance_->flushAllPending();
    refreshAnalyticBounds(); // post-join: covers the flushed removals
}

std::optional<core::PortResponse>
ParallelSearchEngine::fetchResult(unsigned port)
{
    if (port >= ports.size())
        return std::nullopt;
    PortState &state = *ports[port];
    std::lock_guard<std::mutex> lock(state.fetchMutex);
    return state.results.tryPop();
}

core::SearchResult
ParallelSearchEngine::peek(unsigned port, const Key &key) const
{
    if (port >= ports.size())
        return {}; // a caller error: no such port, so no record
    // Thread-local scratch: peek() may run on any number of threads at
    // once, and the scratch re-sizes itself to each call's row shape.
    static thread_local core::CaRamSlice::ConcurrentSearchScratch scratch;
    // Pin the epoch for the whole lookup so a concurrent rebuildSwap()
    // cannot reclaim the slice we are reading.
    const sim::EpochDomain::Guard guard(epochDomain_);
    return sys->database(port).searchConcurrent(key, scratch);
}

const PortStats &
ParallelSearchEngine::portStats(unsigned port) const
{
    if (port >= ports.size())
        fatal(strprintf("no stats for unknown virtual port %u", port));
    return ports[port]->stats;
}

EngineReport
ParallelSearchEngine::report() const
{
    EngineReport out;
    out.workers = workerCount;
    uint64_t total_cycles = 0;
    uint64_t max_cycles = 0;
    for (const auto &wp : workers) {
        Worker &w = *wp;
        const uint64_t wc =
            w.modeledCycles.load(std::memory_order_relaxed);
        total_cycles += wc;
        max_cycles = std::max(max_cycles, wc);
        out.batchedSearchRuns +=
            w.batchedSearchRuns.load(std::memory_order_relaxed);
        out.batchedInsertRuns +=
            w.batchedInsertRuns.load(std::memory_order_relaxed);
        {
            std::lock_guard<std::mutex> lock(w.ingestMutex);
            out.ingest.merge(w.ingest);
        }
        out.fanoutLookups +=
            w.fanoutLookups.load(std::memory_order_relaxed);
        out.fanoutShards +=
            w.fanoutShards.load(std::memory_order_relaxed);
        out.fanoutSerialFallbacks +=
            w.fanoutSerialFallbacks.load(std::memory_order_relaxed);
    }
    out.writerRowFetches = out.ingest.rowFetches;
    out.rowsCombined = out.ingest.serialRowFetches > out.ingest.rowFetches
                           ? out.ingest.serialRowFetches -
                                 out.ingest.rowFetches
                           : 0;
    // `completed` before the end stamps: each completion publishes its
    // thread's end stamp before incrementing completed
    // (finishResponse), so the stamps read below cover every completion
    // counted here and the wall throughput cannot be inflated by a
    // half-published completion.
    for (const auto &p : ports) {
        out.completed += p->stats.completed.load(
            std::memory_order_acquire);
        out.cacheHits +=
            p->stats.cacheHits.load(std::memory_order_relaxed);
        out.cacheMisses +=
            p->stats.cacheMisses.load(std::memory_order_relaxed);
        out.cacheInvalidations += p->stats.cacheInvalidations.load(
            std::memory_order_relaxed);
    }
    if (resultCache_) {
        out.cacheWholePortInvalidations =
            resultCache_->wholePortInvalidations();
        out.cacheRegionInvalidations =
            resultCache_->regionInvalidations();
    }
    // cycles / f_clk[MHz] = microseconds; lookups per microsecond = Msps.
    if (max_cycles > 0)
        out.modeledMsps = static_cast<double>(out.completed) /
                          max_cycles * cfg.timing.clockMhz;
    if (total_cycles > 0)
        out.modeledSerialMsps = static_cast<double>(out.completed) /
                                total_cycles * cfg.timing.clockMhz;
    if (out.modeledSerialMsps > 0.0)
        out.modeledSpeedup = out.modeledMsps / out.modeledSerialMsps;
    for (std::size_t p = 0; p < ports.size(); ++p) {
        core::Database &db = sys->database(static_cast<unsigned>(p));
        // Inline mode computes the bound live (the caller is the only
        // execution authority); threaded engines read the snapshot
        // from the last quiesced point -- the live computation walks
        // non-atomic load statistics that the workers mutate.
        if (cfg.workers == 0) {
            out.analyticBoundMsps += db.searchBandwidthMsps(cfg.timing);
            out.prefilterProbes += db.slice().prefilterProbes();
            out.prefilterSkips += db.slice().prefilterSkips();
            if (core::CaRamSlice *ov = db.overflowSlice()) {
                out.prefilterProbes += ov->prefilterProbes();
                out.prefilterSkips += ov->prefilterSkips();
            }
        } else {
            out.analyticBoundMsps +=
                std::bit_cast<double>(ports[p]->analyticBoundBits.load(
                    std::memory_order_relaxed));
            out.prefilterProbes += ports[p]->prefilterProbesSnap.load(
                std::memory_order_relaxed);
            out.prefilterSkips += ports[p]->prefilterSkipsSnap.load(
                std::memory_order_relaxed);
        }
    }
    uint64_t wall_end_ns = 0;
    for (const auto &w : workers)
        wall_end_ns = std::max(
            wall_end_ns, w->wallEndNs.load(std::memory_order_relaxed));
    out.wallSeconds = wall_end_ns / 1e9;
    if (out.wallSeconds > 0.0)
        out.wallMsps = out.completed / out.wallSeconds / 1e6;
    if (maintenance_) {
        out.maintenanceSteps = maintenance_->steps();
        out.maintenanceSweeps = maintenance_->sweeps();
        out.rowsMigrated = maintenance_->rowsMigrated();
        out.overflowCompacted = maintenance_->overflowCompacted();
        out.reachTrims = maintenance_->reachTrims();
        out.tornMaintenanceSteps = maintenance_->tornSteps();
        out.maintenanceBackoffs = maintenance_->backoffs();
        out.amalBefore = maintenance_->amalBefore();
        out.amalAfter = maintenance_->amalAfter();
    }
    return out;
}

} // namespace caram::engine
