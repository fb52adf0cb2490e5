#ifndef CARAM_ENGINE_PARALLEL_SEARCH_ENGINE_H_
#define CARAM_ENGINE_PARALLEL_SEARCH_ENGINE_H_

/**
 * @file
 * A concurrent lookup engine over a CaRamSubsystem.
 *
 * The paper's bandwidth argument (section 3.4, B = N_slice / n_mem *
 * f_clk) rests on independent banks serving lookups simultaneously;
 * CaRamSubsystem::process() drains every request queue on one thread
 * and so can neither demonstrate nor measure that concurrency.  The
 * ParallelSearchEngine shards the subsystem's virtual ports across N
 * worker threads -- port p belongs to worker p % N, so each database
 * is touched by exactly one worker and needs no locking -- with a
 * bounded lock-free request ring per worker (sim::MpmcRing,
 * backpressure-aware), an unbounded lock-free FIFO result stream per
 * port (sim::SpscBlockQueue), and per-port latency/throughput
 * instrumentation.
 *
 * Like the paper's per-slice input controllers, the threads share
 * nothing on a request's fast path except the ring slot that carries
 * it and the result slot that carries its response.  A submit claims
 * and publishes a slot and reads the owner's doorbell; it takes no
 * lock and notifies nobody unless the owner has parked (sim::Doorbell:
 * an idle worker spins ~20 us, then parks; it parks at once when the
 * engine has more threads than the host has cores).  A response is
 * published with one release store of the port's result count, and
 * fetchResult() takes no lock an executing thread ever takes.  There
 * is no shared in-flight counter: drain() compares each port's
 * producer-written `submitted` (on a cache line of its own) with its
 * executor-written `completed`, and every worker keeps its own
 * wall-clock end stamp.
 *
 * Owner-executed mutations: every request of a port -- Search, Insert,
 * Erase, Rebuild, and the maintenance planner's internal steps -- runs
 * on the port's owning worker, in the port's FIFO position, the way
 * the paper's input controller owns every access to its slice (section
 * 3.4).  A mutation is just one more request in the port's ring, its
 * modeled cycles are charged to that port's controller, and the
 * port's later searches never wait on another thread.  peek() readers
 * are the one thing that can run beside a mutation: threaded engines
 * route Rebuild through Database::rebuildSwap() under the engine's
 * epoch domain, and inserts/erases write rows inside per-row seqlock
 * sections, so a concurrent peek() never reads a torn row or a
 * half-repacked slice.
 *
 * Throughput is accounted in *modeled* memory cycles: each worker is an
 * independent input controller whose lookups occupy its bank for
 * max(1, bucketsAccessed) * n_mem cycles, mirroring TimingEngine's
 * model.  Aggregate modeled throughput uses the makespan (the slowest
 * worker); the serial reference uses the sum (one controller doing
 * everything), which is exactly what process() models.  Host threads
 * execute the searches genuinely concurrently; the modeled numbers stay
 * deterministic for a given request stream regardless of host core
 * count or scheduling.
 *
 * With workers == 0 the engine runs requests inline at submit time on
 * the calling thread -- a deterministic single-threaded fallback with
 * identical result streams and modeled accounting, used by tier-1
 * tests.
 *
 * EngineConfig::resultCacheEntries fronts search dispatch with a
 * lock-free hot-key result cache (result_cache.h): a repeat of a
 * recently answered key replays the cached response -- bit-identical
 * fields, zero modeled bucket accesses.  Invalidation is row-granular:
 * a fill is stamped with the lookup's candidate home-row region
 * coverage, and a mutation bumps only the region counters of the rows
 * it dirtied -- overflow-area writes fold into the spilling key's main
 * regions (Database::noteOverflowMutation); only rebuilds still bump
 * the whole port -- so hot keys survive churn on cold rows while
 * result streams stay
 * bit-identical to the uncached engine on every stream, including
 * mixed mutation streams.
 *
 * EngineConfig::rowFanoutMin additionally models *intra-lookup*
 * parallelism: a lookup whose ternary key duplicates across many home
 * rows is split into contiguous home-range shards, each standing for
 * one bank fetching concurrently with the others.  The port's owning
 * worker walks the shards itself, one after another
 * (CaRamSlice::searchRows over worker-local scratch), merges them back
 * bit-identically to the serial chain, and charges the port only the
 * slowest shard's accesses.  Fan-out changes the modeled charge and
 * nothing else: every lookup still runs on one thread, so the
 * one-port-one-worker ownership rule holds unchanged and the modeled
 * numbers do not depend on how many workers the engine has.
 */

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "core/subsystem.h"
#include "engine/result_cache.h"
#include "mem/timing.h"
#include "sim/mpmc_ring.h"
#include "sim/epoch.h"

namespace caram::engine {

/** Engine configuration. */
struct EngineConfig
{
    /** Worker threads; 0 = deterministic inline execution. */
    unsigned workers = 1;
    /** Depth of each worker's request ring (backpressure bound): the
     *  (queueCapacity + 1)-th outstanding request of one worker is
     *  refused by trySubmit() and waited for by submit().  The ring's
     *  slots (one 128-byte slot per request) are mapped up front. */
    std::size_t queueCapacity = 1024;
    /** Memory timing used for the modeled cycle accounting. */
    mem::MemTiming timing = mem::MemTiming::embeddedDram();
    /** Max requests a worker pops from its ring at once (one claim of
     *  the ring's consumer position per pop). */
    std::size_t drainBatch = 64;
    /**
     * Multi-key batch width: a worker executes up to this many
     * *consecutive same-port Search* requests from its popped batch as
     * one Database::searchBatch call -- same-home keys then share row
     * fetches (and the SIMD multi-key comparator), and the modeled cost
     * charges the bank once per *distinct* row fetch instead of once
     * per key.  Result streams and per-request bucketsAccessed stay
     * bit-identical to serial execution; a non-Search request or a port
     * change flushes the run.  1 disables batching (serial execution,
     * the default); ignored in inline mode (workers == 0), which
     * executes at submit time.
     *
     * Consecutive same-port *Insert* requests batch the same way into
     * one Database::insertBatch call (row-ordered bulk ingest): the
     * stored table and the response stream stay bit-identical to
     * serial execution, and the row-op economy is reported in the
     * engine report's ingest summary.
     */
    std::size_t batchSize = 1;

    /**
     * Intra-lookup row fan-out: a Search key whose candidate home set
     * (ternary don't-cares in hash positions duplicate a key across
     * many home rows, paper section 4.2) has at least this many homes
     * is split into up to rowFanoutMaxShards contiguous home-range
     * shards.  The port's owning worker walks every shard in home
     * order and merges the shard bests by the serial priority rule --
     * results stay bit-identical to the serial chain (hit/miss,
     * matched record, LPM winner, bucketsAccessed).  Modeled cycles
     * charge the *slowest shard* instead of the serial chain sum: the
     * shards overlap in modeled time like the paper's multi-bank
     * fetch.  Only the modeled charge changes; the host work is the
     * same walk on the same thread, so the charge is identical at any
     * worker count.
     *
     * 0 disables fan-out unless the CARAM_ROW_FANOUT_MIN environment
     * variable supplies a floor (re-read at each engine's construction
     * -- see resolvedRowFanoutMin(); an explicit nonzero config always
     * wins over the environment, so tests that pin a threshold behave
     * identically under the forced-fan-out CI leg).
     */
    unsigned rowFanoutMin = 0;
    /** Most shards one lookup fans out into (clamped to [1, 32]). */
    unsigned rowFanoutMaxShards = 8;

    /**
     * Hot-key result cache: total entry budget of the front-side
     * ResultCache (see result_cache.h).  A Search whose exact key
     * (value, care, width) was answered since the last mutation that
     * touched any of its candidate home-row regions replays the cached
     * response -- bit-identical fields, zero modeled bucket accesses.
     * Invalidation is row-granular: fills are stamped with the
     * lookup's candidate home-row coverage and an Insert/Erase bumps
     * only the region counters of the rows it actually dirtied --
     * overflow-area writes fold into the spilling key's main-slice
     * regions via Database::noteOverflowMutation (Rebuild still bumps
     * the whole port), so hot keys survive churn on cold rows.
     * nullopt (the default) defers to the
     * CARAM_RESULT_CACHE_ENTRIES environment variable, re-read at each
     * engine's construction like CARAM_ROW_FANOUT_MIN (see
     * resolvedResultCacheEntries()); an explicit value always wins, so
     * 0 pins the cache off even under the forced-cache CI leg.
     */
    std::optional<std::size_t> resultCacheEntries{};
    /** Cache set associativity (clamped to [1, ResultCache::kMaxWays]). */
    unsigned resultCacheWays = 4;

    /**
     * Per-row counting pre-filter consultation (core/prefilter.h): the
     * engine sets Database::setPrefilterEnabled on every port database
     * at construction, so guaranteed-miss row fetches are skipped
     * before they charge modeled cycles.  Result payloads and the
     * non-skipped access accounting stay bit-identical; rebuildSwap()
     * carries the flag onto replacement slices.  nullopt (the default)
     * defers to the CARAM_PREFILTER environment variable (0/1, re-read
     * at each engine's construction like CARAM_ROW_FANOUT_MIN -- see
     * resolvedPrefilter()); an explicit value always wins, so `false`
     * pins the filter off even under the forced-filter CI leg.
     */
    std::optional<bool> prefilter{};

    /**
     * Online self-managing maintenance (engine/maintenance_engine.h):
     * a background planner paces incremental table maintenance --
     * migrating spilled records toward their home buckets as erase
     * holes open, trimming hollowed-out overflow reaches, and adopting
     * overflow-slice records back into the main table -- while
     * searches and mutations keep running.  Every step rides the
     * ordinary request machinery (an internal request queued to the
     * port's owning worker, reclaimed through the epoch domain,
     * invalidating only the dirtied cache regions), so result
     * streams stay bit-identical to a maintenance-free engine for
     * keyed (unique fully-specified key) tables; see DESIGN.md
     * section 4f for the interference-arbitration budget and the
     * migration protocol.  nullopt (the default) defers to the
     * CARAM_MAINTENANCE environment variable (0/1, re-read at each
     * engine's construction like CARAM_ROW_FANOUT_MIN -- see
     * resolvedMaintenance()); an explicit value always wins, so
     * `false` pins maintenance off even under the forced CI leg.
     * Ignored in inline mode (workers == 0): there is no background
     * execution authority to ride.
     */
    std::optional<bool> maintenance{};
};

/**
 * Per-port instrumentation.  The counters are atomic because they are
 * written from the producer (`submitted`) and the port's owning worker,
 * and read live by report()/portStats() -- reading them mid-run is
 * race-free and each value is individually consistent.  `submitted`
 * has a cache line to itself so the producer's write never contends
 * with the owner's.  The latency/AMAL aggregates below the counters are
 * NOT atomic: their one writer is the owning worker (the same rule that
 * makes the port's result stream single-producer), and they are only
 * meaningful once the engine is drained.  `completed` advances only after the response is on the
 * result stream, so it never counts a result fetchResult() cannot
 * return yet.
 */
struct PortStats
{
    /** Written by producers only. */
    alignas(sim::kCacheLineBytes) std::atomic<uint64_t> submitted{0};
    /** The rest: written by the port's executing thread. */
    alignas(sim::kCacheLineBytes) std::atomic<uint64_t> completed{0};
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> errors{0}; ///< responses with ok == false
    /** Wall-clock enqueue -> result latency, microseconds.  Read only
     *  after drain(). */
    Summary latencyUs;
    /** The same latencies, log2-binned (bin = floor(log2(1 + us))). */
    Histogram latencyLog2Us;
    /** Buckets accessed per search (the per-request AMAL sample). */
    Histogram bucketsAccessed;
    /** Modeled busy cycles this port's requests cost its worker. */
    std::atomic<uint64_t> modeledCycles{0};
    /** Searches served from the result cache (zero modeled cycles). */
    std::atomic<uint64_t> cacheHits{0};
    /** Searches that probed the result cache and fell through. */
    std::atomic<uint64_t> cacheMisses{0};
    /** Generation bumps (one per mutation run on this port). */
    std::atomic<uint64_t> cacheInvalidations{0};
};

/** Aggregate numbers for one engine run (between start and drain). */
struct EngineReport
{
    uint64_t completed = 0;
    unsigned workers = 0;
    /** Modeled aggregate throughput, makespan over the workers. */
    double modeledMsps = 0.0;
    /** Modeled throughput of the same stream on one controller. */
    double modeledSerialMsps = 0.0;
    /** modeledMsps / modeledSerialMsps. */
    double modeledSpeedup = 0.0;
    /** Sum of Database::searchBandwidthMsps over the served ports.
     *  Sampled at quiesced points (construction, drain(), stop()) --
     *  not live -- because the bound reads non-atomic load statistics
     *  that the workers' mutations and maintenance steps change;
     *  report() itself
     *  stays safe to call any time.  Inline engines (workers == 0)
     *  compute it live: the caller is the only execution authority. */
    double analyticBoundMsps = 0.0;
    /** Host wall-clock throughput (start() .. drain()), Msps. */
    double wallMsps = 0.0;
    double wallSeconds = 0.0;
    /** Search runs executed through Database::searchBatch. */
    uint64_t batchedSearchRuns = 0;
    /** Insert runs executed through Database::insertBatch. */
    uint64_t batchedInsertRuns = 0;
    /** Merged row-op accounting of every batched insert run. */
    core::InsertBatchSummary ingest;
    /** Always 0 (mutations run on the owning worker); perfbench reads
     *  it. */
    uint64_t stagedMutationRuns = 0;
    /** ingest.rowFetches: rows the insert runs actually fetched;
     *  perfbench reads it. */
    uint64_t writerRowFetches = 0;
    /** Row fetches insert-run batching saved (ingest.serialRowFetches -
     *  ingest.rowFetches); perfbench reads it. */
    uint64_t rowsCombined = 0;
    /** Lookups routed through the intra-lookup row fan-out. */
    uint64_t fanoutLookups = 0;
    /** Shards those lookups split into. */
    uint64_t fanoutShards = 0;
    /** Fan-out-eligible lookups that collapsed to a single shard. */
    uint64_t fanoutSerialFallbacks = 0;
    /** Searches served from the hot-key result cache. */
    uint64_t cacheHits = 0;
    /** Searches that probed the cache and ran the slice search. */
    uint64_t cacheMisses = 0;
    /** Per-port generation bumps charged by mutation runs. */
    uint64_t cacheInvalidations = 0;
    /** Cache invalidations that had to bump a whole port's generation
     *  (rebuilds and full-coverage masks).  Zero under row-local churn
     *  -- including on overflow-area tables, whose writes fold into
     *  the spilling key's main regions. */
    uint64_t cacheWholePortInvalidations = 0;
    /** Cache invalidations served by the precise region path. */
    uint64_t cacheRegionInvalidations = 0;
    /** Rows the pre-filter was consulted for, summed over the served
     *  databases (main + overflow slices).  Like analyticBoundMsps,
     *  threaded engines sample these two counters at quiesced points
     *  (construction, drain(), stop()): they live on the slice object,
     *  which a threaded engine's rebuildSwap replaces.  Inline engines read
     *  them live. */
    uint64_t prefilterProbes = 0;
    /** Consulted rows the filter proved unable to match -- fetches
     *  (and their modeled cycles) that were never issued. */
    uint64_t prefilterSkips = 0;
    /** Maintenance steps executed on the owning workers (0 when
     *  EngineConfig::maintenance is off). */
    uint64_t maintenanceSteps = 0;
    /** Full table sweeps the maintenance engine completed. */
    uint64_t maintenanceSweeps = 0;
    /** Spilled records migrated strictly closer to their home bucket
     *  (erase holes filled). */
    uint64_t rowsMigrated = 0;
    /** Overflow-slice records adopted back into the main table. */
    uint64_t overflowCompacted = 0;
    /** Hollowed-out overflow reaches trimmed (probe distances no
     *  longer walked by lookups). */
    uint64_t reachTrims = 0;
    /** Migration steps the tear-injection hook interrupted mid-step
     *  (completed by a later step; readers saw a full copy
     *  throughout). */
    uint64_t tornMaintenanceSteps = 0;
    /** Steps the planner withheld because foreground queue depth
     *  exceeded the arbitration backoff threshold. */
    uint64_t maintenanceBackoffs = 0;
    /** Mean per-port database AMAL sampled at each port's first
     *  maintenance step (0 when no step ran). */
    double amalBefore = 0.0;
    /** Mean per-port database AMAL sampled at each port's most recent
     *  completed sweep (0 until a sweep completes). */
    double amalAfter = 0.0;
};

class MaintenanceEngine;

/** Shards a CaRamSubsystem's ports across worker threads. */
class ParallelSearchEngine
{
  public:
    /** The subsystem must outlive the engine and must not be mutated
     *  through other paths while the engine is running. */
    explicit ParallelSearchEngine(core::CaRamSubsystem &subsystem,
                                  EngineConfig config = {});
    ~ParallelSearchEngine();

    ParallelSearchEngine(const ParallelSearchEngine &) = delete;
    ParallelSearchEngine &operator=(const ParallelSearchEngine &) =
        delete;

    /** Worker that owns @p port. */
    unsigned workerOf(unsigned port) const;

    /** Spawn the worker threads (no-op when workers == 0 or already
     *  started). */
    void start();

    /** Non-blocking submit; false when the owning worker's ring is
     *  full (backpressure), the engine is stopped, or @p port is not a
     *  port of the subsystem (nothing is counted then). */
    bool trySubmit(unsigned port, const Key &key, uint64_t tag);

    /** Blocking submit: waits for ring space.  False only when the
     *  engine was stopped or @p port is unknown. */
    bool submit(unsigned port, const Key &key, uint64_t tag);

    /** Submit a full request (insert/erase travel this way too). */
    bool submitRequest(const core::PortRequest &request);

    /**
     * Submit a batch, blocking on backpressure, preserving order.
     * Rings each receiving worker's doorbell once, after its last
     * push.  Returns the number accepted: all of them, unless the
     * engine is stopped or a request names an unknown port, where the
     * batch stops.
     */
    std::size_t submitBatch(std::span<const core::PortRequest> requests);

    /** Submit a database repack (Database::rebuild()); the response
     *  carries ok/hit/record-count as executePortRequest defines.  Like
     *  any non-Search request it flushes the owning worker's batch
     *  runs, so it never reorders against surrounding traffic. */
    bool submitRebuild(unsigned port, uint64_t tag);

    /**
     * Construct @p port's table through the row-ordered bulk ingest
     * pipeline, bypassing the request protocol (no responses, no
     * stats).  Returns the ingest summary (row-op economy vs
     * record-at-a-time).  Only valid while the workers are not running
     * -- a running port's database belongs to its worker thread.  On a
     * running engine, or for an unknown @p port, nothing is inserted:
     * every record is rejected (summary.failed == records.size(), every
     * outcome ok == false).
     */
    core::InsertBatchSummary bulkLoad(
        unsigned port, std::span<const core::Record> records,
        core::InsertOutcome *outcomes = nullptr,
        const int *priorities = nullptr);

    /** Block until every submitted request has produced a result. */
    void drain();

    /** Drain, close the queues and join the workers. */
    void stop();

    /**
     * Pop the next result of @p port (per-port FIFO order); nullopt
     * when there is none or @p port is unknown.  Safe from any thread:
     * callers take turns on a per-port consumer lock that no executing
     * thread touches, and the stream itself is lock-free, so a poll
     * never waits for a worker and a worker never waits for a poll.
     * Results are unbounded -- they wait however long they go
     * unfetched -- and every request drain() covered has its result
     * here when drain() returns.
     */
    std::optional<core::PortResponse> fetchResult(unsigned port);

    /**
     * Out-of-band wait-free lookup against @p port's live table from
     * any thread, without queueing a request: the caller's answer to
     * "is this key searchable right now?" while the workers keep
     * executing the port's searches and mutations.  Reads travel the
     * seqlock'd row-snapshot path (Database::searchConcurrent) under
     * the engine's epoch domain, so a concurrent insert/erase/
     * rebuildSwap can never tear the read or free the slice
     * mid-lookup.  Probing databases only (fatal otherwise); returns a
     * miss while the database is in retention or when @p port is not
     * a port of the subsystem.
     * No engine or slice counters are advanced and no response is
     * queued -- peek() is invisible to stats and FIFO streams.
     */
    core::SearchResult peek(unsigned port, const Key &key) const;

    const PortStats &portStats(unsigned port) const;

    /** The fan-out threshold this engine resolved at construction
     *  (config value, or CARAM_ROW_FANOUT_MIN read at that moment). */
    unsigned resolvedRowFanoutMin() const { return rowFanoutMin_; }

    /** The result-cache entry budget this engine resolved at
     *  construction (config value, or CARAM_RESULT_CACHE_ENTRIES read
     *  at that moment; 0 = cache off). */
    std::size_t resolvedResultCacheEntries() const
    {
        return resultCache_ ? resultCache_->entryCount() : 0;
    }

    /** The pre-filter setting this engine resolved at construction
     *  (config value, or CARAM_PREFILTER read at that moment). */
    bool resolvedPrefilter() const { return prefilter_; }

    /** The maintenance setting this engine resolved at construction
     *  (config value, or CARAM_MAINTENANCE read at that moment; always
     *  false in inline mode). */
    bool resolvedMaintenance() const { return maintenance_ != nullptr; }

    /** Always false: every mutation runs on its port's owning worker.
     *  perfbench reads it. */
    bool concurrentMutationActive() const { return false; }

    /** Always 0: the engine has no writer threads.  perfbench reads
     *  it. */
    unsigned resolvedWriterLanes() const { return 0; }

    /** Aggregate throughput/latency accounting for the run so far. */
    EngineReport report() const;

    /** Upper bound on rowFanoutMaxShards (scratch sizing). */
    static constexpr unsigned kMaxFanoutShards = 32;

  private:
    friend class MaintenanceEngine;

    struct PortState;
    struct Worker;

    struct Job;

    /** Shared body of every submit: blocking push when @p block,
     *  otherwise false on a full ring.  Rings the owner after the push
     *  when @p ringNow (submitBatch defers it). */
    bool enqueue(const core::PortRequest &request, bool block,
                 bool ringNow = true);
    void workerMain(unsigned index);
    /** Recompute each port's cached analytic search-bandwidth bound
     *  and pre-filter probe/skip totals.  Only callable while no
     *  execution thread can be mutating the databases (construction,
     *  the drained window inside drain(), after stop()'s joins): the
     *  bound reads non-atomic slice load statistics, and the counters
     *  live on slice objects that rebuilds replace. */
    void refreshAnalyticBounds();
    /** Run one popped batch through the run-extension loop, every
     *  request in FIFO position on worker @p index. */
    void processJobs(const std::vector<Job> &batch, unsigned index);
    void execute(const core::PortRequest &request,
                 std::chrono::steady_clock::time_point enqueued,
                 unsigned worker_index);
    /** Execute @p count same-port Search jobs as one batched lookup. */
    void executeSearchRun(const Job *jobs, std::size_t count,
                          unsigned worker_index);
    /** One contiguous no-fan-out segment of a search run. */
    void executeBatchSegment(core::Database &db, const Job *jobs,
                             std::size_t count, unsigned worker_index);
    /**
     * True when @p key should fan out; fills the worker's fanoutHomes
     * scratch (which executeFanoutSearch then consumes) as a side
     * effect.
     */
    bool fanoutEligible(core::Database &db, const Key &key,
                        Worker &self);
    /** Shard, walk, merge and publish one fan-out lookup.  Expects
     *  the worker's fanoutHomes scratch filled by fanoutEligible(). */
    void executeFanoutSearch(core::Database &db,
                             const core::PortRequest &request,
                             std::chrono::steady_clock::time_point
                                 enqueued,
                             unsigned worker_index);
    /** Ring the doorbell of worker @p index; notifies only if that
     *  thread has parked. */
    void ring(unsigned index);
    /** Execute @p count same-port Insert jobs as one bulk ingest. */
    void executeInsertRun(const Job *jobs, std::size_t count,
                          unsigned worker_index);
    /** Probe the result cache for a Search on an Active database;
     *  counts the hit/miss and fills @p out on a hit. */
    bool probeCache(const core::PortRequest &request,
                    core::SearchResult &out);
    /** Publish a cached search result: bit-identical response fields,
     *  zero modeled cycles (the paper's row activations never happen). */
    void publishCached(const core::PortRequest &request,
                       const core::SearchResult &cached,
                       std::chrono::steady_clock::time_point enqueued,
                       unsigned worker_index);
    /** Invalidate @p port's cached entries after a mutation run
     *  executed: region-granular when the mutation's dirty-row mask
     *  allows it, whole-port otherwise (@p wholePort, used by Rebuild
     *  and bulk loads).  The port's own requests all run on its owning
     *  worker, so bumping after the mutation is safe: no probe of this
     *  port can run in between. */
    void invalidateCache(unsigned port, bool wholePort);
    /** Publish one finished response: stats, latency, result stream,
     *  and worker @p worker_index's wall end stamp. */
    void finishResponse(core::PortResponse resp,
                        std::chrono::steady_clock::time_point enqueued,
                        unsigned worker_index);
    /** Requests submitted but not yet completed, plus maintenance steps
     *  not yet executed (drain()'s predicate, the planner's backoff
     *  signal). */
    uint64_t inflightCount() const;
    /** Ring drainCv if a drain() is waiting; workers call it after
     *  each batch, producers after a rolled-back submit. */
    void wakeDrain();
    /** Enqueue one internal PortOp::Maintenance request for @p port
     *  (called by the maintenance planner thread; non-blocking --
     *  false when the owner's queue is full or the engine stopped).
     *  The step counts toward inflightCount() so drain() covers it, but
     *  toward no per-port stats and no result stream. */
    bool submitMaintenanceStep(unsigned port);
    /** Total completed foreground requests across the ports (the
     *  maintenance planner's foreground-progress signal). */
    uint64_t completedCount() const;

    core::CaRamSubsystem *sys;
    EngineConfig cfg;
    unsigned workerCount;  ///< sharding groups (>= 1 even when inline)
    /** Resolved fan-out threshold (config, or CARAM_ROW_FANOUT_MIN). */
    unsigned rowFanoutMin_ = 0;
    /** Resolved pre-filter setting (config, or CARAM_PREFILTER). */
    bool prefilter_ = false;
    /** Hot-key result cache (null = off; see resultCacheEntries). */
    std::unique_ptr<ResultCache> resultCache_;
    /** How long an idle worker spins before it parks:
     *  sim::Doorbell::kSpin when the engine's threads fit the host's
     *  cores, else zero. */
    std::chrono::microseconds idleSpin_{0};
    std::vector<std::unique_ptr<PortState>> ports;
    /** One per sharding group (workerCount). */
    std::vector<std::unique_ptr<Worker>> workers;
    std::vector<std::thread> threads;
    /** Grace-period domain for rebuildSwap() retirements; peek()
     *  readers pin it for the duration of their lookup (mutable: a
     *  read-side pin mutates only the domain's bookkeeping, never the
     *  engine). */
    mutable sim::EpochDomain epochDomain_;
    /** Background maintenance (null = off; see
     *  EngineConfig::maintenance).  Its planner thread paces
     *  submitMaintenanceStep(); the steps themselves execute on the
     *  ports' owning workers like any other mutation. */
    std::unique_ptr<MaintenanceEngine> maintenance_;
    bool running = false;
    bool stopped = false;
    /** drain() calls waiting for inflightCount() == 0.  While nonzero
     *  the maintenance planner pauses so its steps cannot keep the
     *  count nonzero indefinitely, and workers ring drainCv after each
     *  batch. */
    std::atomic<unsigned> drainers_{0};

    /** Maintenance steps submitted and not yet executed. */
    std::atomic<uint64_t> maintenanceInflight_{0};
    std::mutex drainMutex;
    std::condition_variable drainCv;

    std::chrono::steady_clock::time_point wallStart;
};

} // namespace caram::engine

#endif // CARAM_ENGINE_PARALLEL_SEARCH_ENGINE_H_
