/** @file Tests for engine::ParallelSearchEngine. */

#include "engine/parallel_search_engine.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "hash/bit_select.h"

namespace caram::engine {
namespace {

using core::CaRamSubsystem;
using core::DatabaseConfig;
using core::PortOp;
using core::PortRequest;
using core::PortResponse;
using core::Record;

DatabaseConfig
smallDbConfig(const std::string &name)
{
    DatabaseConfig cfg;
    cfg.name = name;
    cfg.sliceShape.indexBits = 6;
    cfg.sliceShape.logicalKeyBits = 32;
    cfg.sliceShape.ternary = false;
    cfg.sliceShape.slotsPerBucket = 4;
    cfg.sliceShape.dataBits = 16;
    cfg.sliceShape.maxProbeDistance = 16;
    cfg.indexFactory = [](const core::SliceConfig &eff)
        -> std::unique_ptr<hash::IndexGenerator> {
        return std::make_unique<hash::LowBitsIndex>(eff.logicalKeyBits,
                                                    eff.indexBits);
    };
    return cfg;
}

/** A subsystem with @p nports databases, each loaded with records. */
std::unique_ptr<CaRamSubsystem>
buildLoaded(unsigned nports, uint64_t records_per_db,
            bool split_queues = true)
{
    auto sys = std::make_unique<CaRamSubsystem>(1024, 1024, split_queues);
    Rng rng(99);
    for (unsigned p = 0; p < nports; ++p) {
        auto &db =
            sys->addDatabase(smallDbConfig("db" + std::to_string(p)));
        for (uint64_t i = 0; i < records_per_db; ++i) {
            db.insert(Record{Key::fromUint(rng.next64() & 0xffffffffu,
                                           32),
                             i});
        }
    }
    return sys;
}

/** A balanced search stream over @p nports ports. */
std::vector<PortRequest>
searchStream(unsigned nports, std::size_t per_port, uint64_t seed = 7)
{
    Rng rng(seed);
    std::vector<PortRequest> stream;
    uint64_t tag = 0;
    for (std::size_t i = 0; i < per_port; ++i) {
        for (unsigned p = 0; p < nports; ++p) {
            PortRequest req;
            req.port = p;
            req.op = PortOp::Search;
            req.key = Key::fromUint(rng.next64() & 0xffffffffu, 32);
            req.tag = ++tag;
            stream.push_back(std::move(req));
        }
    }
    return stream;
}

/** Drain a subsystem serially, returning per-port response streams.
 *  The forced-filter CI leg (CARAM_PREFILTER=1) turns pre-filter
 *  consultation on for engine-owned slices only; the oracle subsystem
 *  has no engine, so mirror the setting here -- the differentials then
 *  verify the filtered engine against a filtered serial reference,
 *  bucketsAccessed included. */
std::vector<std::vector<PortResponse>>
serialReference(CaRamSubsystem &sys,
                const std::vector<PortRequest> &stream,
                bool mirror_env_prefilter = true)
{
    if (const char *env = std::getenv("CARAM_PREFILTER");
        mirror_env_prefilter && env && std::string_view(env) == "1") {
        for (std::size_t p = 0; p < sys.databaseCount(); ++p)
            sys.database(static_cast<unsigned>(p))
                .setPrefilterEnabled(true);
    }
    std::vector<std::vector<PortResponse>> per_port(
        sys.databaseCount());
    std::size_t next = 0;
    while (true) {
        next += sys.submitBatch(
            std::span<const PortRequest>(stream.data() + next,
                                         stream.size() - next));
        sys.process();
        bool any = false;
        while (auto r = sys.fetchResult()) {
            any = true;
            per_port[r->port].push_back(std::move(*r));
        }
        if (next >= stream.size() && !any)
            break;
    }
    return per_port;
}

void
expectSameResponse(const PortResponse &a, const PortResponse &b)
{
    EXPECT_EQ(a.tag, b.tag);
    EXPECT_EQ(a.port, b.port);
    EXPECT_EQ(a.op, b.op);
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.hit, b.hit);
    EXPECT_EQ(a.data, b.data);
    EXPECT_EQ(a.bucketsAccessed, b.bucketsAccessed);
    EXPECT_TRUE(a.key == b.key);
}

void
expectMatchesReference(
    ParallelSearchEngine &eng,
    const std::vector<std::vector<PortResponse>> &reference)
{
    for (unsigned p = 0; p < reference.size(); ++p) {
        std::size_t i = 0;
        while (auto r = eng.fetchResult(p)) {
            ASSERT_LT(i, reference[p].size()) << "port " << p;
            expectSameResponse(*r, reference[p][i]);
            ++i;
        }
        EXPECT_EQ(i, reference[p].size()) << "port " << p;
    }
}

TEST(Engine, RequiresDatabases)
{
    CaRamSubsystem sys;
    EXPECT_THROW(ParallelSearchEngine eng(sys), caram::FatalError);
}

TEST(Engine, WorkerShardingCoversEveryPort)
{
    auto sys = buildLoaded(5, 0);
    EngineConfig cfg;
    cfg.workers = 2;
    ParallelSearchEngine eng(*sys, cfg);
    EXPECT_EQ(eng.workerOf(0), 0u);
    EXPECT_EQ(eng.workerOf(1), 1u);
    EXPECT_EQ(eng.workerOf(2), 0u);
    EXPECT_EQ(eng.workerOf(3), 1u);
    EXPECT_EQ(eng.workerOf(4), 0u);
}

TEST(Engine, InlineFallbackMatchesSerialProcess)
{
    const auto stream = searchStream(3, 40);
    auto serial_sys = buildLoaded(3, 120);
    const auto reference = serialReference(*serial_sys, stream);

    auto sys = buildLoaded(3, 120);
    EngineConfig cfg;
    cfg.workers = 0; // deterministic inline execution
    ParallelSearchEngine eng(*sys, cfg);
    EXPECT_EQ(eng.submitBatch(stream), stream.size());
    expectMatchesReference(eng, reference);
}

TEST(Engine, ThreadedResultsMatchSerialPerPortStreams)
{
    const auto stream = searchStream(4, 200);
    auto serial_sys = buildLoaded(4, 150);
    const auto reference = serialReference(*serial_sys, stream);

    auto sys = buildLoaded(4, 150);
    EngineConfig cfg;
    cfg.workers = 4;
    cfg.queueCapacity = 64; // small: exercises backpressure blocking
    ParallelSearchEngine eng(*sys, cfg);
    eng.start();
    EXPECT_EQ(eng.submitBatch(stream), stream.size());
    eng.drain();
    expectMatchesReference(eng, reference);
    eng.stop();
}

TEST(Engine, MixedOperationsMatchSerial)
{
    // Inserts, searches and erases through the engine: per-port FIFO
    // order makes the database state evolution identical to serial.
    std::vector<PortRequest> stream;
    uint64_t tag = 0;
    for (unsigned p = 0; p < 2; ++p) {
        for (uint64_t i = 0; i < 30; ++i) {
            PortRequest ins;
            ins.port = p;
            ins.op = PortOp::Insert;
            ins.key = Key::fromUint(i * 13 + p, 32);
            ins.data = i;
            ins.tag = ++tag;
            stream.push_back(ins);
        }
        for (uint64_t i = 0; i < 30; ++i) {
            PortRequest s;
            s.port = p;
            s.op = PortOp::Search;
            s.key = Key::fromUint(i * 13 + p, 32);
            s.tag = ++tag;
            stream.push_back(s);
            if (i % 3 == 0) {
                PortRequest e;
                e.port = p;
                e.op = PortOp::Erase;
                e.key = Key::fromUint(i * 13 + p, 32);
                e.tag = ++tag;
                stream.push_back(e);
            }
        }
    }

    auto serial_sys = buildLoaded(2, 0);
    const auto reference = serialReference(*serial_sys, stream);

    auto sys = buildLoaded(2, 0);
    EngineConfig cfg;
    cfg.workers = 2;
    ParallelSearchEngine eng(*sys, cfg);
    eng.start();
    EXPECT_EQ(eng.submitBatch(stream), stream.size());
    eng.drain();
    expectMatchesReference(eng, reference);
    EXPECT_EQ(sys->database(0).size(), serial_sys->database(0).size());
}

TEST(Engine, RetainedDatabaseYieldsErrorsNotDeath)
{
    auto sys = buildLoaded(2, 50);
    sys->database(1).setPowerState(core::PowerState::Retention);

    EngineConfig cfg;
    cfg.workers = 2;
    ParallelSearchEngine eng(*sys, cfg);
    eng.start();
    const auto stream = searchStream(2, 20);
    EXPECT_EQ(eng.submitBatch(stream), stream.size());
    eng.drain();
    eng.stop();

    // Port 0 served normally; port 1 answered every request with an
    // error response instead of killing the worker.
    EXPECT_EQ(eng.portStats(0).errors, 0u);
    EXPECT_EQ(eng.portStats(0).completed, 20u);
    EXPECT_EQ(eng.portStats(1).errors, 20u);
    EXPECT_EQ(eng.portStats(1).completed, 20u);
    while (auto r = eng.fetchResult(1)) {
        EXPECT_FALSE(r->ok);
        EXPECT_FALSE(r->hit);
    }
}

TEST(Engine, BatchedResultsMatchSerialAcrossBatchSizes)
{
    // A duplicate-heavy stream (small key space) so batched runs group
    // same-home keys; result streams must stay bit-identical to serial
    // at every batch width.
    Rng rng(123);
    std::vector<PortRequest> stream;
    uint64_t tag = 0;
    for (std::size_t i = 0; i < 600; ++i) {
        PortRequest req;
        req.port = static_cast<unsigned>(i % 2);
        req.op = PortOp::Search;
        req.key = Key::fromUint(rng.below(64) * 1021u, 32);
        req.tag = ++tag;
        stream.push_back(std::move(req));
    }
    auto serial_sys = buildLoaded(2, 150);
    const auto reference = serialReference(*serial_sys, stream);

    for (std::size_t batch : {2u, 8u, 32u, 64u}) {
        auto sys = buildLoaded(2, 150);
        EngineConfig cfg;
        cfg.workers = 2;
        cfg.batchSize = batch;
        ParallelSearchEngine eng(*sys, cfg);
        eng.start();
        EXPECT_EQ(eng.submitBatch(stream), stream.size());
        eng.drain();
        expectMatchesReference(eng, reference);
        eng.stop();
    }
}

TEST(Engine, BatchedMixedOperationsFlushAroundMutations)
{
    // Insert/search/erase interleaved: a mutation must flush the search
    // run, so the database evolution stays serial-identical even with
    // batching on.
    std::vector<PortRequest> stream;
    uint64_t tag = 0;
    for (unsigned p = 0; p < 2; ++p) {
        for (uint64_t i = 0; i < 40; ++i) {
            PortRequest ins;
            ins.port = p;
            ins.op = PortOp::Insert;
            ins.key = Key::fromUint(i * 7 + p, 32);
            ins.data = i;
            ins.tag = ++tag;
            stream.push_back(ins);
            for (uint64_t s = 0; s <= i % 3; ++s) {
                PortRequest q;
                q.port = p;
                q.op = PortOp::Search;
                q.key = Key::fromUint((i - s) * 7 + p, 32);
                q.tag = ++tag;
                stream.push_back(q);
            }
            if (i % 4 == 0) {
                PortRequest e;
                e.port = p;
                e.op = PortOp::Erase;
                e.key = Key::fromUint(i * 7 + p, 32);
                e.tag = ++tag;
                stream.push_back(e);
            }
        }
    }
    auto serial_sys = buildLoaded(2, 0);
    const auto reference = serialReference(*serial_sys, stream);

    auto sys = buildLoaded(2, 0);
    EngineConfig cfg;
    cfg.workers = 2;
    cfg.batchSize = 16;
    ParallelSearchEngine eng(*sys, cfg);
    eng.start();
    EXPECT_EQ(eng.submitBatch(stream), stream.size());
    eng.drain();
    expectMatchesReference(eng, reference);
    EXPECT_EQ(sys->database(0).size(), serial_sys->database(0).size());
    EXPECT_EQ(sys->database(1).size(), serial_sys->database(1).size());
}

TEST(Engine, BatchedRetainedDatabaseStillYieldsErrors)
{
    auto sys = buildLoaded(1, 50);
    sys->database(0).setPowerState(core::PowerState::Retention);
    EngineConfig cfg;
    cfg.workers = 1;
    cfg.batchSize = 32;
    ParallelSearchEngine eng(*sys, cfg);
    eng.start();
    const auto stream = searchStream(1, 40);
    EXPECT_EQ(eng.submitBatch(stream), stream.size());
    eng.drain();
    eng.stop();
    EXPECT_EQ(eng.portStats(0).errors, 40u);
    EXPECT_EQ(eng.portStats(0).completed, 40u);
    while (auto r = eng.fetchResult(0))
        EXPECT_FALSE(r->ok);
}

/** Bit-identical stored tables (raw rows + size). */
void
expectSameTable(core::Database &a, core::Database &b)
{
    const mem::MemoryArray &ma = a.slice().array();
    const mem::MemoryArray &mb = b.slice().array();
    ASSERT_EQ(ma.rows(), mb.rows());
    ASSERT_EQ(ma.wordsPerRow(), mb.wordsPerRow());
    for (uint64_t row = 0; row < ma.rows(); ++row) {
        for (uint64_t w = 0; w < ma.wordsPerRow(); ++w) {
            ASSERT_EQ(ma.rowData(row)[w], mb.rowData(row)[w])
                << "row " << row << " word " << w;
        }
    }
    EXPECT_EQ(a.size(), b.size());
}

/** Bursty insert trains (same home bucket repeated) over the ports. */
std::vector<PortRequest>
insertStream(unsigned nports, std::size_t count, uint64_t seed)
{
    Rng rng(seed);
    std::vector<PortRequest> stream;
    uint64_t tag = 0;
    while (stream.size() < count) {
        const unsigned p = static_cast<unsigned>(rng.below(nports));
        const uint64_t bucket = rng.below(64);
        const unsigned train = 1 + static_cast<unsigned>(rng.below(6));
        for (unsigned t = 0; t < train && stream.size() < count; ++t) {
            PortRequest req;
            req.port = p;
            req.op = PortOp::Insert;
            req.key = Key::fromUint(bucket | (rng.below(1u << 20) << 6),
                                    32);
            req.data = rng.below(1u << 16);
            req.tag = ++tag;
            stream.push_back(std::move(req));
        }
    }
    return stream;
}

TEST(Engine, BatchedIngestMatchesSerial)
{
    // Consecutive same-port inserts run through Database::insertBatch;
    // the stored tables and the response streams must stay
    // bit-identical to serial execution, while the ingest accounting
    // shows the row-op economy.
    const auto stream = insertStream(2, 500, 17);
    auto serial_sys = buildLoaded(2, 0);
    const auto reference = serialReference(*serial_sys, stream);

    auto sys = buildLoaded(2, 0);
    EngineConfig cfg;
    cfg.workers = 2;
    cfg.batchSize = 32;
    ParallelSearchEngine eng(*sys, cfg);
    eng.start();
    EXPECT_EQ(eng.submitBatch(stream), stream.size());
    eng.drain();
    expectMatchesReference(eng, reference);
    eng.stop();

    const EngineReport rep = eng.report();
    EXPECT_GT(rep.batchedInsertRuns, 0u);
    EXPECT_GT(rep.ingest.accepted, 0u);
    EXPECT_LE(rep.ingest.rowFetches, rep.ingest.serialRowFetches);
    expectSameTable(sys->database(0), serial_sys->database(0));
    expectSameTable(sys->database(1), serial_sys->database(1));
}

TEST(Engine, BatchedSearchMatchesSerialOnUniformAndBurstyTraffic)
{
    // Uniform wide-keyspace searches find almost no row sharing, yet
    // the batched result stream must not change.  The bursty
    // counterpart shares rows and must run through batched searches.
    auto serial_sys = buildLoaded(1, 150);
    const auto uniform = searchStream(1, 2000, 21);
    // No env mirroring: the subject engine pins the filter off below.
    const auto reference = serialReference(*serial_sys, uniform, false);

    auto sys = buildLoaded(1, 150);
    EngineConfig cfg;
    cfg.workers = 1;
    cfg.batchSize = 32;
    // The reference above is unfiltered, so pin the filter off too
    // (explicit false beats the forced-filter CI leg).
    cfg.prefilter = false;
    ParallelSearchEngine eng(*sys, cfg);
    eng.start();
    EXPECT_EQ(eng.submitBatch(uniform), uniform.size());
    eng.drain();
    expectMatchesReference(eng, reference);
    eng.stop();

    // Bursty: long same-key trains share one chain walk per train.
    Rng rng(23);
    std::vector<PortRequest> bursty;
    uint64_t tag = 0;
    while (bursty.size() < 2000) {
        const Key k = Key::fromUint(rng.below(1u << 26), 32);
        for (unsigned t = 0; t < 8 && bursty.size() < 2000; ++t) {
            PortRequest req;
            req.port = 0;
            req.op = PortOp::Search;
            req.key = k;
            req.tag = ++tag;
            bursty.push_back(std::move(req));
        }
    }
    auto sys2 = buildLoaded(1, 150);
    ParallelSearchEngine eng2(*sys2, cfg);
    eng2.start();
    EXPECT_EQ(eng2.submitBatch(bursty), bursty.size());
    eng2.drain();
    eng2.stop();
    EXPECT_GT(eng2.report().batchedSearchRuns, 0u);
}

TEST(Engine, RebuildRepacksThroughPort)
{
    auto sys = buildLoaded(1, 0);
    core::Database &db = sys->database(0);
    Rng rng(5);
    std::vector<Key> keys;
    for (unsigned i = 0; i < 120; ++i) {
        const Key k = Key::fromUint(rng.next64() & 0xffffffffu, 32);
        if (db.insert(Record{k, i}))
            keys.push_back(k);
    }
    // Erase a third: the rebuild scrubs the holes and repacks.
    for (std::size_t i = 0; i < keys.size(); i += 3)
        db.erase(keys[i]);
    const uint64_t live = db.size();

    EngineConfig cfg;
    cfg.workers = 1;
    ParallelSearchEngine eng(*sys, cfg);
    eng.start();
    EXPECT_TRUE(eng.submitRebuild(0, 99));
    eng.drain();
    eng.stop();

    auto r = eng.fetchResult(0);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->tag, 99u);
    EXPECT_EQ(r->op, PortOp::Rebuild);
    EXPECT_TRUE(r->ok);
    EXPECT_TRUE(r->hit);
    EXPECT_EQ(r->data, live);
    EXPECT_EQ(db.size(), live);
    for (std::size_t i = 0; i < keys.size(); ++i) {
        if (i % 3 == 0)
            continue; // erased
        EXPECT_TRUE(db.search(keys[i]).hit) << "key " << i;
    }
}

TEST(Engine, BulkLoadMatchesSerialConstruction)
{
    Rng rng(77);
    std::vector<Record> records;
    for (unsigned i = 0; i < 400; ++i) {
        records.push_back(
            Record{Key::fromUint(rng.next64() & 0xffffffffu, 32),
                   rng.below(1u << 16)});
    }
    auto serial_sys = buildLoaded(1, 0);
    for (const Record &rec : records)
        serial_sys->database(0).insert(rec);

    auto sys = buildLoaded(1, 0);
    ParallelSearchEngine eng(*sys, EngineConfig{});
    const core::InsertBatchSummary sum = eng.bulkLoad(0, records);
    EXPECT_EQ(sum.accepted + sum.failed, records.size());
    EXPECT_LE(sum.rowFetches, sum.serialRowFetches);
    expectSameTable(sys->database(0), serial_sys->database(0));
}

TEST(Engine, BatchingReducesModeledCyclesOnDuplicateKeys)
{
    // Bursts of the same key share chain walks inside a batched run:
    // the port's modeled busy cycles must drop below the serial run's,
    // while the reported bucketsAccessed histogram stays identical.
    Rng rng(5);
    std::vector<PortRequest> stream;
    uint64_t tag = 0;
    for (std::size_t i = 0; i < 128; ++i) {
        const Key k = Key::fromUint(rng.below(32) * 977u, 32);
        for (int c = 0; c < 8; ++c) {
            PortRequest req;
            req.port = 0;
            req.op = PortOp::Search;
            req.key = k;
            req.tag = ++tag;
            stream.push_back(std::move(req));
        }
    }
    auto run = [&](std::size_t batch) {
        auto sys = buildLoaded(1, 150);
        EngineConfig cfg;
        cfg.workers = 1;
        cfg.batchSize = batch;
        cfg.queueCapacity = stream.size() + 1;
        // Pin the result cache off: this test measures chain-walk
        // sharing, which a hot-key cache would short-circuit entirely.
        cfg.resultCacheEntries = 0;
        ParallelSearchEngine eng(*sys, cfg);
        // Queue everything before starting the worker so the popped
        // batches (and thus the grouped runs) are deterministic.
        eng.submitBatch(stream);
        eng.start();
        eng.drain();
        eng.stop();
        return eng.portStats(0).modeledCycles.load();
    };
    const uint64_t serial_cycles = run(1);
    const uint64_t batched_cycles = run(32);
    EXPECT_LT(batched_cycles, serial_cycles);
    // Eight copies of each key per burst: the shared walks should cut
    // the modeled cost well below the serial run, not marginally.
    EXPECT_LT(batched_cycles * 2, serial_cycles);
}

TEST(Engine, InlineModeIgnoresBatchSize)
{
    const auto stream = searchStream(2, 30);
    auto serial_sys = buildLoaded(2, 100);
    const auto reference = serialReference(*serial_sys, stream);

    auto sys = buildLoaded(2, 100);
    EngineConfig cfg;
    cfg.workers = 0;
    cfg.batchSize = 64; // ignored: inline executes at submit time
    ParallelSearchEngine eng(*sys, cfg);
    EXPECT_EQ(eng.submitBatch(stream), stream.size());
    expectMatchesReference(eng, reference);
}

TEST(Engine, TrySubmitBackpressuresWhenQueueFull)
{
    auto sys = buildLoaded(1, 10);
    EngineConfig cfg;
    cfg.workers = 1;
    cfg.queueCapacity = 4;
    ParallelSearchEngine eng(*sys, cfg);
    // Not started: the worker queue fills and trySubmit refuses.
    for (uint64_t i = 0; i < 4; ++i)
        EXPECT_TRUE(eng.trySubmit(0, Key::fromUint(i, 32), i));
    EXPECT_FALSE(eng.trySubmit(0, Key::fromUint(9, 32), 9));
    eng.start();
    eng.drain();
    EXPECT_EQ(eng.portStats(0).completed, 4u);
    eng.stop();
}

TEST(Engine, PerPortStatsAndLatencyInstrumentation)
{
    auto sys = buildLoaded(2, 100);
    EngineConfig cfg;
    cfg.workers = 2;
    ParallelSearchEngine eng(*sys, cfg);
    eng.start();
    const auto stream = searchStream(2, 50);
    eng.submitBatch(stream);
    eng.drain();
    eng.stop();
    for (unsigned p = 0; p < 2; ++p) {
        const PortStats &s = eng.portStats(p);
        EXPECT_EQ(s.submitted, 50u);
        EXPECT_EQ(s.completed, 50u);
        EXPECT_EQ(s.latencyUs.count(), 50u);
        EXPECT_GE(s.latencyUs.mean(), 0.0);
        EXPECT_EQ(s.latencyLog2Us.totalCount(), 50u);
        EXPECT_EQ(s.bucketsAccessed.totalCount(), 50u);
        EXPECT_GT(s.modeledCycles, 0u);
    }
    EXPECT_THROW(eng.portStats(7), caram::FatalError);
}

TEST(Engine, ModeledSpeedupScalesWithWorkersOnBalancedLoad)
{
    const auto stream = searchStream(4, 100);
    auto sys = buildLoaded(4, 100);
    EngineConfig cfg;
    cfg.workers = 4;
    cfg.timing = mem::MemTiming::embeddedDram(200.0, 6);
    // Maintenance steps charge row ops to the workers' cycle accounts,
    // which would inflate the makespan under the CARAM_MAINTENANCE leg
    // and break the near-linear-speedup bound: pin it off (explicit
    // config always beats the environment knob).
    cfg.maintenance = false;
    ParallelSearchEngine eng(*sys, cfg);
    eng.start();
    eng.submitBatch(stream);
    eng.drain();
    const EngineReport rep = eng.report();
    EXPECT_EQ(rep.completed, stream.size());
    EXPECT_EQ(rep.workers, 4u);
    // Four balanced ports on four modeled controllers: near-linear.
    EXPECT_GE(rep.modeledSpeedup, 3.0);
    EXPECT_LE(rep.modeledSpeedup, 4.0 + 1e-9);
    EXPECT_GT(rep.modeledMsps, 0.0);
    EXPECT_GT(rep.analyticBoundMsps, 0.0);
    // One modeled controller cannot beat the serial drain.
    EXPECT_NEAR(rep.modeledSerialMsps * rep.modeledSpeedup,
                rep.modeledMsps, 1e-6);
}

// ---------------------------------------------------------------------
// Intra-lookup row fan-out: ternary keys with don't-care bits in hash
// tap positions duplicate across many candidate home rows; the engine
// splits those lookups into home-range shards, walks them on the
// port's owning worker, charges the slowest shard, and must stay
// bit-identical to the serial subsystem drain.

/** Hash taps of the ternary test databases; a search key leaving the
 *  first w of them don't-care expands to exactly 2^w home rows. */
constexpr std::array<unsigned, 6> kFanoutTaps = {0, 5, 11, 17, 23, 29};

DatabaseConfig
ternaryDbConfig(const std::string &name)
{
    DatabaseConfig cfg;
    cfg.name = name;
    cfg.sliceShape.indexBits = 6;
    cfg.sliceShape.logicalKeyBits = 32;
    cfg.sliceShape.ternary = true;
    cfg.sliceShape.slotsPerBucket = 4;
    cfg.sliceShape.dataBits = 16;
    cfg.sliceShape.maxProbeDistance = 16;
    cfg.indexFactory = [](const core::SliceConfig &eff)
        -> std::unique_ptr<hash::IndexGenerator> {
        return std::make_unique<hash::BitSelectIndex>(
            eff.logicalKeyBits,
            std::vector<unsigned>(kFanoutTaps.begin(),
                                  kFanoutTaps.end()));
    };
    return cfg;
}

/** A random ternary key with the first @p wild_taps hash taps
 *  don't-care (2^wild_taps candidate homes). */
Key
ternaryKey(Rng &rng, unsigned wild_taps)
{
    Key k(32);
    for (unsigned p = 0; p < 32; ++p)
        k.setBitAt(p, rng.chance(0.5), true);
    for (unsigned w = 0; w < wild_taps && w < kFanoutTaps.size(); ++w)
        k.setBitAt(kFanoutTaps[w], false, false);
    return k;
}

/** Ternary databases loaded with mostly-specified records (some
 *  duplicated across homes via one or two wildcard taps). */
std::unique_ptr<CaRamSubsystem>
buildLoadedTernary(unsigned nports, uint64_t records_per_db,
                   uint64_t seed = 31)
{
    auto sys = std::make_unique<CaRamSubsystem>(1024, 1024, true);
    Rng rng(seed);
    for (unsigned p = 0; p < nports; ++p) {
        auto &db =
            sys->addDatabase(ternaryDbConfig("tdb" + std::to_string(p)));
        for (uint64_t i = 0; i < records_per_db; ++i)
            db.insert(Record{ternaryKey(rng, i % 7 == 0 ? 1 : 0),
                             rng.below(1u << 16)});
    }
    return sys;
}

/** Search stream mixing fully specified keys with wildcard lookups of
 *  up to @p max_wild don't-care taps (up to 2^max_wild homes). */
std::vector<PortRequest>
wildSearchStream(unsigned nports, std::size_t per_port,
                 unsigned max_wild, uint64_t seed)
{
    Rng rng(seed);
    std::vector<PortRequest> stream;
    uint64_t tag = 0;
    for (std::size_t i = 0; i < per_port; ++i) {
        for (unsigned p = 0; p < nports; ++p) {
            PortRequest req;
            req.port = p;
            req.op = PortOp::Search;
            req.key = ternaryKey(
                rng, static_cast<unsigned>(rng.below(max_wild + 1)));
            req.tag = ++tag;
            stream.push_back(std::move(req));
        }
    }
    return stream;
}

/** Mixed mutating stream: inserts, wildcard searches and erases, so
 *  fan-out lookups drain before same-port mutations. */
std::vector<PortRequest>
wildMutationStream(unsigned nports, std::size_t count, uint64_t seed)
{
    Rng rng(seed);
    std::vector<PortRequest> stream;
    std::vector<std::vector<Key>> pool(nports);
    uint64_t tag = 0;
    while (stream.size() < count) {
        const unsigned p = static_cast<unsigned>(rng.below(nports));
        PortRequest req;
        req.port = p;
        req.tag = ++tag;
        const double roll = rng.uniform();
        if (roll < 0.25) {
            req.op = PortOp::Insert;
            req.key = ternaryKey(rng, rng.chance(0.2) ? 1 : 0);
            req.data = rng.below(1u << 16);
            pool[p].push_back(req.key);
        } else if (roll < 0.35 && !pool[p].empty()) {
            req.op = PortOp::Erase;
            req.key = pool[p][rng.below(pool[p].size())];
        } else {
            req.op = PortOp::Search;
            req.key = ternaryKey(
                rng, static_cast<unsigned>(rng.below(7)));
        }
        stream.push_back(std::move(req));
    }
    return stream;
}

TEST(Engine, FanoutInlineMatchesSerial)
{
    // workers == 0: the shards run on the submitting thread through
    // the same fan-out code path -- deterministic, and bit-identical to
    // the serial subsystem drain.
    const auto stream = wildSearchStream(2, 150, 6, 91);
    auto serial_sys = buildLoadedTernary(2, 120);
    const auto reference = serialReference(*serial_sys, stream);

    auto sys = buildLoadedTernary(2, 120);
    EngineConfig cfg;
    cfg.workers = 0;
    cfg.rowFanoutMin = 2;
    cfg.rowFanoutMaxShards = 8;
    ParallelSearchEngine eng(*sys, cfg);
    EXPECT_EQ(eng.submitBatch(stream), stream.size());
    expectMatchesReference(eng, reference);
    EXPECT_GT(eng.report().fanoutLookups, 0u);
    EXPECT_GT(eng.report().fanoutShards, eng.report().fanoutLookups);
}

TEST(Engine, FanoutThreadedMatchesSerialWithMutations)
{
    // Four workers each fanning out their own ports' lookups under
    // concurrent multi-port traffic with interleaved mutations: the
    // per-port response streams and final table sizes must stay
    // bit-identical to serial execution (a fan-out lookup completes
    // before the port's next Insert/Erase).  This is the TSan target
    // for fan-out beside other workers' mutations.
    const auto stream = wildMutationStream(4, 1200, 77);
    auto serial_sys = buildLoadedTernary(4, 80);
    const auto reference = serialReference(*serial_sys, stream);

    auto sys = buildLoadedTernary(4, 80);
    EngineConfig cfg;
    cfg.workers = 4;
    cfg.rowFanoutMin = 2;
    cfg.rowFanoutMaxShards = 4;
    cfg.queueCapacity = 64; // backpressure behind wide lookups
    ParallelSearchEngine eng(*sys, cfg);
    eng.start();
    EXPECT_EQ(eng.submitBatch(stream), stream.size());
    eng.drain();
    eng.stop();
    expectMatchesReference(eng, reference);
    for (unsigned p = 0; p < 4; ++p)
        EXPECT_EQ(sys->database(p).size(),
                  serial_sys->database(p).size())
            << "port " << p;
    EXPECT_GT(eng.report().fanoutLookups, 0u);
}

TEST(Engine, FanoutConcurrentProducersMatchSerial)
{
    // Two producer threads submitting disjoint port sets while four
    // workers fan out their ports' lookups: per-port FIFO order is
    // still deterministic, so every port's response stream must match
    // the serial reference.
    const auto streamA = wildMutationStream(2, 600, 101); // ports 0..1
    auto streamB = wildMutationStream(2, 600, 202);       // ports 2..3
    for (PortRequest &req : streamB)
        req.port += 2;

    std::vector<PortRequest> combined = streamA;
    combined.insert(combined.end(), streamB.begin(), streamB.end());
    auto serial_sys = buildLoadedTernary(4, 60);
    const auto reference = serialReference(*serial_sys, combined);

    auto sys = buildLoadedTernary(4, 60);
    EngineConfig cfg;
    cfg.workers = 4;
    cfg.rowFanoutMin = 2;
    cfg.rowFanoutMaxShards = 4;
    ParallelSearchEngine eng(*sys, cfg);
    eng.start();
    std::thread producerA(
        [&] { EXPECT_EQ(eng.submitBatch(streamA), streamA.size()); });
    std::thread producerB(
        [&] { EXPECT_EQ(eng.submitBatch(streamB), streamB.size()); });
    producerA.join();
    producerB.join();
    eng.drain();
    eng.stop();
    expectMatchesReference(eng, reference);
}

TEST(Engine, FanoutStatsAccounted)
{
    // Deterministic shard accounting: ten 4-home lookups at maxShards
    // 8 fan out into exactly 4 shards each; fully specified keys stay
    // off the fan-out path at a threshold of 2.
    auto sys = buildLoadedTernary(1, 60);
    EngineConfig cfg;
    cfg.workers = 0;
    cfg.rowFanoutMin = 2;
    cfg.rowFanoutMaxShards = 8;
    // Shard counts below are exact; the pre-filter would prune homes
    // with empty chains, so pin it off (explicit false beats the
    // forced-filter CI leg, like the result cache's explicit 0).
    cfg.prefilter = false;
    ParallelSearchEngine eng(*sys, cfg);
    Rng rng(9);
    uint64_t tag = 0;
    for (int i = 0; i < 10; ++i) {
        PortRequest req;
        req.port = 0;
        req.op = PortOp::Search;
        req.key = ternaryKey(rng, 2); // 4 homes
        req.tag = ++tag;
        ASSERT_TRUE(eng.submitRequest(req));
    }
    for (int i = 0; i < 5; ++i)
        ASSERT_TRUE(eng.submit(0, ternaryKey(rng, 0), ++tag));
    const EngineReport rep = eng.report();
    EXPECT_EQ(rep.fanoutLookups, 10u);
    EXPECT_EQ(rep.fanoutShards, 40u);
    EXPECT_EQ(rep.fanoutSerialFallbacks, 0u);
    EXPECT_EQ(rep.completed, 15u);

    // A forced threshold of 1 routes even single-home keys through the
    // fan-out path; they collapse to one shard and are counted as
    // serial fallbacks (the forced-fan-out CI leg's configuration).
    auto sys2 = buildLoadedTernary(1, 60);
    EngineConfig cfg2;
    cfg2.workers = 0;
    cfg2.rowFanoutMin = 1;
    cfg2.prefilter = false; // same exact-count reasoning as above
    ParallelSearchEngine eng2(*sys2, cfg2);
    for (int i = 0; i < 5; ++i)
        ASSERT_TRUE(eng2.submit(0, ternaryKey(rng, 0), ++tag));
    EXPECT_EQ(eng2.report().fanoutLookups, 5u);
    EXPECT_EQ(eng2.report().fanoutSerialFallbacks, 5u);
}

TEST(Engine, FanoutReducesModeledCyclesOnWideLookups)
{
    // 64-home lookups: serially the port walks all 64 candidate
    // chains back to back; fanned out across 8 shards the banks fetch
    // concurrently and the lookup occupies the port only for the
    // slowest shard's chain.  The modeled cycles must drop by >= 2x
    // (the bench gates the same ratio on bigger tables).
    std::vector<PortRequest> stream;
    Rng rng(13);
    uint64_t tag = 0;
    for (int i = 0; i < 200; ++i) {
        PortRequest req;
        req.port = 0;
        req.op = PortOp::Search;
        req.key = ternaryKey(rng, 6); // 2^6 = 64 candidate homes
        req.tag = ++tag;
        stream.push_back(std::move(req));
    }
    auto run = [&](unsigned fanout_min) {
        auto sys = buildLoadedTernary(1, 100);
        EngineConfig cfg;
        cfg.workers = 1;
        // An explicit nonzero threshold always wins over the
        // CARAM_ROW_FANOUT_MIN environment floor, so the serial
        // baseline stays serial under the forced CI leg too.
        cfg.rowFanoutMin = fanout_min;
        cfg.rowFanoutMaxShards = 8;
        cfg.queueCapacity = stream.size() + 1;
        ParallelSearchEngine eng(*sys, cfg);
        eng.start();
        eng.submitBatch(stream);
        eng.drain();
        eng.stop();
        return eng.portStats(0).modeledCycles.load();
    };
    const uint64_t serial_cycles = run(1u << 20); // threshold unreachable
    const uint64_t fanout_cycles = run(2);
    EXPECT_GT(fanout_cycles, 0u);
    EXPECT_LE(fanout_cycles * 2, serial_cycles);
}

TEST(Engine, FanoutBatchInteractionMatchesSerial)
{
    // Batched runs with fan-out keys interspersed: eligible keys leave
    // the batch and fan out, the segments between them still batch,
    // and the response stream stays bit-identical in submission order.
    Rng rng(37);
    std::vector<PortRequest> stream;
    uint64_t tag = 0;
    while (stream.size() < 800) {
        // Bursts of one fully specified key (row sharing for the
        // batch), then an occasional wide wildcard lookup.
        const Key k = ternaryKey(rng, 0);
        for (int c = 0; c < 6 && stream.size() < 800; ++c) {
            PortRequest req;
            req.port = 0;
            req.op = PortOp::Search;
            req.key = k;
            req.tag = ++tag;
            stream.push_back(std::move(req));
        }
        if (rng.chance(0.5)) {
            PortRequest req;
            req.port = 0;
            req.op = PortOp::Search;
            req.key = ternaryKey(
                rng, 2 + static_cast<unsigned>(rng.below(5)));
            req.tag = ++tag;
            stream.push_back(std::move(req));
        }
    }
    auto serial_sys = buildLoadedTernary(1, 100);
    const auto reference = serialReference(*serial_sys, stream);

    for (std::size_t batch : {8u, 32u}) {
        auto sys = buildLoadedTernary(1, 100);
        EngineConfig cfg;
        cfg.workers = 2; // port 0's owner plus an idle worker
        cfg.batchSize = batch;
        cfg.rowFanoutMin = 4;
        cfg.rowFanoutMaxShards = 8;
        ParallelSearchEngine eng(*sys, cfg);
        eng.start();
        EXPECT_EQ(eng.submitBatch(stream), stream.size());
        eng.drain();
        eng.stop();
        expectMatchesReference(eng, reference);
        const EngineReport rep = eng.report();
        EXPECT_GT(rep.batchedSearchRuns, 0u);
        EXPECT_GT(rep.fanoutLookups, 0u);
    }
}

TEST(Engine, FanoutModeledChargeIndependentOfWorkerCount)
{
    // Fan-out models concurrent banks; it does not depend on host
    // threads.  A 64-home ternary stream over four ports must give the
    // same per-port modeled cycles, shard counts and response streams
    // inline, on one worker and on four.
    std::vector<PortRequest> stream;
    Rng rng(61);
    uint64_t tag = 0;
    for (int i = 0; i < 100; ++i) {
        for (unsigned p = 0; p < 4; ++p) {
            PortRequest req;
            req.port = p;
            req.op = PortOp::Search;
            req.key = ternaryKey(rng, 6); // 2^6 = 64 candidate homes
            req.tag = ++tag;
            stream.push_back(std::move(req));
        }
    }
    struct Run
    {
        std::vector<uint64_t> cycles;
        uint64_t fanoutShards = 0;
        std::vector<std::vector<PortResponse>> responses;
    };
    auto run = [&](unsigned workers) {
        auto sys = buildLoadedTernary(4, 100);
        EngineConfig cfg;
        cfg.workers = workers;
        cfg.rowFanoutMin = 2;
        cfg.rowFanoutMaxShards = 8;
        cfg.queueCapacity = stream.size() + 1;
        // Background maintenance interleaves with the stream by
        // scheduling, so pin it off under the forced CI leg.
        cfg.maintenance = false;
        ParallelSearchEngine eng(*sys, cfg);
        eng.start();
        EXPECT_EQ(eng.submitBatch(stream), stream.size());
        eng.drain();
        eng.stop();
        Run out;
        out.fanoutShards = eng.report().fanoutShards;
        out.responses.resize(4);
        for (unsigned p = 0; p < 4; ++p) {
            out.cycles.push_back(eng.portStats(p).modeledCycles.load());
            while (auto r = eng.fetchResult(p))
                out.responses[p].push_back(std::move(*r));
        }
        return out;
    };
    const Run inline_run = run(0);
    EXPECT_GT(inline_run.fanoutShards, 0u);
    for (unsigned workers : {1u, 4u}) {
        SCOPED_TRACE("workers " + std::to_string(workers));
        const Run threaded = run(workers);
        EXPECT_EQ(threaded.cycles, inline_run.cycles);
        EXPECT_EQ(threaded.fanoutShards, inline_run.fanoutShards);
        for (unsigned p = 0; p < 4; ++p) {
            ASSERT_EQ(threaded.responses[p].size(),
                      inline_run.responses[p].size());
            for (std::size_t i = 0; i < threaded.responses[p].size(); ++i)
                expectSameResponse(threaded.responses[p][i],
                                   inline_run.responses[p][i]);
        }
    }
}

TEST(Engine, FanoutFallbackChargesPrefilterOnce)
{
    // A forced threshold of 1 with the pre-filter on: a single-home
    // lookup whose home the filter prunes drops below the threshold and
    // takes the serial path.  The filter's probe/skip counters must
    // still equal a filtered serial subsystem's on the same stream --
    // the pruned home is charged by the serial walk, not twice.
    const auto stream = searchStream(1, 2000, 43);
    auto serial_sys = buildLoaded(1, 40);
    serial_sys->database(0).setPrefilterEnabled(true);
    const auto reference = serialReference(*serial_sys, stream, false);
    core::Database &ref_db = serial_sys->database(0);
    uint64_t probes = ref_db.slice().prefilterProbes();
    uint64_t skips = ref_db.slice().prefilterSkips();
    if (const core::CaRamSlice *ov = ref_db.overflowSlice()) {
        probes += ov->prefilterProbes();
        skips += ov->prefilterSkips();
    }
    ASSERT_GT(skips, 0u);

    auto sys = buildLoaded(1, 40);
    EngineConfig cfg;
    cfg.workers = 0;
    cfg.rowFanoutMin = 1;
    cfg.prefilter = true;
    cfg.resultCacheEntries = 0; // every lookup must reach the slice
    ParallelSearchEngine eng(*sys, cfg);
    EXPECT_EQ(eng.submitBatch(stream), stream.size());
    expectMatchesReference(eng, reference);
    const EngineReport rep = eng.report();
    EXPECT_EQ(rep.prefilterProbes, probes);
    EXPECT_EQ(rep.prefilterSkips, skips);
}

TEST(Engine, ReportIsDeterministicAcrossRuns)
{
    const auto stream = searchStream(4, 50);
    auto run = [&] {
        auto sys = buildLoaded(4, 80);
        EngineConfig cfg;
        cfg.workers = 4;
        // Background maintenance interleaves nondeterministically with
        // the foreground stream, so its cycle charges would differ run
        // to run: pin it off for the bit-equality check (explicit
        // config always beats the CARAM_MAINTENANCE leg).
        cfg.maintenance = false;
        ParallelSearchEngine eng(*sys, cfg);
        eng.start();
        eng.submitBatch(stream);
        eng.drain();
        const EngineReport r = eng.report();
        return std::pair<double, double>(r.modeledMsps,
                                         r.modeledSerialMsps);
    };
    const auto a = run();
    const auto b = run();
    EXPECT_DOUBLE_EQ(a.first, b.first);
    EXPECT_DOUBLE_EQ(a.second, b.second);
}

TEST(Engine, ReportAndStatsConsistentWhilePolledMidRun)
{
    // report() and portStats() from the submitting thread while the
    // workers are busy: every snapshot must be internally consistent
    // (wall throughput derived from the completions it counted, both
    // monotonically non-decreasing poll over poll, and a port never
    // reporting more completions than submissions).  ci_tsan.sh runs
    // this as the data-race regression for the counter fields.
    auto sys = buildLoaded(4, 200);
    EngineConfig cfg;
    cfg.workers = 4;
    ParallelSearchEngine eng(*sys, cfg);
    eng.start();
    const auto stream = searchStream(4, 2000, 0x7011);
    std::atomic<bool> done{false};
    std::thread submitter([&] {
        eng.submitBatch(stream);
        eng.drain();
        done.store(true, std::memory_order_release);
    });
    uint64_t last_completed = 0;
    double last_wall = 0.0;
    while (!done.load(std::memory_order_acquire)) {
        const EngineReport r = eng.report();
        EXPECT_GE(r.completed, last_completed);
        EXPECT_GE(r.wallSeconds, last_wall);
        if (r.wallSeconds > 0.0) {
            EXPECT_NEAR(r.wallMsps, r.completed / r.wallSeconds / 1e6,
                        1e-9);
        }
        last_completed = r.completed;
        last_wall = r.wallSeconds;
        for (unsigned p = 0; p < 4; ++p) {
            // completed before submitted: a counted completion's
            // submission increment always precedes it, so this order
            // can never observe completed > submitted.
            const PortStats &s = eng.portStats(p);
            const uint64_t comp =
                s.completed.load(std::memory_order_acquire);
            const uint64_t sub =
                s.submitted.load(std::memory_order_relaxed);
            EXPECT_LE(comp, sub) << "port " << p;
        }
    }
    submitter.join();
    const EngineReport final_report = eng.report();
    eng.stop();
    EXPECT_EQ(final_report.completed, stream.size());
    ASSERT_GT(final_report.wallSeconds, 0.0);
    EXPECT_NEAR(final_report.wallMsps,
                final_report.completed / final_report.wallSeconds / 1e6,
                1e-9);
    EXPECT_GE(final_report.wallSeconds, last_wall);
}

TEST(Engine, RowFanoutMinEnvReReadAtEachConstruction)
{
    // CARAM_ROW_FANOUT_MIN must be consulted fresh by every engine
    // construction, not latched process-wide by the first: two engines
    // in one process with different environments resolve differently.
    const char *old = std::getenv("CARAM_ROW_FANOUT_MIN");
    const std::string saved = old ? old : "";
    const bool had = old != nullptr;
    auto sys = buildLoaded(1, 10);
    EngineConfig cfg;
    cfg.workers = 0;
    setenv("CARAM_ROW_FANOUT_MIN", "3", 1);
    {
        ParallelSearchEngine eng(*sys, cfg);
        EXPECT_EQ(eng.resolvedRowFanoutMin(), 3u);
    }
    setenv("CARAM_ROW_FANOUT_MIN", "7", 1);
    {
        ParallelSearchEngine eng(*sys, cfg);
        EXPECT_EQ(eng.resolvedRowFanoutMin(), 7u);
    }
    unsetenv("CARAM_ROW_FANOUT_MIN");
    {
        ParallelSearchEngine eng(*sys, cfg);
        EXPECT_EQ(eng.resolvedRowFanoutMin(), 0u);
    }
    // An explicit config value always beats the environment.
    setenv("CARAM_ROW_FANOUT_MIN", "5", 1);
    {
        EngineConfig forced = cfg;
        forced.rowFanoutMin = 2;
        ParallelSearchEngine eng(*sys, forced);
        EXPECT_EQ(eng.resolvedRowFanoutMin(), 2u);
    }
    if (had)
        setenv("CARAM_ROW_FANOUT_MIN", saved.c_str(), 1);
    else
        unsetenv("CARAM_ROW_FANOUT_MIN");
}

TEST(Engine, ResultCacheEntriesEnvReReadAtEachConstruction)
{
    // CARAM_RESULT_CACHE_ENTRIES must be consulted fresh by every
    // engine construction, not latched process-wide by the first.
    const char *old = std::getenv("CARAM_RESULT_CACHE_ENTRIES");
    const std::string saved = old ? old : "";
    const bool had = old != nullptr;
    auto sys = buildLoaded(1, 10);
    EngineConfig cfg;
    cfg.workers = 0;
    setenv("CARAM_RESULT_CACHE_ENTRIES", "1024", 1);
    {
        ParallelSearchEngine eng(*sys, cfg);
        EXPECT_EQ(eng.resolvedResultCacheEntries(), 1024u);
    }
    setenv("CARAM_RESULT_CACHE_ENTRIES", "2048", 1);
    {
        ParallelSearchEngine eng(*sys, cfg);
        EXPECT_EQ(eng.resolvedResultCacheEntries(), 2048u);
    }
    unsetenv("CARAM_RESULT_CACHE_ENTRIES");
    {
        ParallelSearchEngine eng(*sys, cfg);
        EXPECT_EQ(eng.resolvedResultCacheEntries(), 0u);
    }
    // An explicit config value always beats the environment --
    // including an explicit 0, which pins the cache off.
    setenv("CARAM_RESULT_CACHE_ENTRIES", "4096", 1);
    {
        EngineConfig forced = cfg;
        forced.resultCacheEntries = 512;
        ParallelSearchEngine eng(*sys, forced);
        EXPECT_EQ(eng.resolvedResultCacheEntries(), 512u);
    }
    {
        EngineConfig forced = cfg;
        forced.resultCacheEntries = 0;
        ParallelSearchEngine eng(*sys, forced);
        EXPECT_EQ(eng.resolvedResultCacheEntries(), 0u);
    }
    if (had)
        setenv("CARAM_RESULT_CACHE_ENTRIES", saved.c_str(), 1);
    else
        unsetenv("CARAM_RESULT_CACHE_ENTRIES");
}

TEST(Engine, GarbageEnvKnobsLeaveConfigInControl)
{
    // A CARAM_* value that is not a number, or lies outside the knob's
    // range, is ignored (with a one-time warning per variable): the
    // engine resolves exactly as if the variable were unset.
    const char *names[] = {"CARAM_ROW_FANOUT_MIN", "CARAM_MAINTENANCE",
                           "CARAM_PREFILTER"};
    std::vector<std::optional<std::string>> saved;
    for (const char *n : names) {
        const char *v = std::getenv(n);
        saved.push_back(v ? std::optional<std::string>(v) : std::nullopt);
    }
    auto sys = buildLoaded(1, 10);
    EngineConfig cfg;
    cfg.workers = 1;
    setenv("CARAM_ROW_FANOUT_MIN", "4x", 1);
    setenv("CARAM_MAINTENANCE", "2", 1);
    setenv("CARAM_PREFILTER", "2", 1);
    for (int round = 0; round < 2; ++round) { // second round: no re-warn
        ParallelSearchEngine eng(*sys, cfg);
        EXPECT_EQ(eng.resolvedRowFanoutMin(), 0u);
        EXPECT_FALSE(eng.resolvedMaintenance());
        EXPECT_FALSE(eng.resolvedPrefilter());
    }
    for (std::size_t i = 0; i < saved.size(); ++i) {
        if (saved[i])
            setenv(names[i], saved[i]->c_str(), 1);
        else
            unsetenv(names[i]);
    }
}

TEST(Engine, MaintenanceEnvReReadAtEachConstruction)
{
    // CARAM_MAINTENANCE must be consulted fresh by every engine
    // construction, not latched process-wide by the first.
    const char *old = std::getenv("CARAM_MAINTENANCE");
    const std::string saved = old ? old : "";
    const bool had = old != nullptr;
    auto sys = buildLoaded(1, 10);
    EngineConfig cfg;
    cfg.workers = 1;
    setenv("CARAM_MAINTENANCE", "1", 1);
    {
        ParallelSearchEngine eng(*sys, cfg);
        EXPECT_TRUE(eng.resolvedMaintenance());
    }
    setenv("CARAM_MAINTENANCE", "0", 1);
    {
        ParallelSearchEngine eng(*sys, cfg);
        EXPECT_FALSE(eng.resolvedMaintenance());
    }
    unsetenv("CARAM_MAINTENANCE");
    {
        ParallelSearchEngine eng(*sys, cfg);
        EXPECT_FALSE(eng.resolvedMaintenance());
    }
    // An explicit config value always beats the environment --
    // including an explicit false, which pins maintenance off (the
    // differential harnesses rely on that under the forced leg).
    setenv("CARAM_MAINTENANCE", "1", 1);
    {
        EngineConfig forced = cfg;
        forced.maintenance = false;
        ParallelSearchEngine eng(*sys, forced);
        EXPECT_FALSE(eng.resolvedMaintenance());
    }
    {
        EngineConfig forced = cfg;
        forced.maintenance = true;
        unsetenv("CARAM_MAINTENANCE");
        ParallelSearchEngine eng(*sys, forced);
        EXPECT_TRUE(eng.resolvedMaintenance());
    }
    // Inline mode has no background execution authority: the knob is
    // ignored whatever its source.
    setenv("CARAM_MAINTENANCE", "1", 1);
    {
        EngineConfig inline_cfg = cfg;
        inline_cfg.workers = 0;
        ParallelSearchEngine eng(*sys, inline_cfg);
        EXPECT_FALSE(eng.resolvedMaintenance());
    }
    {
        EngineConfig inline_forced = cfg;
        inline_forced.workers = 0;
        inline_forced.maintenance = true;
        ParallelSearchEngine eng(*sys, inline_forced);
        EXPECT_FALSE(eng.resolvedMaintenance());
    }
    if (had)
        setenv("CARAM_MAINTENANCE", saved.c_str(), 1);
    else
        unsetenv("CARAM_MAINTENANCE");
}

TEST(Engine, ConcurrentMutationMixedOperationsMatchSerial)
{
    // Owner-executed mutations must be invisible to results: the same
    // kind of mixed stream as MixedOperationsMatchSerial, on two workers
    // with batched search and insert runs, still reproduces the serial
    // per-port FIFO streams and final tables bit for bit.
    std::vector<PortRequest> stream;
    uint64_t tag = 0;
    for (unsigned p = 0; p < 3; ++p) {
        for (uint64_t i = 0; i < 40; ++i) {
            PortRequest ins;
            ins.port = p;
            ins.op = PortOp::Insert;
            ins.key = Key::fromUint(i * 13 + p, 32);
            ins.data = i;
            ins.tag = ++tag;
            stream.push_back(ins);
        }
        for (uint64_t i = 0; i < 40; ++i) {
            PortRequest s;
            s.port = p;
            s.op = PortOp::Search;
            s.key = Key::fromUint(i * 13 + p, 32);
            s.tag = ++tag;
            stream.push_back(s);
            if (i % 3 == 0) {
                PortRequest e;
                e.port = p;
                e.op = PortOp::Erase;
                e.key = Key::fromUint(i * 13 + p, 32);
                e.tag = ++tag;
                stream.push_back(e);
            }
            if (i % 16 == 0) {
                PortRequest r;
                r.port = p;
                r.op = PortOp::Rebuild;
                r.tag = ++tag;
                stream.push_back(r);
            }
        }
    }

    auto serial_sys = buildLoaded(3, 0);
    const auto reference = serialReference(*serial_sys, stream);

    auto sys = buildLoaded(3, 0);
    EngineConfig cfg;
    cfg.workers = 2;
    cfg.batchSize = 4;
    ParallelSearchEngine eng(*sys, cfg);
    eng.start();
    EXPECT_EQ(eng.submitBatch(stream), stream.size());
    eng.drain();
    expectMatchesReference(eng, reference);
    for (unsigned p = 0; p < 3; ++p)
        EXPECT_EQ(sys->database(p).size(),
                  serial_sys->database(p).size());
    eng.stop();
}

TEST(Engine, DefaultConfigMixedOperationsMatchSerial)
{
    // A mixed insert/search/erase/rebuild stream through an untouched
    // EngineConfig (apart from the worker count): the defaults must not
    // change any response or table.
    Rng rng(31);
    std::vector<PortRequest> stream;
    uint64_t tag = 0;
    for (unsigned p = 0; p < 2; ++p) {
        for (uint64_t i = 0; i < 30; ++i) {
            PortRequest ins;
            ins.port = p;
            ins.op = PortOp::Insert;
            ins.key = Key::fromUint(i * 29 + p, 32);
            ins.data = i;
            ins.tag = ++tag;
            stream.push_back(ins);
            PortRequest s;
            s.port = p;
            s.op = PortOp::Search;
            s.key = Key::fromUint(rng.below(30) * 29 + p, 32);
            s.tag = ++tag;
            stream.push_back(s);
            if (i % 7 == 0) {
                PortRequest e;
                e.port = p;
                e.op = PortOp::Erase;
                e.key = Key::fromUint(rng.below(30) * 29 + p, 32);
                e.tag = ++tag;
                stream.push_back(e);
            }
            if (i % 11 == 0) {
                PortRequest r;
                r.port = p;
                r.op = PortOp::Rebuild;
                r.tag = ++tag;
                stream.push_back(r);
            }
        }
    }
    auto serial_sys = buildLoaded(2, 0);
    const auto reference = serialReference(*serial_sys, stream);

    auto sys = buildLoaded(2, 0);
    EngineConfig cfg;
    cfg.workers = 2; // everything else at its defaults
    ParallelSearchEngine eng(*sys, cfg);
    EXPECT_FALSE(eng.concurrentMutationActive());
    EXPECT_EQ(eng.resolvedWriterLanes(), 0u);
    eng.start();
    EXPECT_EQ(eng.submitBatch(stream), stream.size());
    eng.drain();
    expectMatchesReference(eng, reference);
    for (unsigned p = 0; p < 2; ++p)
        EXPECT_EQ(sys->database(p).size(),
                  serial_sys->database(p).size());
    eng.stop();
}

TEST(Engine, ResultCacheCountersSurfaceInReport)
{
    // Engine-level view of the cache counters: repeats of a hot key
    // hit, mutations invalidate, and the totals roll up from the
    // per-port stats into the report.
    auto sys = buildLoaded(2, 40);
    EngineConfig cfg;
    cfg.workers = 0;
    cfg.resultCacheEntries = 512;
    ParallelSearchEngine eng(*sys, cfg);
    EXPECT_GT(eng.resolvedResultCacheEntries(), 0u);

    const Key hot = Key::fromUint(3, 32);
    uint64_t tag = 0;
    for (int i = 0; i < 5; ++i)
        eng.submit(0, hot, ++tag);
    PortRequest ins;
    ins.port = 0;
    ins.op = PortOp::Insert;
    ins.key = Key::fromUint(9999, 32);
    ins.tag = ++tag;
    eng.submitRequest(ins);
    eng.submit(0, hot, ++tag);
    eng.submit(1, hot, ++tag); // other port: its own partition, a miss

    const EngineReport rep = eng.report();
    EXPECT_EQ(rep.cacheHits, 4u);          // 5 repeats, first fills
    EXPECT_EQ(rep.cacheMisses, 3u);        // fill, post-insert, port 1
    EXPECT_EQ(rep.cacheInvalidations, 1u); // the insert
    EXPECT_EQ(eng.portStats(0).cacheHits.load(), 4u);
    EXPECT_EQ(eng.portStats(1).cacheMisses.load(), 1u);
}

TEST(Engine, PeekStableKeysWhileMutationStreamRuns)
{
    // peek() from threads the engine does not own, racing a live
    // mutation stream that churns inserts, erases and swap-rebuilds on
    // the same rows: stable keys must always resolve to their exact
    // record.  ci_tsan.sh runs this against the seqlock
    // and epoch machinery end to end.
    constexpr unsigned kPorts = 2;
    constexpr uint64_t kStable = 24;
    auto sys = buildLoaded(kPorts, 0);
    for (unsigned p = 0; p < kPorts; ++p) {
        for (uint64_t i = 0; i < kStable; ++i) {
            ASSERT_TRUE(sys->database(p).insert(
                Record{Key::fromUint(0x100 + i, 32), 0x0a00 + i}));
        }
    }
    // Volatile churn on overlapping home rows; live volatile records
    // stay near 50 per port so swap-rebuilds never shed anything.
    std::vector<PortRequest> stream;
    uint64_t tag = 0;
    for (uint64_t i = 0; i < 400; ++i) {
        for (unsigned p = 0; p < kPorts; ++p) {
            PortRequest ins;
            ins.port = p;
            ins.op = PortOp::Insert;
            ins.key = Key::fromUint(0x10000 + i, 32);
            ins.data = i & 0xffff;
            ins.tag = ++tag;
            stream.push_back(ins);
            if (i >= 50) {
                PortRequest e;
                e.port = p;
                e.op = PortOp::Erase;
                e.key = Key::fromUint(0x10000 + (i - 50), 32);
                e.tag = ++tag;
                stream.push_back(e);
            }
            if (i % 40 == 0) {
                PortRequest r;
                r.port = p;
                r.op = PortOp::Rebuild;
                r.tag = ++tag;
                stream.push_back(r);
            }
        }
    }

    EngineConfig cfg;
    cfg.workers = 2;
    cfg.batchSize = 4;
    ParallelSearchEngine eng(*sys, cfg);
    eng.start();

    std::atomic<bool> done{false};
    std::atomic<uint64_t> reads{0};
    std::atomic<uint64_t> failures{0};
    std::vector<std::thread> readers;
    for (unsigned t = 0; t < 2; ++t) {
        readers.emplace_back([&, t] {
            Rng rng(0x9ee7 + t);
            uint64_t i = 0;
            // Run until the stream drains AND a read quota proves the
            // race actually overlapped; stable keys outlive the drain,
            // so the tail reads still validate.
            while ((!done.load(std::memory_order_acquire) ||
                    reads.load(std::memory_order_relaxed) < 1000) &&
                   failures.load(std::memory_order_relaxed) == 0 &&
                   i < 4000000) {
                ++i;
                const uint64_t k = rng.below(kStable);
                const unsigned port =
                    static_cast<unsigned>(rng.below(kPorts));
                const auto r =
                    eng.peek(port, Key::fromUint(0x100 + k, 32));
                if (!r.hit || r.data != 0x0a00 + k)
                    failures.fetch_add(1, std::memory_order_relaxed);
                reads.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    EXPECT_EQ(eng.submitBatch(stream), stream.size());
    eng.drain();
    done.store(true, std::memory_order_release);
    for (auto &r : readers)
        r.join();
    EXPECT_EQ(failures.load(), 0u);
    EXPECT_GE(reads.load(), 1000u);
    // Out-of-band misses stay misses, and peek never touched stats.
    EXPECT_FALSE(eng.peek(0, Key::fromUint(0xdead00, 32)).hit);
    uint64_t completed = 0;
    for (unsigned p = 0; p < kPorts; ++p)
        completed += eng.portStats(p).completed.load();
    EXPECT_EQ(completed, stream.size());
    eng.stop();
}

TEST(Engine, UnknownPortIsAnErrorNotAnAbort)
{
    // Every submit entry point refuses a port the subsystem does not
    // have and counts nothing; fetchResult has no results for it.  The
    // engine keeps serving the known ports, and drain() returns (no
    // refused request leaks into the in-flight count).
    for (unsigned workers : {0u, 2u}) {
        SCOPED_TRACE("workers " + std::to_string(workers));
        auto sys = buildLoaded(2, 10);
        EngineConfig cfg;
        cfg.workers = workers;
        ParallelSearchEngine eng(*sys, cfg);
        eng.start();
        EXPECT_FALSE(eng.submit(2, Key::fromUint(1, 32), 1));
        EXPECT_FALSE(eng.trySubmit(7, Key::fromUint(1, 32), 2));
        PortRequest bad;
        bad.port = 5;
        bad.op = PortOp::Insert;
        bad.key = Key::fromUint(3, 32);
        bad.tag = 3;
        EXPECT_FALSE(eng.submitRequest(bad));
        EXPECT_FALSE(eng.submitRebuild(9, 4));
        // A batch stops at its first unknown port.
        std::vector<PortRequest> batch = searchStream(2, 3);
        batch.insert(batch.begin() + 4, bad);
        EXPECT_EQ(eng.submitBatch(batch), 4u);
        EXPECT_FALSE(eng.fetchResult(2).has_value());
        EXPECT_FALSE(eng.fetchResult(99).has_value());
        eng.drain();
        uint64_t submitted = 0;
        uint64_t completed = 0;
        for (unsigned p = 0; p < 2; ++p) {
            submitted += eng.portStats(p).submitted.load();
            completed += eng.portStats(p).completed.load();
        }
        EXPECT_EQ(submitted, 4u);
        EXPECT_EQ(completed, 4u);
        EXPECT_EQ(eng.report().completed, 4u);
        std::size_t fetched = 0;
        for (unsigned p = 0; p < 2; ++p)
            while (eng.fetchResult(p))
                ++fetched;
        EXPECT_EQ(fetched, 4u);
        eng.stop();
    }
}

TEST(Engine, SubmitBatchLargerThanRingsCompletes)
{
    // submitBatch defers its doorbells to the end of the call, so it
    // must ring an owner before waiting on that owner's full ring;
    // otherwise a parked worker and the blocked producer would wait on
    // each other.  Tiny rings make the call block many times.
    const auto stream = searchStream(4, 300);
    auto serial_sys = buildLoaded(4, 40);
    const auto reference = serialReference(*serial_sys, stream);

    auto sys = buildLoaded(4, 40);
    EngineConfig cfg;
    cfg.workers = 2;
    cfg.queueCapacity = 3;
    cfg.drainBatch = 2;
    cfg.maintenance = false; // migrations would change bucketsAccessed
    ParallelSearchEngine eng(*sys, cfg);
    eng.start();
    // Let both workers pass their spin window and park first.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    EXPECT_EQ(eng.submitBatch(stream), stream.size());
    eng.drain();
    expectMatchesReference(eng, reference);
    eng.stop();
}

TEST(Engine, PreQueuedBatchedRunsAreDeterministic)
{
    // A stream queued before start() (rings at least as deep as the
    // stream) is popped in full drainBatch-sized batches whatever the
    // host's cores do, so the batched pipeline's modeled cycles repeat
    // exactly from run to run.
    std::vector<PortRequest> stream;
    Rng rng(31);
    uint64_t tag = 0;
    for (std::size_t i = 0; i < 400; ++i) {
        const unsigned port = static_cast<unsigned>(rng.below(4));
        const Key key = Key::fromUint(rng.next64() & 0xffffffffu, 32);
        for (std::size_t t = 1 + rng.below(6); t > 0; --t) {
            PortRequest req;
            req.port = port;
            req.key = key;
            req.tag = ++tag;
            stream.push_back(req);
        }
    }
    auto serial_sys = buildLoaded(4, 60);
    const auto reference = serialReference(*serial_sys, stream);

    std::vector<uint64_t> cycles;
    for (int run = 0; run < 3; ++run) {
        auto sys = buildLoaded(4, 60);
        EngineConfig cfg;
        cfg.workers = 2;
        cfg.batchSize = 32;
        cfg.queueCapacity = stream.size();
        cfg.resultCacheEntries = 0;
        cfg.maintenance = false;
        ParallelSearchEngine eng(*sys, cfg);
        EXPECT_EQ(eng.submitBatch(stream), stream.size());
        eng.start();
        eng.drain();
        expectMatchesReference(eng, reference);
        uint64_t c = 0;
        for (unsigned p = 0; p < 4; ++p)
            c += eng.portStats(p).modeledCycles.load();
        cycles.push_back(c);
        EXPECT_GT(eng.report().batchedSearchRuns, 0u);
        eng.stop();
    }
    EXPECT_EQ(cycles[0], cycles[1]);
    EXPECT_EQ(cycles[0], cycles[2]);
}

TEST(Engine, LostWakeupStress)
{
    // Two producers feed disjoint port pairs of a 2-worker engine with
    // mixed searches, inserts, erases and rebuilds, in bursts separated
    // by idle gaps longer than the doorbell's spin window: between
    // bursts every worker parks, so each burst must wake them through
    // the parked path (a lost wakeup stalls the burst).  The result streams must match the serial
    // oracle.
    constexpr unsigned kPorts = 4;
    constexpr std::size_t kOpsPerProducer = 1200;
    const auto gap = std::chrono::microseconds(
        4 * sim::Doorbell::kSpin.count());
    std::array<std::vector<PortRequest>, 2> streams;
    uint64_t tag = 0;
    for (unsigned prod = 0; prod < 2; ++prod) {
        Rng rng(900 + prod);
        std::array<std::vector<uint64_t>, kPorts> live;
        for (std::size_t i = 0; i < kOpsPerProducer; ++i) {
            PortRequest req;
            req.port = 2 * prod + static_cast<unsigned>(rng.below(2));
            req.tag = ++tag;
            auto &keys = live[req.port];
            const uint64_t roll = rng.below(100);
            if (roll < 40 || keys.empty()) {
                const uint64_t v = rng.next64() & 0xffffffffu;
                req.op = PortOp::Insert;
                req.key = Key::fromUint(v, 32);
                req.data = i;
                keys.push_back(v);
            } else if (roll < 85) {
                req.op = PortOp::Search;
                req.key = Key::fromUint(
                    rng.chance(0.7) ? keys[rng.below(keys.size())]
                                    : rng.next64() & 0xffffffffu,
                    32);
            } else if (roll < 99) {
                req.op = PortOp::Erase;
                const std::size_t k = rng.below(keys.size());
                req.key = Key::fromUint(keys[k], 32);
                keys.erase(keys.begin() + static_cast<std::ptrdiff_t>(k));
            } else {
                req.op = PortOp::Rebuild;
            }
            streams[prod].push_back(req);
        }
    }
    std::vector<PortRequest> combined = streams[0];
    combined.insert(combined.end(), streams[1].begin(), streams[1].end());
    auto serial_sys = buildLoaded(kPorts, 30);
    const auto reference = serialReference(*serial_sys, combined);

    auto sys = buildLoaded(kPorts, 30);
    EngineConfig cfg;
    cfg.workers = 2;
    cfg.batchSize = 4;
    cfg.maintenance = false; // migrations would change bucketsAccessed
    ParallelSearchEngine eng(*sys, cfg);
    eng.start();
    const auto produce = [&](unsigned prod) {
        const std::vector<PortRequest> &mine = streams[prod];
        Rng rng(77 + prod);
        std::size_t next = 0;
        std::size_t bursts = 0;
        while (next < mine.size()) {
            const std::size_t n =
                std::min<std::size_t>(1 + rng.below(24), mine.size() - next);
            if (bursts++ % 2 == 0) {
                EXPECT_EQ(eng.submitBatch(std::span<const PortRequest>(
                              mine.data() + next, n)),
                          n);
            } else {
                for (std::size_t i = 0; i < n; ++i)
                    EXPECT_TRUE(eng.submitRequest(mine[next + i]));
            }
            next += n;
            // Wait for the burst to complete, then idle past the spin
            // window so the next burst finds the engine parked.
            const auto deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(30);
            for (;;) {
                uint64_t done = 0;
                for (unsigned p = 2 * prod; p < 2 * prod + 2; ++p)
                    done += eng.portStats(p).completed.load();
                if (done == next)
                    break;
                if (std::chrono::steady_clock::now() > deadline) {
                    ADD_FAILURE() << "producer " << prod << " stalled at "
                                  << done << " of " << next;
                    return;
                }
                std::this_thread::yield();
            }
            std::this_thread::sleep_for(gap);
        }
    };
    std::thread a(produce, 0u);
    std::thread b(produce, 1u);
    a.join();
    b.join();
    eng.drain();
    expectMatchesReference(eng, reference);
    for (unsigned p = 0; p < kPorts; ++p)
        EXPECT_EQ(sys->database(p).size(), serial_sys->database(p).size());
    eng.stop();
}

TEST(Engine, PeekReadersRaceRebuildsOnThreadedEngine)
{
    // A threaded engine runs every Rebuild on the port's owning worker
    // as a rebuildSwap under its epoch domain: a rebuild installs a
    // fresh slice object instead of repacking the one a reader may be
    // walking, and peek() readers racing a stream of back-to-back
    // rebuilds must always find the stable keys.  Inline engines (no
    // other thread to protect) keep repacking in place.
    constexpr unsigned kPorts = 2;
    constexpr uint64_t kStable = 48;
    auto sys = buildLoaded(kPorts, 120);
    for (unsigned p = 0; p < kPorts; ++p) {
        for (uint64_t i = 0; i < kStable; ++i) {
            ASSERT_TRUE(sys->database(p).insert(
                Record{Key::fromUint(0x200 + i, 32), 0x0b00 + i}));
        }
    }
    uint64_t tag = 0;
    EngineConfig cfg;
    cfg.workers = 2;
    cfg.maintenance = false; // only the rebuilds touch the tables
    ParallelSearchEngine eng(*sys, cfg);
    eng.start();
    // One rebuild per port first: the swap allocates the new slice
    // while the old one is still live, so the two addresses differ.
    for (unsigned p = 0; p < kPorts; ++p) {
        const core::CaRamSlice *before = &sys->database(p).slice();
        ASSERT_TRUE(eng.submitRebuild(p, ++tag));
        eng.drain();
        const auto r = eng.fetchResult(p);
        ASSERT_TRUE(r.has_value());
        EXPECT_TRUE(r->ok);
        EXPECT_NE(&sys->database(p).slice(), before)
            << "port " << p << ": threaded rebuild repacked in place";
    }

    std::vector<PortRequest> stream;
    for (int i = 0; i < 150; ++i) {
        for (unsigned p = 0; p < kPorts; ++p) {
            PortRequest r;
            r.port = p;
            r.op = PortOp::Rebuild;
            r.tag = ++tag;
            stream.push_back(r);
        }
    }
    std::atomic<bool> done{false};
    std::atomic<uint64_t> reads{0};
    std::atomic<uint64_t> failures{0};
    std::vector<std::thread> readers;
    for (unsigned t = 0; t < 2; ++t) {
        readers.emplace_back([&, t] {
            Rng rng(0x5a5a + t);
            uint64_t i = 0;
            while ((!done.load(std::memory_order_acquire) ||
                    reads.load(std::memory_order_relaxed) < 1000) &&
                   failures.load(std::memory_order_relaxed) == 0 &&
                   i < 4000000) {
                ++i;
                const uint64_t k = rng.below(kStable);
                const auto port = static_cast<unsigned>(rng.below(kPorts));
                const auto r =
                    eng.peek(port, Key::fromUint(0x200 + k, 32));
                if (!r.hit || r.data != 0x0b00 + k)
                    failures.fetch_add(1, std::memory_order_relaxed);
                reads.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    EXPECT_EQ(eng.submitBatch(stream), stream.size());
    eng.drain();
    done.store(true, std::memory_order_release);
    for (auto &r : readers)
        r.join();
    EXPECT_EQ(failures.load(), 0u);
    EXPECT_GE(reads.load(), 1000u);
    for (unsigned p = 0; p < kPorts; ++p) {
        std::size_t n = 0;
        while (auto r = eng.fetchResult(p)) {
            EXPECT_TRUE(r->ok) << "port " << p << " rebuild " << n;
            ++n;
        }
        EXPECT_EQ(n, stream.size() / kPorts);
        EXPECT_EQ(sys->database(p).size(), 120 + kStable);
    }
    eng.stop();

    EngineConfig inline_cfg;
    inline_cfg.workers = 0;
    ParallelSearchEngine inl(*sys, inline_cfg);
    const core::CaRamSlice *live = &sys->database(0).slice();
    ASSERT_TRUE(inl.submitRebuild(0, ++tag));
    ASSERT_TRUE(inl.fetchResult(0).has_value());
    EXPECT_EQ(&sys->database(0).slice(), live);
}

TEST(Engine, PeekUnknownPortIsAMiss)
{
    // peek() at a port the subsystem does not have is a caller error:
    // it answers a miss instead of aborting, on inline and threaded
    // engines alike, and the known ports keep answering.
    for (unsigned workers : {0u, 2u}) {
        SCOPED_TRACE("workers " + std::to_string(workers));
        auto sys = buildLoaded(2, 0);
        ASSERT_TRUE(
            sys->database(1).insert(Record{Key::fromUint(42, 32), 7}));
        EngineConfig cfg;
        cfg.workers = workers;
        ParallelSearchEngine eng(*sys, cfg);
        eng.start();
        const core::SearchResult miss = eng.peek(2, Key::fromUint(42, 32));
        EXPECT_FALSE(miss.hit);
        EXPECT_EQ(miss.data, 0u);
        EXPECT_EQ(miss.bucketsAccessed, 0u);
        EXPECT_FALSE(eng.peek(99, Key::fromUint(42, 32)).hit);
        const core::SearchResult hit = eng.peek(1, Key::fromUint(42, 32));
        EXPECT_TRUE(hit.hit);
        EXPECT_EQ(hit.data, 7u);
        eng.stop();
    }
}

TEST(Engine, MixedStreamModeledCountsRepeatExactly)
{
    // The same 90/10 search/mutation stream, submitted live to a
    // 2-worker engine twice: every modeled count in the report must
    // repeat exactly.  Each port's requests all run on its owning
    // worker, so thread timing can change when a request runs but
    // never what it is charged or to which controller.
    constexpr unsigned kPorts = 4;
    std::vector<PortRequest> stream;
    Rng rng(2024);
    std::array<std::vector<uint64_t>, kPorts> pool;
    std::array<std::size_t, kPorts> next_erase{};
    uint64_t tag = 0;
    for (std::size_t i = 0; i < 1500; ++i) {
        for (unsigned p = 0; p < kPorts; ++p) {
            PortRequest req;
            req.port = p;
            req.tag = ++tag;
            if (i % 10 == 9) {
                if (pool[p].size() - next_erase[p] >= 32) {
                    req.op = PortOp::Erase;
                    req.key = Key::fromUint(pool[p][next_erase[p]++], 32);
                } else {
                    const uint64_t v = rng.next64() & 0xffffffffu;
                    req.op = PortOp::Insert;
                    req.key = Key::fromUint(v, 32);
                    req.data = i & 0xffff;
                    pool[p].push_back(v);
                }
            } else {
                req.op = PortOp::Search;
                req.key = Key::fromUint(rng.next64() & 0xffffffffu, 32);
            }
            stream.push_back(std::move(req));
        }
    }
    auto run = [&] {
        auto sys = buildLoaded(kPorts, 100);
        EngineConfig cfg;
        cfg.workers = 2;
        // The planner's steps interleave with the stream by timing, so
        // pin it off (explicit config beats the CARAM_MAINTENANCE leg).
        cfg.maintenance = false;
        ParallelSearchEngine eng(*sys, cfg);
        eng.start();
        // Live submission in uneven chunks, so the workers' pops land
        // on different boundaries from run to run.
        for (std::size_t next = 0; next < stream.size();) {
            const std::size_t n = std::min<std::size_t>(
                1 + rng.below(40), stream.size() - next);
            EXPECT_EQ(eng.submitBatch(std::span<const PortRequest>(
                          stream.data() + next, n)),
                      n);
            next += n;
        }
        eng.drain();
        EngineReport r = eng.report();
        std::vector<uint64_t> port_cycles;
        for (unsigned p = 0; p < kPorts; ++p)
            port_cycles.push_back(eng.portStats(p).modeledCycles.load());
        eng.stop();
        return std::pair<EngineReport, std::vector<uint64_t>>(
            r, port_cycles);
    };
    const auto [a, a_ports] = run();
    const auto [b, b_ports] = run();
    EXPECT_EQ(a.completed, stream.size());
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.modeledMsps, b.modeledMsps);
    EXPECT_EQ(a.modeledSerialMsps, b.modeledSerialMsps);
    EXPECT_EQ(a.modeledSpeedup, b.modeledSpeedup);
    EXPECT_EQ(a.analyticBoundMsps, b.analyticBoundMsps);
    EXPECT_EQ(a.batchedSearchRuns, b.batchedSearchRuns);
    EXPECT_EQ(a.batchedInsertRuns, b.batchedInsertRuns);
    EXPECT_EQ(a.ingest.rowFetches, b.ingest.rowFetches);
    EXPECT_EQ(a.ingest.serialRowFetches, b.ingest.serialRowFetches);
    // perfbench reads this count; a staging count that followed thread
    // timing would differ between the two runs.
    EXPECT_EQ(a.stagedMutationRuns, b.stagedMutationRuns);
    EXPECT_EQ(a.writerRowFetches, b.writerRowFetches);
    EXPECT_EQ(a.rowsCombined, b.rowsCombined);
    EXPECT_EQ(a.fanoutLookups, b.fanoutLookups);
    EXPECT_EQ(a.fanoutShards, b.fanoutShards);
    EXPECT_EQ(a.cacheHits, b.cacheHits);
    EXPECT_EQ(a.cacheMisses, b.cacheMisses);
    EXPECT_EQ(a.cacheInvalidations, b.cacheInvalidations);
    EXPECT_EQ(a.prefilterProbes, b.prefilterProbes);
    EXPECT_EQ(a.prefilterSkips, b.prefilterSkips);
    EXPECT_EQ(a.maintenanceSteps, b.maintenanceSteps);
    EXPECT_EQ(a_ports, b_ports);
}

TEST(Engine, BulkLoadRejectsUnknownPortAndRunningEngine)
{
    // Caller errors reject every record instead of aborting: nothing is
    // inserted, failed counts the whole batch and every outcome is
    // ok == false.
    std::vector<Record> records;
    for (uint64_t i = 0; i < 20; ++i)
        records.push_back(Record{Key::fromUint(i * 977 + 5, 32), i});
    auto expect_rejected = [&](ParallelSearchEngine &eng, unsigned port) {
        std::vector<core::InsertOutcome> outcomes(
            records.size(), core::InsertOutcome{true, 1, 0});
        const core::InsertBatchSummary sum =
            eng.bulkLoad(port, records, outcomes.data());
        EXPECT_EQ(sum.failed, records.size());
        EXPECT_EQ(sum.accepted, 0u);
        EXPECT_EQ(sum.rowFetches, 0u);
        for (const core::InsertOutcome &o : outcomes) {
            EXPECT_FALSE(o.ok);
            EXPECT_EQ(o.copies, 0u);
        }
        // Without an outcome array too.
        EXPECT_EQ(eng.bulkLoad(port, records).failed, records.size());
    };
    auto sys = buildLoaded(2, 0);
    EngineConfig cfg;
    cfg.workers = 1;
    cfg.maintenance = false;
    ParallelSearchEngine eng(*sys, cfg);
    expect_rejected(eng, 2);
    expect_rejected(eng, 1000);
    eng.start();
    expect_rejected(eng, 0);
    EXPECT_EQ(sys->database(0).size(), 0u);
    // The engine still serves requests after the refusals.
    EXPECT_TRUE(eng.submit(0, records[0].key, 1));
    eng.drain();
    const auto r = eng.fetchResult(0);
    ASSERT_TRUE(r.has_value());
    EXPECT_FALSE(r->hit);
    eng.stop();
    // A stopped engine accepts the load.
    EXPECT_EQ(eng.bulkLoad(0, records).accepted, records.size());
    EXPECT_EQ(sys->database(0).size(), records.size());
}

TEST(ResultStream, BacklogOf100kSurvivesDrain)
{
    // Nothing bounds the unfetched results: 100k responses pile up
    // while the producer keeps submitting and drain() waits, and then
    // all of them come out in per-port FIFO order.
    const auto stream = searchStream(2, 50000);
    auto serial_sys = buildLoaded(2, 60);
    const auto reference = serialReference(*serial_sys, stream);

    auto sys = buildLoaded(2, 60);
    EngineConfig cfg;
    cfg.workers = 2;
    cfg.maintenance = false; // migrations would change bucketsAccessed
    ParallelSearchEngine eng(*sys, cfg);
    eng.start();
    ASSERT_EQ(eng.submitBatch(stream), stream.size());
    eng.drain();
    EXPECT_EQ(eng.report().completed, stream.size());
    expectMatchesReference(eng, reference);
    eng.stop();
}

TEST(ResultStream, TwoConsumersSeeOwnerResponsesInOrder)
{
    // One port whose searches, inserts and erases all run on its
    // owning worker.  Two consumer threads fetch while the stream is
    // still being submitted.  Every tag must arrive exactly once, each
    // consumer must see its share in submission order, and the merged
    // stream must match the serial oracle.
    constexpr std::size_t kRequests = 8000;
    std::vector<PortRequest> stream;
    Rng rng(4242);
    uint64_t last_key = 0;
    for (std::size_t i = 0; i < kRequests; ++i) {
        PortRequest req;
        req.port = 0;
        req.tag = i + 1;
        switch (i % 4) {
        case 1:
            last_key = rng.next64() & 0xffffffffu;
            req.op = PortOp::Insert;
            req.key = Key::fromUint(last_key, 32);
            req.data = i & 0xffff;
            break;
        case 3:
            req.op = PortOp::Erase;
            req.key = Key::fromUint(last_key, 32);
            break;
        default:
            req.op = PortOp::Search;
            req.key = Key::fromUint(
                i % 8 == 2 ? last_key : rng.next64() & 0xffffffffu, 32);
            break;
        }
        stream.push_back(req);
    }
    auto serial_sys = buildLoaded(1, 40);
    const auto reference = serialReference(*serial_sys, stream);
    ASSERT_EQ(reference[0].size(), kRequests);

    auto sys = buildLoaded(1, 40);
    EngineConfig cfg;
    cfg.workers = 1;
    cfg.maintenance = false; // migrations would change bucketsAccessed
    ParallelSearchEngine eng(*sys, cfg);
    eng.start();
    std::atomic<std::size_t> fetched{0};
    std::array<std::vector<PortResponse>, 2> got;
    const auto consume = [&](unsigned me) {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(60);
        while (fetched.load(std::memory_order_relaxed) < kRequests) {
            if (auto r = eng.fetchResult(0)) {
                got[me].push_back(std::move(*r));
                fetched.fetch_add(1, std::memory_order_relaxed);
                continue;
            }
            if (std::chrono::steady_clock::now() > deadline) {
                ADD_FAILURE() << "consumer " << me << " stalled";
                return;
            }
            std::this_thread::yield();
        }
    };
    std::thread c0(consume, 0u);
    std::thread c1(consume, 1u);
    for (std::size_t next = 0; next < kRequests;) {
        const std::size_t n =
            std::min<std::size_t>(1 + rng.below(48), kRequests - next);
        ASSERT_EQ(eng.submitBatch(std::span<const PortRequest>(
                      stream.data() + next, n)),
                  n);
        next += n;
    }
    c0.join();
    c1.join();
    eng.drain();
    EXPECT_FALSE(eng.fetchResult(0).has_value());
    std::vector<std::optional<PortResponse>> by_tag(kRequests + 1);
    for (const auto &mine : got) {
        for (std::size_t i = 0; i < mine.size(); ++i) {
            const uint64_t tag = mine[i].tag;
            ASSERT_GE(tag, 1u);
            ASSERT_LE(tag, kRequests);
            if (i > 0) {
                ASSERT_LT(mine[i - 1].tag, tag) << "out of order";
            }
            ASSERT_FALSE(by_tag[tag].has_value()) << "tag " << tag;
            by_tag[tag] = mine[i];
        }
    }
    ASSERT_EQ(got[0].size() + got[1].size(), kRequests);
    for (std::size_t t = 1; t <= kRequests; ++t)
        expectSameResponse(*by_tag[t], reference[0][t - 1]);
    eng.stop();
}

} // namespace
} // namespace caram::engine
