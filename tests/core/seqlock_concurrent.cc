/**
 * @file
 * Concurrency suite for the per-row seqlock read path
 * (CaRamSlice::searchConcurrent / Database::searchConcurrent) and the
 * epoch-guarded table swap (Database::rebuildSwap).
 *
 * Three layers of checking:
 *  - single-threaded differentials pin searchConcurrent() bit-identical
 *    to search() across binary, ternary multi-home and LPM key spaces,
 *    with and without forced torn-read injection (every validated
 *    snapshot retried at least once), under Linear and SecondHash
 *    probing, with the pre-filter off and on.  The same stream also
 *    pins every other lookup entry point to search(): a traced search
 *    (exactly bucketsAccessed rows, in probe order), searchRows() over
 *    3-home shards merged by mergeShardResults(), and searchBatch();
 *  - racing streams run real reader threads against a mutating writer
 *    -- insert/erase churn over volatile keys, bucket-sharing erase
 *    holes, rebuildSwap() table swaps -- and assert the one invariant
 *    concurrency cannot excuse: a key that is never mutated is found,
 *    with its exact data, on every single read.  Under ci_tsan.sh the
 *    same tests prove the protocol race-free;
 *  - directed epoch tests pin the reclamation lifecycle (a pinned
 *    reader holds the retired slice; releasing it frees the table).
 */

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <span>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/database.h"
#include "core/slice.h"
#include "hash/bit_select.h"
#include "sim/epoch.h"

namespace caram::core {
namespace {

struct Variant
{
    std::string name;
    unsigned keyBits;
    unsigned indexBits;
    bool ternary;
    bool lpm;
    std::vector<unsigned> taps;
    ProbePolicy probe = ProbePolicy::Linear;
    bool prefilter = false;
};

Variant
binaryVariant()
{
    return Variant{"binary", 32, 6, false, false, {0, 5, 11, 17, 22, 28}};
}

Variant
ternaryExactVariant()
{
    return Variant{"ternary-exact", 40,    8,
                   true,            false, {0, 5, 11, 17, 22, 28, 33, 39}};
}

Variant
lpmVariant()
{
    return Variant{"lpm", 40,   8,
                   true,  true, {0, 1, 2, 3, 4, 5, 6, 7}};
}

/** @p v under SecondHash probing: rows past the home bucket depend on
 *  the key, so every row source must take them from the searched key
 *  and no chain past the home row may be shared by a group. */
Variant
secondHash(Variant v, bool prefilter)
{
    v.name += prefilter ? "-secondhash-prefilter" : "-secondhash";
    v.probe = ProbePolicy::SecondHash;
    v.prefilter = prefilter;
    return v;
}

std::unique_ptr<Database>
buildDatabase(const Variant &v, const std::string &name)
{
    DatabaseConfig cfg;
    cfg.name = name;
    cfg.sliceShape.indexBits = v.indexBits;
    cfg.sliceShape.logicalKeyBits = v.keyBits;
    cfg.sliceShape.ternary = v.ternary;
    cfg.sliceShape.lpm = v.lpm;
    cfg.sliceShape.slotsPerBucket = 4;
    cfg.sliceShape.dataBits = 16;
    cfg.sliceShape.maxProbeDistance = 8;
    cfg.sliceShape.probe = v.probe;
    cfg.overflow = OverflowPolicy::Probing;
    const std::vector<unsigned> taps = v.taps;
    cfg.indexFactory = [taps](const SliceConfig &eff)
        -> std::unique_ptr<hash::IndexGenerator> {
        std::vector<unsigned> use(taps.begin(),
                                  taps.begin() + eff.indexBits);
        return std::make_unique<hash::BitSelectIndex>(
            eff.logicalKeyBits, std::move(use));
    };
    auto db = std::make_unique<Database>(std::move(cfg));
    db->slice().setPrefilterEnabled(v.prefilter);
    return db;
}

Key
randomKey(Rng &rng, const Variant &v, double care_p, unsigned min_plen)
{
    Key k(v.keyBits);
    if (v.lpm) {
        const unsigned plen = static_cast<unsigned>(
            rng.inRange(min_plen, v.keyBits));
        for (unsigned p = 0; p < v.keyBits; ++p)
            k.setBitAt(p, rng.chance(0.5), p < plen);
        return k;
    }
    for (unsigned p = 0; p < v.keyBits; ++p)
        k.setBitAt(p, rng.chance(0.5), !v.ternary || rng.chance(care_p));
    return k;
}

void
expectSameResult(const SearchResult &subject, const SearchResult &oracle,
                 const Key &key, const std::string &ctx)
{
    ASSERT_EQ(subject.hit, oracle.hit) << ctx << " key " << key.toString();
    EXPECT_EQ(subject.bucketsAccessed, oracle.bucketsAccessed)
        << ctx << " key " << key.toString();
    if (!oracle.hit)
        return;
    EXPECT_EQ(subject.row, oracle.row) << ctx;
    EXPECT_EQ(subject.slot, oracle.slot) << ctx;
    EXPECT_EQ(subject.multipleMatch, oracle.multipleMatch) << ctx;
    EXPECT_EQ(subject.data, oracle.data) << ctx;
    EXPECT_EQ(subject.key, oracle.key) << ctx << " key "
                                       << key.toString();
}

/**
 * Every row the unfiltered walk of @p k visits, in order: each
 * candidate home's chain out to its reach.  Spelled out from the probe
 * policies' definitions (linear: home + d; SecondHash: an odd stride
 * from an xor-fold of the key's value words) rather than through the
 * slice, so it checks the walk instead of repeating it.
 */
std::vector<uint64_t>
probeSequence(CaRamSlice &slice, const Variant &v, const Key &k)
{
    const uint64_t rows = uint64_t{1} << v.indexBits;
    uint64_t h = 0;
    for (const uint64_t w : k.valueWords())
        h ^= w;
    h ^= h >> v.indexBits;
    const uint64_t step =
        v.probe == ProbePolicy::SecondHash ? (h & (rows - 1)) | 1 : 1;
    std::vector<uint64_t> homes;
    slice.candidateHomes(k, homes);
    std::vector<uint64_t> seq;
    for (const uint64_t home : homes) {
        const unsigned reach = slice.bucket(home).reach();
        for (unsigned d = 0; d <= reach; ++d)
            seq.push_back((home + d * step) & (rows - 1));
    }
    return seq;
}

/**
 * The other lookup entry points must answer @p k exactly as the serial
 * search did (@p want): a traced search, searchRows() over 3-home
 * shards merged back with mergeShardResults(), and searchBatch() with
 * @p k twice (a same-home group) among @p others.
 */
void
expectEntryPointsAgree(CaRamSlice &slice, const Variant &v, const Key &k,
                       const SearchResult &want,
                       const std::vector<Key> &others)
{
    std::vector<uint64_t> trace;
    expectSameResult(slice.search(k, &trace), want, k, "traced-vs-serial");
    // The trace holds exactly the charged rows, in probe order: the
    // unfiltered walk's prefix up to an exact-mode hit (all of it on a
    // miss or under LPM); with the filter, a subsequence of it.
    ASSERT_EQ(trace.size(), want.bucketsAccessed) << k.toString();
    const std::vector<uint64_t> seq = probeSequence(slice, v, k);
    if (v.prefilter) {
        auto it = seq.begin();
        for (const uint64_t row : trace) {
            it = std::find(it, seq.end(), row);
            ASSERT_NE(it, seq.end()) << "row " << row << " out of order";
            ++it;
        }
    } else {
        const bool whole = !want.hit || v.lpm;
        ASSERT_LE(trace.size(), seq.size());
        EXPECT_TRUE(std::equal(trace.begin(), trace.end(), seq.begin()))
            << k.toString();
        if (whole) {
            EXPECT_EQ(trace.size(), seq.size()) << k.toString();
        }
    }
    if (want.hit && !v.lpm) {
        EXPECT_EQ(trace.back(), want.row);
    }

    MatchProcessor::PackedKey packed;
    slice.packSearchKey(k, packed);
    std::vector<uint64_t> homes;
    slice.candidateHomes(k, homes);
    std::vector<SearchResult> shards;
    for (std::size_t i = 0; i < homes.size(); i += 3) {
        const auto n = static_cast<unsigned>(
            std::min<std::size_t>(3, homes.size() - i));
        shards.push_back(slice.searchRows(packed, homes.data() + i, n));
    }
    expectSameResult(
        CaRamSlice::mergeShardResults(
            shards.data(), static_cast<unsigned>(shards.size()), v.lpm),
        want, k, "shards-vs-serial");

    std::vector<Key> batch = {k};
    batch.insert(batch.end(), others.begin(), others.end());
    batch.push_back(k);
    std::vector<SearchResult> out(batch.size());
    slice.searchBatch(std::span<const Key>(batch), out.data());
    for (std::size_t i = 0; i < batch.size(); ++i)
        expectSameResult(out[i], slice.search(batch[i]), batch[i],
                         "batch-vs-serial");
}

/**
 * Single-threaded differential: drive one database through a seeded
 * mixed stream and answer every search twice -- once through the plain
 * serial path (the oracle) and once through the seqlock'd
 * row-snapshot path.  With @p tear_every nonzero, every validated
 * snapshot first returns an injected torn read, so the retry loop
 * itself is on the differential path.
 */
void
runDifferential(const Variant &v, uint64_t seed, int ops,
                unsigned tear_every)
{
    SCOPED_TRACE(::testing::Message()
                 << "variant " << v.name << " seed " << seed
                 << " tear_every " << tear_every);
    auto db = buildDatabase(v, std::string(v.name) + "-subject");
    db->slice().setTornReadInjection(tear_every);

    Rng rng(seed);
    std::vector<Key> population;
    CaRamSlice::ConcurrentSearchScratch scratch;
    sim::EpochDomain domain;
    // The retry counter lives on the slice, so each rebuildSwap resets
    // it; fold the outgoing slice's count in before every swap.
    uint64_t retired_retries = 0;

    for (int op = 0; op < ops; ++op) {
        SCOPED_TRACE(::testing::Message() << "op " << op);
        const double roll = rng.uniform();
        if (roll < 0.3) {
            const Key k = randomKey(rng, v, 0.97, 4);
            const int prio =
                v.lpm ? static_cast<int>(k.carePopcount()) : 0;
            if (db->insert(Record{k, rng.below(1u << 16)}, prio))
                population.push_back(k);
        } else if (roll < 0.4 && !population.empty()) {
            db->erase(population[rng.below(population.size())]);
        } else if (roll < 0.44) {
            // Swap-rebuild: the concurrent path must read the freshly
            // published slice (liveSlice_ retargets mid-stream).  At
            // high load a re-ingest may drop records that no longer
            // fit (ok == false), exactly like in-place rebuild() --
            // the searches below track whatever the table now holds.
            retired_retries += db->slice().tornReadRetries();
            db->rebuildSwap(domain);
        } else {
            Key k = !population.empty() && rng.chance(0.6)
                ? population[rng.below(population.size())]
                : randomKey(rng, v, 0.9, 0);
            if (v.lpm && rng.chance(0.4)) {
                // Shorten the prefix: more candidate homes.
                for (unsigned p = static_cast<unsigned>(
                         rng.below(v.keyBits));
                     p < v.keyBits; ++p)
                    k.setBitAt(p, false, false);
            }
            const SearchResult want = db->search(k);
            {
                const sim::EpochDomain::Guard guard(domain);
                const SearchResult got = db->searchConcurrent(k, scratch);
                expectSameResult(got, want, k, "concurrent-vs-serial");
            }
            std::vector<Key> others;
            for (int i = 0; i < 6; ++i) {
                others.push_back(!population.empty() && rng.chance(0.5)
                    ? population[rng.below(population.size())]
                    : randomKey(rng, v, 0.9, 0));
            }
            expectEntryPointsAgree(db->slice(), v, k, want, others);
        }
        if (::testing::Test::HasFatalFailure())
            return;
    }
    if (tear_every > 0) {
        // The injection hook fired: every covered search survived at
        // least one forced retry.
        EXPECT_GT(retired_retries + db->slice().tornReadRetries(), 0u);
    }
    domain.drain();
}

TEST(SeqlockConcurrent, BinaryDifferential)
{
    runDifferential(binaryVariant(), 0x5e910c, 2000, 0);
}

TEST(SeqlockConcurrent, TernaryMultiHomeDifferential)
{
    runDifferential(ternaryExactVariant(), 0xca11ab1e, 2000, 0);
}

TEST(SeqlockConcurrent, LpmDifferential)
{
    runDifferential(lpmVariant(), 0x1bf0c0de, 2000, 0);
}

TEST(SeqlockConcurrent, TornReadInjectionBinary)
{
    runDifferential(binaryVariant(), 424242, 1200, 1);
}

TEST(SeqlockConcurrent, TornReadInjectionTernary)
{
    runDifferential(ternaryExactVariant(), 434343, 1200, 3);
}

TEST(SeqlockConcurrent, TornReadInjectionLpm)
{
    runDifferential(lpmVariant(), 454545, 1200, 2);
}

// SecondHash probing on a table that spills: ~3,000 lookups each, with
// the pre-filter off and on (the filtered walks skip rows per key).
TEST(SeqlockConcurrent, SecondHashBinaryDifferential)
{
    runDifferential(secondHash(binaryVariant(), false), 0x2a5b01, 5400, 0);
}

TEST(SeqlockConcurrent, SecondHashBinaryPrefilterDifferential)
{
    runDifferential(secondHash(binaryVariant(), true), 0x2a5b02, 5400, 0);
}

TEST(SeqlockConcurrent, SecondHashTernaryDifferential)
{
    runDifferential(secondHash(ternaryExactVariant(), false), 0x2a5b03,
                    5400, 0);
}

TEST(SeqlockConcurrent, SecondHashTernaryPrefilterDifferential)
{
    runDifferential(secondHash(ternaryExactVariant(), true), 0x2a5b04,
                    5400, 0);
}

TEST(SeqlockConcurrent, SecondHashLpmDifferential)
{
    runDifferential(secondHash(lpmVariant(), false), 0x2a5b05, 5400, 0);
}

TEST(SeqlockConcurrent, SecondHashLpmPrefilterDifferential)
{
    runDifferential(secondHash(lpmVariant(), true), 0x2a5b06, 5400, 0);
}

/**
 * The racing invariant test: @p nreaders threads hammer
 * searchConcurrent() over a set of *stable* keys (never mutated after
 * setup) while the writer churns volatile keys through
 * insert/erase/rebuildSwap.  Whatever interleaving the host schedules,
 * every read of a stable key must hit and return that key's exact
 * data -- a torn row, a lost write or a reclaimed slice would all
 * surface as a miss or wrong data here (and as a report under TSan).
 */
void
runStableKeyRace(unsigned tear_every, bool use_rebuild_swap)
{
    const Variant v = binaryVariant();
    auto db = buildDatabase(v, "race");
    db->slice().setTornReadInjection(tear_every);
    sim::EpochDomain domain;

    // Stable keys: bit 1 set (not a hash tap, so they spread over the
    // table like any key).  Volatile keys: bit 1 clear.  The two
    // populations share buckets but never collide as records.
    Rng setup(2024);
    std::vector<Key> stable;
    std::vector<uint64_t> stableData;
    for (int i = 0; i < 48; ++i) {
        const uint64_t raw =
            (setup.next64() & 0xffffffffu) | (1u << 1);
        Key k = Key::fromUint(raw, v.keyBits);
        if (db->search(k).hit)
            continue; // duplicate draw: keep the population unique
        const uint64_t data = setup.below(1u << 16);
        if (db->insert(Record{k, data})) {
            stable.push_back(k);
            stableData.push_back(data);
        }
    }
    ASSERT_GT(stable.size(), 20u);

    std::atomic<bool> stop{false};
    std::atomic<uint64_t> reads{0};
    std::atomic<int> failures{0};

    constexpr unsigned kReaders = 3;
    std::vector<std::thread> readers;
    for (unsigned r = 0; r < kReaders; ++r) {
        readers.emplace_back([&, r] {
            Rng rng(1000 + r);
            CaRamSlice::ConcurrentSearchScratch scratch;
            while (!stop.load(std::memory_order_acquire)) {
                const std::size_t i = rng.below(stable.size());
                const sim::EpochDomain::Guard guard(domain);
                const SearchResult got =
                    db->searchConcurrent(stable[i], scratch);
                if (!got.hit || got.data != stableData[i]) {
                    failures.fetch_add(1, std::memory_order_relaxed);
                    break;
                }
                reads.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }

    // Writer: volatile churn.  Erases punch slot holes into buckets
    // the stable keys share; rebuildSwap republishes the whole table.
    // The volatile population is capped so the table stays under ~50%
    // load -- a saturated table could legitimately drop records on
    // re-ingest, which would turn the stable-key invariant flaky.
    // The loop keeps churning past its floor until the readers have
    // observably overlapped it (they may still be starting up when the
    // first iterations run), with a hard cap so a wedged reader cannot
    // hang the test.
    Rng wrng(77);
    std::vector<Key> volatiles;
    for (int i = 0;
         i < 4000 || (reads.load(std::memory_order_relaxed) < 2000 &&
                      failures.load(std::memory_order_relaxed) == 0 &&
                      i < 4000000);
         ++i) {
        const double roll = wrng.uniform();
        if ((roll < 0.5 && volatiles.size() < 60) || volatiles.empty()) {
            const uint64_t raw = (wrng.next64() & 0xffffffffu) &
                                 ~static_cast<uint64_t>(1u << 1);
            const Key k = Key::fromUint(raw, v.keyBits);
            if (db->insert(Record{k, wrng.below(1u << 16)}))
                volatiles.push_back(k);
        } else if (roll < 0.95) {
            const std::size_t i = wrng.below(volatiles.size());
            db->erase(volatiles[i]);
            volatiles.erase(volatiles.begin() +
                            static_cast<std::ptrdiff_t>(i));
        } else if (use_rebuild_swap) {
            const auto s = db->rebuildSwap(domain);
            ASSERT_TRUE(s.ok);
            ASSERT_EQ(s.failedRecords, 0u);
        }
    }

    stop.store(true, std::memory_order_release);
    for (auto &t : readers)
        t.join();
    domain.drain();

    EXPECT_EQ(failures.load(), 0);
    EXPECT_GT(reads.load(), 0u);
    EXPECT_EQ(domain.pendingRetired(), 0u);
}

TEST(SeqlockConcurrent, StableKeysAlwaysHitUnderInsertEraseChurn)
{
    runStableKeyRace(/*tear_every=*/0, /*use_rebuild_swap=*/false);
}

TEST(SeqlockConcurrent, StableKeysAlwaysHitAcrossRebuildSwaps)
{
    runStableKeyRace(/*tear_every=*/0, /*use_rebuild_swap=*/true);
}

TEST(SeqlockConcurrent, StableKeysAlwaysHitWithInjectedTearing)
{
    runStableKeyRace(/*tear_every=*/7, /*use_rebuild_swap=*/true);
}

// Directed erase-hole race: one bucket holds a stable key next to a
// volatile key the writer inserts and erases in a tight loop, so the
// reader's snapshot brackets clearSlot/setUsedCount writes to the very
// row it is matching.  The stable key must hit on every read.
TEST(SeqlockConcurrent, EraseHoleInSharedBucketNeverHidesStableKey)
{
    const Variant v = binaryVariant();
    auto db = buildDatabase(v, "hole-race");

    // Two keys with identical tap bits (same home row), different
    // non-tap bits.  Taps for indexBits=6: {0,5,11,17,22,28}.
    const uint64_t tap_bits =
        (1ull << 0) | (1ull << 11) | (1ull << 22);
    const Key stable = Key::fromUint(tap_bits | (1ull << 2), v.keyBits);
    const Key volatile_key =
        Key::fromUint(tap_bits | (1ull << 3), v.keyBits);
    ASSERT_TRUE(db->insert(Record{stable, 0xabcd}));

    sim::EpochDomain domain;
    std::atomic<bool> stop{false};
    std::atomic<int> failures{0};
    std::atomic<uint64_t> reads{0};

    std::thread reader([&] {
        CaRamSlice::ConcurrentSearchScratch scratch;
        while (!stop.load(std::memory_order_acquire)) {
            const sim::EpochDomain::Guard guard(domain);
            const SearchResult got =
                db->searchConcurrent(stable, scratch);
            if (!got.hit || got.data != 0xabcd) {
                failures.fetch_add(1, std::memory_order_relaxed);
                break;
            }
            reads.fetch_add(1, std::memory_order_relaxed);
        }
    });

    // As in the churn test: run past the floor until the reader has
    // demonstrably raced this loop, capped against a wedged reader.
    for (int i = 0;
         i < 20000 || (reads.load(std::memory_order_relaxed) < 2000 &&
                       failures.load(std::memory_order_relaxed) == 0 &&
                       i < 4000000);
         ++i) {
        ASSERT_TRUE(db->insert(Record{volatile_key, 0x1111}));
        ASSERT_EQ(db->erase(volatile_key), 1u);
    }

    stop.store(true, std::memory_order_release);
    reader.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_GT(reads.load(), 0u);
}

// Epoch lifecycle, deterministically: a reader pinned before the swap
// holds the retired slice alive; once it unpins, reclaim frees it.
TEST(SeqlockConcurrent, RebuildSwapRetiresOldSliceUnderEpoch)
{
    const Variant v = binaryVariant();
    auto db = buildDatabase(v, "swap");
    Rng rng(9);
    std::vector<Key> keys;
    for (int i = 0; i < 32; ++i) {
        const Key k =
            Key::fromUint(rng.next64() & 0xffffffffu, v.keyBits);
        if (db->insert(Record{k, static_cast<uint64_t>(i)}))
            keys.push_back(k);
    }
    ASSERT_FALSE(keys.empty());

    sim::EpochDomain domain;
    CaRamSlice::ConcurrentSearchScratch scratch;
    {
        const sim::EpochDomain::Guard guard(domain);
        ASSERT_TRUE(db->searchConcurrent(keys[0], scratch).hit);

        const auto s = db->rebuildSwap(domain);
        ASSERT_TRUE(s.ok);
        ASSERT_EQ(s.records, keys.size());

        // The old slice is retired but this guard predates the
        // retirement, so reclaim inside rebuildSwap must have kept it.
        EXPECT_EQ(domain.pendingRetired(), 1u);

        // Reads now resolve against the freshly published slice.
        for (const Key &k : keys)
            EXPECT_TRUE(db->searchConcurrent(k, scratch).hit);
    }
    domain.reclaim();
    EXPECT_EQ(domain.pendingRetired(), 0u);

    // And the swap was a real rebuild: contents intact, serial path
    // agrees.
    for (const Key &k : keys)
        EXPECT_TRUE(db->search(k).hit);
}

// rebuildSwap refuses non-Probing databases without touching them.
TEST(SeqlockConcurrent, RebuildSwapRejectsParallelOverflow)
{
    DatabaseConfig cfg;
    cfg.name = "tcam-db";
    cfg.sliceShape.indexBits = 4;
    cfg.sliceShape.logicalKeyBits = 32;
    cfg.sliceShape.slotsPerBucket = 2;
    cfg.sliceShape.maxProbeDistance = 2;
    cfg.overflow = OverflowPolicy::ParallelTcam;
    cfg.overflowCapacity = 16;
    cfg.indexFactory = [](const SliceConfig &eff)
        -> std::unique_ptr<hash::IndexGenerator> {
        return std::make_unique<hash::LowBitsIndex>(eff.logicalKeyBits,
                                                    eff.indexBits);
    };
    Database db(std::move(cfg));
    ASSERT_TRUE(db.insert(Record{Key::fromUint(5, 32), 1}));

    sim::EpochDomain domain;
    const auto s = db.rebuildSwap(domain);
    EXPECT_FALSE(s.ok);
    EXPECT_EQ(domain.pendingRetired(), 0u);
    EXPECT_TRUE(db.search(Key::fromUint(5, 32)).hit);
}

// CARAM_SEQLOCK_TEAR is read at slice construction: a database built
// under the variable injects retries, one built after it is cleared
// does not.  The variable is restored exactly around the test.
TEST(SeqlockConcurrent, TornReadEnvInjectsAtConstruction)
{
    const char *old = std::getenv("CARAM_SEQLOCK_TEAR");
    const std::string saved = old ? old : "";

    ::setenv("CARAM_SEQLOCK_TEAR", "2", 1);
    auto injected = buildDatabase(binaryVariant(), "env-tear");
    ::unsetenv("CARAM_SEQLOCK_TEAR");
    auto clean = buildDatabase(binaryVariant(), "env-clean");

    const Key k = Key::fromUint(0x1234, 32);
    ASSERT_TRUE(injected->insert(Record{k, 7}));
    ASSERT_TRUE(clean->insert(Record{k, 7}));

    CaRamSlice::ConcurrentSearchScratch scratch;
    sim::EpochDomain domain;
    const sim::EpochDomain::Guard guard(domain);
    for (int i = 0; i < 8; ++i) {
        EXPECT_TRUE(injected->searchConcurrent(k, scratch).hit);
        EXPECT_TRUE(clean->searchConcurrent(k, scratch).hit);
    }
    EXPECT_GT(injected->slice().tornReadRetries(), 0u);
    EXPECT_EQ(clean->slice().tornReadRetries(), 0u);

    if (old)
        ::setenv("CARAM_SEQLOCK_TEAR", saved.c_str(), 1);
}

} // namespace
} // namespace caram::core
