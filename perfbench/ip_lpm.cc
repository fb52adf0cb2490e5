/**
 * @file
 * Workload ip_lpm: the paper's section 4.1 line card.  A BGP-scale
 * synthetic table is mapped onto Table-2 design E and driven by one
 * closed-loop caller thread with skewed destination addresses; every
 * forwarding decision is checked against a binary trie.  The engine
 * layer does no work here: hashing, the match kernel and the probe
 * chain walk do it all.
 */

#include <algorithm>
#include <limits>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench.h"
#include "ip/ip_caram.h"
#include "ip/lpm_reference.h"
#include "ip/synthetic_bgp.h"
#include "ip/traffic.h"

namespace perfbench {
namespace {

using caram::Key;
using namespace caram::ip;

/** Distinct skewed addresses the closed loop cycles through. */
constexpr std::size_t kStream = std::size_t{1} << 20;
/** Fixed-length modeled-clock pass (identical on every run). */
constexpr std::size_t kModeledPass = std::size_t{1} << 18;
/** Announce/withdraw pairs of the route-update probe per burst, and
 *  the pool of fresh routes the pairs cycle through. */
constexpr std::size_t kUpdatePairsPerBurst = 1024;
constexpr std::size_t kUpdatePool = std::size_t{1} << 13;
/**
 * The pool is fixed, like the table: update cost has a thin heavy
 * tail (on design E about 1.2% of withdraws walk a long probe reach,
 * and the cost quantiles run 6 us at q0.985, 11-14 us at q0.99, 24 us
 * at q0.995), so the p99 of a per-seed draw of routes moves by up to
 * 25% with the draw alone.  The seed picks the order the pool cycles in.
 */
constexpr uint64_t kUpdatePoolSeed = 0x5eed0f1b6d0a7e5ull;
/** Lookups between two route-update bursts. */
constexpr uint64_t kBurstEvery = uint64_t{1} << 16;
/** Lookups per throughput segment and per latency segment. */
constexpr uint64_t kRateSegment = uint64_t{1} << 12;
constexpr std::size_t kLatencySegment = std::size_t{1} << 12;
/** Table builds per run (three serve the passes); setup_s is their
 *  median. */
constexpr int kSetupBuilds = 5;
/** Lookups of the traced per-layer pass. */
constexpr std::size_t kLayerPass = std::size_t{1} << 17;
/** searchBatch group width of the traced batch pass. */
constexpr unsigned kBatch = 32;

const IpDesignSpec kDesignE{"E", 12, 64, 3,
                            caram::core::Arrangement::Horizontal};

struct Setup
{
    RoutingTable table;
    IpMappingResult mapped;
    std::vector<double> weights;
    double totalS = 0.0;
    double mapS = 0.0;
};

Setup
buildSetup()
{
    Setup s;
    const int64_t t0 = nowNs();
    // The table, its access weights and so its placement are the
    // generator's and mapper's fixed stand-ins for the paper's AS1103
    // table and traffic skew; the seed varies the traffic drawn.
    s.table = generateSyntheticBgpTable(SyntheticBgpConfig{});
    IpCaRamMapper mapper(s.table);
    const int64_t t1 = nowNs();
    s.mapped = mapper.map(kDesignE);
    const int64_t t2 = nowNs();
    s.weights = mapper.accessWeights();
    s.totalS = (t2 - t0) / 1e9;
    s.mapS = (t2 - t1) / 1e9;
    return s;
}

/** Modeled-clock counts of one fixed pass. */
struct ModeledPass
{
    uint64_t lookups = 0;
    uint64_t accesses = 0; ///< sum of bucketsAccessed
    uint64_t charged = 0;  ///< sum of max(1, bucketsAccessed)
    uint64_t failed = 0;
};

/**
 * Route-update latency of the probe: the fastest of each pool route's
 * announces and of its withdraws over the run, and the p99 across
 * those.  The pool cycles many times in a run, so every operation is
 * repeated at moments spread over it; its fastest repetition is its
 * cost on the host-quiet state, and the p99 over the whole pool is a
 * property of the table rather than of which routes met a busy host.
 */
class UpdateCosts
{
  public:
    explicit UpdateCosts(std::size_t routes)
        : announce_(routes, kUnseen), withdraw_(routes, kUnseen)
    {
    }
    void add(std::size_t route, int64_t announce_ns, int64_t withdraw_ns)
    {
        announce_[route] = std::min(announce_[route], announce_ns);
        withdraw_[route] = std::min(withdraw_[route], withdraw_ns);
        n_ += 2;
    }
    uint64_t count() const { return n_; }
    double p99Ns() const
    {
        std::vector<double> fastest;
        for (const auto *v : {&announce_, &withdraw_})
            for (int64_t ns : *v)
                if (ns != kUnseen)
                    fastest.push_back(static_cast<double>(ns));
        return quantile(std::move(fastest), 0.99);
    }

  private:
    static constexpr int64_t kUnseen = std::numeric_limits<int64_t>::max();
    std::vector<int64_t> announce_, withdraw_;
    uint64_t n_ = 0;
};

bool
sameCounts(const ModeledPass &a, const ModeledPass &b)
{
    return a.lookups == b.lookups && a.accesses == b.accesses &&
           a.charged == b.charged;
}

} // namespace

Result
runIpLpm(const Options &opt, Tracer &tracer)
{
    Result res;
    const caram::mem::MemTiming timing =
        caram::mem::MemTiming::embeddedDram();

    // Inputs: the table (rebuilt identically by every setup), the
    // skewed address stream and its trie answers, all before timing.
    std::vector<double> setup_s, map_s;
    for (int b = 3; b < kSetupBuilds; ++b) {
        const Setup extra = buildSetup();
        setup_s.push_back(extra.totalS);
        map_s.push_back(extra.mapS);
    }
    Setup first = buildSetup();
    setup_s.push_back(first.totalS);
    map_s.push_back(first.mapS);

    LpmTrie trie;
    trie.insertAll(first.table);
    std::vector<uint32_t> addr(kStream), hop(kStream);
    {
        IpTrafficGenerator traffic(first.table, first.weights,
                                   subSeed(opt.seed, 3));
        for (std::size_t i = 0; i < kStream; ++i) {
            addr[i] = traffic.next();
            const auto best = trie.lookup(addr[i]);
            // Traffic is drawn under table prefixes: always a route.
            hop[i] = best ? best->nextHop : ~0u;
        }
    }
    const auto checkLookup = [&](const caram::core::SearchResult &r,
                                 std::size_t i) {
        return r.hit && r.data == hop[i];
    };

    // One lookup, under a request span and a Database::search span
    // when traced.
    const uint16_t request_n = tracer.nameId("ip.request");
    const uint16_t search_n = tracer.nameId("core.database.search");
    const auto lookup = [&](caram::core::Database &db, const Key &key,
                            bool traced, uint64_t request) {
        if (!traced)
            return db.search(key);
        ScopedSpan req(tracer, request_n, 0, request);
        ScopedSpan s(tracer, search_n, req.id(), request);
        return db.search(key);
    };

    const auto modeledPass = [&](caram::core::Database &db, bool traced) {
        ModeledPass p;
        for (std::size_t i = 0; i < kModeledPass; ++i) {
            const caram::core::SearchResult r =
                lookup(db, Key::fromUint(addr[i], 32), traced, i);
            ++p.lookups;
            p.accesses += r.bucketsAccessed;
            p.charged += std::max(1u, r.bucketsAccessed);
            p.failed += !checkLookup(r, i);
        }
        return p;
    };

    // Pass A on the first build; its twin on the second build (traced
    // when this is the traced run) must repeat every modeled count.
    const ModeledPass pass_a = modeledPass(*first.mapped.db, false);
    res.attempted += pass_a.lookups;
    res.failed += pass_a.failed;
    const uint64_t records = first.mapped.prefixes;
    const double storage_bytes =
        first.mapped.db->nominalStorageBits() / 8.0 / records;
    first.mapped.db.reset();

    ModeledPass pass_b;
    {
        Setup second = buildSetup();
        setup_s.push_back(second.totalS);
        map_s.push_back(second.mapS);
        pass_b = modeledPass(*second.mapped.db, opt.trace);
        res.attempted += pass_b.lookups;
        res.failed += pass_b.failed;
    }
    const bool deterministic = sameCounts(pass_a, pass_b);
    if (!deterministic) {
        res.schedulingDependent.push_back(
            "ip_lpm bucketsAccessed sum (" +
            std::to_string(pass_a.accesses) + " vs " +
            std::to_string(pass_b.accesses) + ")");
    }

    Setup live = buildSetup();
    setup_s.push_back(live.totalS);
    map_s.push_back(live.mapS);
    caram::core::Database &db = *live.mapped.db;
    caram::core::CaRamSlice &slice = db.slice();

    // Route-update probe: announce a fresh /24 and withdraw it again,
    // each call timed; the trie follows along and both answer a lookup
    // under the new prefix after every step.  Bursts of it run every
    // kBurstEvery lookups, outside the throughput timing, so the update
    // latencies sample the same stretch of host time.  The
    // routes come from a fixed pool (see kUpdatePoolSeed), cycled in an
    // order drawn from the seed before timing, so the trie does not grow
    // with the number of bursts a run manages.
    struct Update
    {
        Prefix prefix;
        uint32_t probe = 0; ///< an address under the prefix
    };
    std::vector<Update> pool(kUpdatePool);
    {
        std::unordered_set<uint64_t> taken;
        for (const Prefix &p : live.table.prefixes())
            taken.insert(p.id());
        caram::Rng rng(kUpdatePoolSeed);
        for (Update &u : pool) {
            do {
                u.prefix.address =
                    static_cast<uint32_t>(rng.next64()) & 0xffffff00u;
                u.prefix.length = 24;
            } while (!taken.insert(u.prefix.id()).second);
            u.prefix.nextHop = static_cast<uint32_t>(rng.below(1u << 16));
            u.probe = u.prefix.address | (rng.next64() & 0xffu);
        }
    }
    std::vector<std::size_t> order(kUpdatePool);
    for (std::size_t k = 0; k < kUpdatePool; ++k)
        order[k] = k;
    {
        caram::Rng rng(subSeed(opt.seed, 4));
        for (std::size_t k = kUpdatePool - 1; k > 0; --k)
            std::swap(order[k], order[rng.below(k + 1)]);
    }
    uint64_t updates = 0;
    const auto updateBurst = [&](std::size_t pairs, bool traced,
                                 UpdateCosts &upd) {
        const uint16_t ins = tracer.nameId("core.database.insert");
        const uint16_t era = tracer.nameId("core.database.erase");
        for (std::size_t n = 0; n < pairs; ++n, ++updates) {
            const std::size_t route = order[updates % kUpdatePool];
            const Update &u = pool[route];
            const Prefix &p = u.prefix;
            const caram::core::Record rec{p.toKey(), p.nextHop};

            int64_t t0 = nowNs();
            const uint64_t s1 = traced ? tracer.open(ins, 0, updates) : 0;
            const bool placed = db.insert(rec, p.length);
            if (traced)
                tracer.close(s1);
            int64_t t1 = nowNs();
            const int64_t announce_ns = t1 - t0;
            trie.insert(p);
            const auto want_in = trie.lookup(u.probe);
            const auto got_in = db.search(Key::fromUint(u.probe, 32));
            res.failed += !placed || !want_in || !got_in.hit ||
                          got_in.data != want_in->nextHop;

            t0 = nowNs();
            const uint64_t s2 = traced ? tracer.open(era, 0, updates) : 0;
            const unsigned removed = db.erase(p.toKey());
            if (traced)
                tracer.close(s2);
            t1 = nowNs();
            upd.add(route, announce_ns, t1 - t0);
            trie.erase(p);
            const auto want_out = trie.lookup(u.probe);
            const auto got_out = db.search(Key::fromUint(u.probe, 32));
            res.failed += removed == 0 ||
                          got_out.hit != want_out.has_value() ||
                          (want_out && got_out.data != want_out->nextHop);
            res.attempted += 2;
        }
    };

    // Closed loop: one caller, next lookup as soon as the last returns.
    const auto timedLoop = [&](double seconds, bool traced,
                               LatencySegments &lat, UpdateCosts &upd) {
        std::vector<double> rates;
        uint64_t done = 0;
        int64_t wall = 0;
        const int64_t budget = static_cast<int64_t>(seconds * 1e9);
        std::size_t i = 0;
        while (wall < budget) {
            for (uint64_t s = 0; s < kBurstEvery; s += kRateSegment) {
                const int64_t seg_start = nowNs();
                int64_t t1 = seg_start;
                for (uint64_t k = 0; k < kRateSegment; ++k) {
                    const Key key = Key::fromUint(addr[i], 32);
                    const int64_t t0 = nowNs();
                    const caram::core::SearchResult r =
                        lookup(db, key, traced, done);
                    t1 = nowNs();
                    lat.add(t1 - t0);
                    res.failed += !checkLookup(r, i);
                    ++done;
                    if (++i == kStream)
                        i = 0;
                }
                rates.push_back(kRateSegment / ((t1 - seg_start) / 1e3));
                wall += t1 - seg_start;
            }
            updateBurst(kUpdatePairsPerBurst, traced, upd);
        }
        res.attempted += done;
        return hostQuietRate(rates); // Mops
    };

    LatencySegments lat(kLatencySegment);
    UpdateCosts upd(kUpdatePool);
    double mops = 0.0;
    double traced_mops = 0.0;
    uint64_t traced_spans = tracer.mark();
    if (opt.trace) {
        mops = timedLoop(opt.seconds * 0.3, false, lat, upd);
        traced_spans = tracer.mark();
        LatencySegments traced_lat(kLatencySegment);
        UpdateCosts traced_upd(kUpdatePool);
        traced_mops = timedLoop(opt.seconds * 0.3, true, traced_lat,
                                traced_upd);
    } else {
        mops = timedLoop(opt.seconds, false, lat, upd);
    }

    const double modeled_msps = static_cast<double>(pass_a.lookups) /
        (static_cast<double>(pass_a.charged) * timing.minCycleGap) *
        timing.clockMhz;
    const double amal = static_cast<double>(pass_a.accesses) /
                        static_cast<double>(pass_a.lookups);

    if (!opt.trace) {
        res.e2e("throughput_mops", mops);
        res.e2e("p50_us", lat.p50Ns() / 1e3);
        res.e2e("p99_us", lat.p99Ns() / 1e3);
        res.e2e("update_p99_us", upd.p99Ns() / 1e3);
        res.e2e("modeled_msps", modeled_msps);
        res.e2e("setup_s", median(setup_s));
        res.e2e("peak_rss_mb", peakRssMb());
        res.notes.push_back("latency samples " +
                            std::to_string(lat.count()) +
                            ", update samples " +
                            std::to_string(upd.count()));
        res.notes.push_back(std::string("modeled counts ") +
                            (deterministic ? "repeat exactly"
                                           : "DIFFER between passes"));
        return res;
    }

    // Traced run: the per-layer breakdown.
    const double insert_ns =
        tracer.medianSelfNs("core.database.insert", traced_spans);
    const double erase_ns =
        tracer.medianSelfNs("core.database.erase", traced_spans);

    // One span per public call into each layer, on the same keys.
    const uint64_t layer_spans = tracer.mark();
    {
        const uint16_t root = tracer.nameId("ip.layers");
        const uint16_t homes_n = tracer.nameId("hash.candidate_homes");
        const uint16_t rows_n = tracer.nameId("core.match.search_rows");
        const uint16_t slice_n = tracer.nameId("core.slice.search");
        const uint16_t db_n = tracer.nameId("core.database.search");
        const uint16_t trie_n =
            tracer.nameId("baseline.lpm_trie.lookup");
        std::vector<uint64_t> homes;
        homes.reserve(64);
        caram::core::MatchProcessor::PackedKey packed;
        for (std::size_t i = 0; i < kLayerPass; ++i) {
            const Key key = Key::fromUint(addr[i], 32);
            ScopedSpan req(tracer, root, 0, i);
            {
                ScopedSpan s(tracer, homes_n, req.id(), i);
                slice.candidateHomes(key, homes);
            }
            caram::core::SearchResult rows;
            {
                ScopedSpan s(tracer, rows_n, req.id(), i);
                slice.packSearchKey(key, packed);
                rows = slice.searchRows(packed, homes.data(),
                                        static_cast<unsigned>(homes.size()));
            }
            caram::core::SearchResult sl;
            {
                ScopedSpan s(tracer, slice_n, req.id(), i);
                sl = slice.search(key);
            }
            caram::core::SearchResult full;
            {
                ScopedSpan s(tracer, db_n, req.id(), i);
                full = db.search(key);
            }
            std::optional<Prefix> best;
            {
                ScopedSpan s(tracer, trie_n, req.id(), i);
                best = trie.lookup(addr[i]);
            }
            res.failed += !checkLookup(full, i) || !checkLookup(sl, i) ||
                          !checkLookup(rows, i) || !best ||
                          best->nextHop != hop[i];
            res.attempted += 1;
        }
    }
    const auto layerNs = [&](const char *name) {
        return tracer.medianSelfNs(name, layer_spans);
    };
    const double homes_ns = layerNs("hash.candidate_homes");
    const double rows_ns = layerNs("core.match.search_rows");
    const double slice_ns = layerNs("core.slice.search");
    const double db_ns = layerNs("core.database.search");
    const double trie_ns = layerNs("baseline.lpm_trie.lookup");

    const uint64_t batch_spans = tracer.mark();
    {
        const uint16_t batch_n =
            tracer.nameId("core.database.search_batch");
        std::vector<Key> keys(kBatch);
        std::vector<const Key *> ptrs(kBatch);
        std::vector<caram::core::SearchResult> out(kBatch);
        for (std::size_t g = 0; g + kBatch <= kLayerPass; g += kBatch) {
            for (unsigned k = 0; k < kBatch; ++k) {
                keys[k] = Key::fromUint(addr[g + k], 32);
                ptrs[k] = &keys[k];
            }
            {
                ScopedSpan s(tracer, batch_n, 0, g);
                db.searchBatch(ptrs.data(), kBatch, out.data());
            }
            for (unsigned k = 0; k < kBatch; ++k)
                res.failed += !checkLookup(out[k], g + k);
            res.attempted += kBatch;
        }
    }
    const double batch_ns =
        tracer.medianSelfNs("core.database.search_batch", batch_spans) /
        kBatch;

    res.layer("hash.candidate_homes_ns", homes_ns);
    res.layer("core.match.search_rows_ns", rows_ns);
    res.layer("core.slice.search_ns", slice_ns);
    res.layer("core.database.search_ns", db_ns);
    res.layer("core.database.search_batch_ns_per_key", batch_ns);
    res.layer("core.slice.amal", amal);
    res.layer("core.database.insert_ns", insert_ns);
    res.layer("core.database.erase_ns", erase_ns);
    res.layer("ip.map_s", median(map_s));
    res.layer("mem.storage_bytes_per_record", storage_bytes);
    res.layer("baseline.lpm_trie.lookup_ns", trie_ns);
    res.layer("core.database.search_vs_lpm_trie",
              trie_ns > 0 ? db_ns / trie_ns : 0.0);
    res.layer("bench.trace_overhead_frac",
              mops > 0 ? 1.0 - traced_mops / mops : 0.0);
    res.layer("bench.modeled_sched_dependent",
              static_cast<double>(res.schedulingDependent.size()));
    return res;
}

} // namespace perfbench
