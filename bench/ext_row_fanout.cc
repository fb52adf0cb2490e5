/**
 * @file
 * Extension: intra-lookup row fan-out in the parallel search engine.
 *
 * A ternary search key with w don't-care bits in hash tap positions
 * duplicates across 2^w candidate home rows (paper section 4.2); the
 * serial controller walks those chains back to back, so the modeled
 * lookup cost grows linearly with the home count.  With
 * EngineConfig::rowFanoutMin set, the engine splits such lookups into
 * contiguous home-range shards, walks them on the port's owning worker
 * (CaRamSlice::searchRows over worker-local scratch) and charges the
 * port only for the *slowest shard* -- the banks fetch concurrently,
 * the paper's multi-bank overlap.
 *
 * The bench sweeps wildcard widths (2 .. 256 candidate homes) over a
 * 4096-bucket ternary table and compares the modeled port cycles of a
 * serial engine (fan-out threshold unreachable) against the fan-out
 * engine (threshold 2, 8 shards), verifying bit-identity of every
 * response against a direct Database::search of the same keys.
 *
 * Gates (deterministic, always enforced):
 *   - >= 2x modeled-cycle reduction at 32 candidate homes,
 *   - >= 2x at 64 homes (the headline workload),
 *   - fan-out responses bit-identical to Database::search.
 * Wall-clock speedup is reported as info (CARAM_BENCH_WALL=1 turns it
 * into a gate); the fan-out engine walks the same rows on one thread,
 * so wall time stays near 1x and measures the shard merge's overhead.
 *
 * Emits BENCH_row_fanout.json.  Usage:
 *
 *   ext_row_fanout [lookups-per-width] [--json PATH] [--baseline PATH]
 *
 * With --baseline, also exits nonzero when the 64-home reduction
 * drifts more than 10% below the checked-in baseline.
 */

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/strings.h"
#include "core/database.h"
#include "core/subsystem.h"
#include "engine/parallel_search_engine.h"
#include "hash/bit_select.h"

using namespace caram;
using namespace caram::core;
using namespace caram::engine;

namespace {

constexpr unsigned kKeyBits = 48;
constexpr unsigned kIndexBits = 12; // 4096 buckets
constexpr unsigned kTaps[] = {0, 7, 13, 19, 25, 31, 38, 45}; // 8 taps

DatabaseConfig
ternaryConfig(const std::string &name)
{
    DatabaseConfig cfg;
    cfg.name = name;
    cfg.sliceShape.indexBits = kIndexBits;
    cfg.sliceShape.logicalKeyBits = kKeyBits;
    cfg.sliceShape.ternary = true;
    cfg.sliceShape.slotsPerBucket = 4;
    cfg.sliceShape.dataBits = 16;
    cfg.sliceShape.maxProbeDistance = 16;
    cfg.indexFactory = [](const SliceConfig &eff)
        -> std::unique_ptr<hash::IndexGenerator> {
        // 8 wildcardable taps address 256 of the 4096 buckets; the
        // remaining index bits come from fixed low positions.
        std::vector<unsigned> taps(kTaps, kTaps + 8);
        for (unsigned p = 1; taps.size() < eff.indexBits; ++p) {
            if (std::find(taps.begin(), taps.end(), p) == taps.end())
                taps.push_back(p);
        }
        return std::make_unique<hash::BitSelectIndex>(
            eff.logicalKeyBits, std::move(taps));
    };
    return cfg;
}

/** A random ternary key with the first @p wild taps don't-care. */
Key
ternaryKey(Rng &rng, unsigned wild)
{
    Key k(kKeyBits);
    for (unsigned p = 0; p < kKeyBits; ++p)
        k.setBitAt(p, rng.chance(0.5), true);
    for (unsigned w = 0; w < wild; ++w)
        k.setBitAt(kTaps[w], false, false);
    return k;
}

struct RunResult
{
    uint64_t modeledCycles = 0;
    double wallSeconds = 0.0;
    uint64_t fanoutLookups = 0;
    std::vector<PortResponse> responses;
};

/** Drive @p stream through a fresh engine over @p sys. */
RunResult
runEngine(CaRamSubsystem &sys, const std::vector<PortRequest> &stream,
          unsigned fanout_min, unsigned workers)
{
    EngineConfig cfg;
    cfg.workers = workers;
    // An explicit nonzero threshold always wins over the
    // CARAM_ROW_FANOUT_MIN environment floor, so the serial baseline
    // stays serial even under the forced-fan-out CI leg.
    cfg.rowFanoutMin = fanout_min;
    cfg.rowFanoutMaxShards = 8;
    cfg.queueCapacity = 4096;
    ParallelSearchEngine eng(sys, cfg);
    eng.start();
    const auto t0 = std::chrono::steady_clock::now();
    eng.submitBatch(stream);
    eng.drain();
    RunResult out;
    out.wallSeconds = bench::secondsSince(t0);
    out.modeledCycles = eng.portStats(0).modeledCycles;
    out.fanoutLookups = eng.report().fanoutLookups;
    while (auto r = eng.fetchResult(0))
        out.responses.push_back(std::move(*r));
    eng.stop();
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    std::size_t nlookups = 2000;
    std::string json_path = "BENCH_row_fanout.json";
    std::string baseline_path;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc)
            json_path = argv[++i];
        else if (arg == "--baseline" && i + 1 < argc)
            baseline_path = argv[++i];
        else
            nlookups = std::strtoull(argv[i], nullptr, 10);
    }

    std::cout << "=== Extension: intra-lookup row fan-out ===\n\n"
              << (uint64_t{1} << kIndexBits) << " buckets x 4 slots, "
              << kKeyBits << "-bit ternary keys, 8 wildcardable hash "
                             "taps, "
              << withCommas(nlookups) << " lookups per width, 4 "
                                         "workers x 8 shards\n\n";

    // One loaded subsystem serves every run: searches do not mutate.
    CaRamSubsystem sys(8192, 8192, true);
    Database &db = sys.addDatabase(ternaryConfig("fanout"));
    Rng load_rng(2026);
    for (int i = 0; i < 6000; ++i)
        db.insert(Record{ternaryKey(load_rng, i % 11 == 0 ? 1 : 0),
                         load_rng.below(1u << 16)});

    const unsigned widths[] = {1, 3, 5, 6, 8}; // 2 .. 256 homes
    double reduction32 = 0.0, reduction64 = 0.0, reduction256 = 0.0;
    double wall64 = 0.0;
    bool identical = true;

    TextTable tt({"homes", "serial cycles", "fan-out cycles",
                  "reduction", "wall speedup", "results"});
    for (unsigned wild : widths) {
        Rng rng(4000 + wild);
        std::vector<PortRequest> stream;
        for (std::size_t i = 0; i < nlookups; ++i) {
            PortRequest req;
            req.port = 0;
            req.op = PortOp::Search;
            // Random care bits, so most lookups miss and walk the
            // whole candidate home set -- the worst-case serial chain.
            req.key = ternaryKey(rng, wild);
            req.tag = i + 1;
            stream.push_back(std::move(req));
        }

        const RunResult serial =
            runEngine(sys, stream, 1u << 30, 4);
        const RunResult fanout = runEngine(sys, stream, 2, 4);
        const double reduction =
            static_cast<double>(serial.modeledCycles) /
            static_cast<double>(fanout.modeledCycles);
        const double wall_speedup =
            serial.wallSeconds / fanout.wallSeconds;

        // Bit-identity of the fan-out run against direct serial
        // searches of the same keys (per-port FIFO order).
        bool same = fanout.responses.size() == stream.size() &&
                    serial.responses.size() == stream.size();
        for (std::size_t i = 0; same && i < stream.size(); ++i) {
            const SearchResult want = db.search(stream[i].key);
            const PortResponse &got = fanout.responses[i];
            same = got.tag == stream[i].tag && got.hit == want.hit &&
                   got.data == want.data &&
                   got.bucketsAccessed == want.bucketsAccessed &&
                   got.key == want.key &&
                   serial.responses[i].hit == want.hit &&
                   serial.responses[i].bucketsAccessed ==
                       want.bucketsAccessed;
        }
        identical = identical && same;

        const unsigned homes = 1u << wild;
        if (homes == 32)
            reduction32 = reduction;
        if (homes == 64) {
            reduction64 = reduction;
            wall64 = wall_speedup;
        }
        if (homes == 256)
            reduction256 = reduction;
        tt.addRow({std::to_string(homes),
                   withCommas(serial.modeledCycles),
                   withCommas(fanout.modeledCycles),
                   fixed(reduction, 2) + "x",
                   fixed(wall_speedup, 2) + "x",
                   same ? "identical" : "DIFF"});
    }
    tt.print(std::cout);
    std::cout << "\n(modeled cycles charge the serial chain sum vs the "
                 "slowest shard; shards overlap like the paper's "
                 "multi-bank fetch)\n";

    std::ostringstream json;
    json << "{\n  \"bench\": \"row_fanout\",\n  \"lookups\": "
         << nlookups << ",\n  \"cycle_reduction_32\": "
         << fixed(reduction32, 2) << ",\n  \"cycle_reduction_64\": "
         << fixed(reduction64, 2) << ",\n  \"cycle_reduction_256\": "
         << fixed(reduction256, 2) << ",\n  \"wall_speedup_64\": "
         << fixed(wall64, 2) << "\n}\n";
    std::ofstream(json_path) << json.str();

    bench::Gates gates;
    std::cout << "\n";
    gates.gate(reduction32 >= 2.0,
               fixed(reduction32, 2) +
                   "x modeled-cycle reduction at 32 homes (>= 2x)");
    gates.gate(reduction64 >= 2.0,
               fixed(reduction64, 2) +
                   "x modeled-cycle reduction at 64 homes (>= 2x)");
    gates.gate(identical,
               "fan-out responses bit-identical to Database::search");
    gates.wallGate(wall64 >= 1.0,
                   fixed(wall64, 2) +
                       "x wall-clock speedup at 64 homes");

    if (!baseline_path.empty()) {
        const std::string base = bench::readFile(baseline_path);
        const double base_lookups = bench::baselineField(base, "lookups");
        const double base_reduction =
            bench::baselineField(base, "cycle_reduction_64");
        if (base_reduction > 0.0 &&
            base_lookups == static_cast<double>(nlookups)) {
            gates.gate(reduction64 >= 0.9 * base_reduction,
                       "64-home reduction within 10% of baseline (" +
                           fixed(base_reduction, 2) + "x)");
        } else {
            std::cout << "baseline skipped (different lookup count or "
                         "unreadable)\n";
        }
    }
    return gates.rc();
}
