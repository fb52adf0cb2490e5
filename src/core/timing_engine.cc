#include "core/timing_engine.h"

#include <algorithm>
#include <cmath>

#include "common/bitops.h"
#include "common/logging.h"

namespace caram::core {

TimingEngine::TimingEngine(Database &db, const TimingConfig &config)
    : db_(&db), cfg(config), clock(config.timing.clockMhz)
{
    const unsigned nbanks = db.layout().independentBanks();
    for (unsigned b = 0; b < nbanks; ++b)
        banks.emplace_back(cfg.timing);
    // Vertical banks each own one physical slice's worth of rows.
    rowsPerBank = db.config().sliceShape.rows();
}

unsigned
TimingEngine::bankOf(uint64_t row) const
{
    if (banks.size() == 1)
        return 0;
    const uint64_t bank = row / rowsPerBank;
    return static_cast<unsigned>(
        std::min<uint64_t>(bank, banks.size() - 1));
}

TimingRunResult
TimingEngine::run(std::span<const Key> keys)
{
    TimingRunResult out;
    const sim::Tick period = clock.period();
    const sim::Tick arrival_gap = cfg.offeredMsps > 0.0
        ? static_cast<sim::Tick>(std::llround(1e6 / cfg.offeredMsps))
        : 0;

    sim::Tick controller_free = 0;
    sim::Tick arrival = 0;
    std::vector<uint64_t> rows;
    for (const Key &key : keys) {
        // Request enters the queue at its arrival time; the controller
        // issues at most one request per cycle.
        const sim::Tick issue =
            clock.nextEdge(std::max(arrival, controller_free));
        controller_free = issue + period;

        rows.clear();
        db_->slice().search(key, &rows);
        if (rows.empty())
            rows.push_back(db_->slice().homeRow(key)); // safety net

        // Chain the accesses: each must wait for its bank and for the
        // previous probe result (probing is sequential by nature).
        sim::Tick ready = issue;
        sim::Tick last_data = issue;
        for (uint64_t row : rows) {
            mem::BankTimer &bank = banks[bankOf(row)];
            last_data = bank.access(ready);
            ready = last_data;
            ++out.memoryAccesses;
        }
        // Match stages are pipelined with the memory: only the last
        // access pays the match latency before the result is queued.
        const sim::Tick done = last_data + cfg.matchCycles * period;
        out.probe.record(arrival, done);

        arrival += arrival_gap;
    }
    out.lookups = keys.size();
    out.achievedMsps = out.probe.throughputMsps();
    out.meanLatencyNs = out.probe.meanLatencyNs();
    return out;
}

double
TimingEngine::analyticBandwidthMsps() const
{
    const double nslice = static_cast<double>(banks.size());
    return nslice / cfg.timing.minCycleGap * cfg.timing.clockMhz;
}

} // namespace caram::core
