#include "engine/maintenance_engine.h"

#include <bit>
#include <chrono>

#include "engine/parallel_search_engine.h"

namespace caram::engine {

namespace {

void
sleepUs(unsigned us)
{
    std::this_thread::sleep_for(std::chrono::microseconds(us));
}

} // namespace

MaintenanceEngine::MaintenanceEngine(ParallelSearchEngine &engine)
    : engine_(&engine)
{
    const std::size_t nports = engine.sys->databaseCount();
    ports_.reserve(nports);
    for (std::size_t p = 0; p < nports; ++p)
        ports_.push_back(std::make_unique<PortMaintenance>());
}

MaintenanceEngine::~MaintenanceEngine()
{
    stopPlanner();
}

void
MaintenanceEngine::start()
{
    if (planner_.joinable() || ports_.empty())
        return;
    stop_.store(false, std::memory_order_release);
    planner_ = std::thread([this] { plannerMain(); });
}

void
MaintenanceEngine::stopPlanner()
{
    stop_.store(true, std::memory_order_release);
    if (planner_.joinable())
        planner_.join();
}

void
MaintenanceEngine::plannerMain()
{
    const unsigned nports = static_cast<unsigned>(ports_.size());
    while (!stop_.load(std::memory_order_acquire)) {
        // A drain() must be able to reach zero in flight: stop feeding.
        if (engine_->drainers_.load(std::memory_order_acquire) != 0) {
            sleepUs(100);
            continue;
        }
        // At most one step outstanding (the SMD arbitration bound).
        if (outstanding_.load(std::memory_order_acquire) != 0) {
            sleepUs(20);
            continue;
        }
        const uint64_t inflight = engine_->inflightCount();
        if (inflight > kBackoffInflight) {
            backoffs_.fetch_add(1, std::memory_order_relaxed);
            sleepUs(200);
            continue;
        }
        // While foreground traffic is running, demand a completion
        // budget between steps; an idle engine steps back-to-back.
        if (inflight != 0) {
            const uint64_t done = engine_->completedCount();
            if (done - lastStepCompleted_ < kForegroundOpsPerStep) {
                sleepUs(20);
                continue;
            }
        }
        const unsigned port = nextPort_;
        nextPort_ = (nextPort_ + 1) % nports;
        lastStepCompleted_ = engine_->completedCount();
        // Set the gate before the submit: the step may execute and
        // clear it before submitMaintenanceStep() even returns.
        outstanding_.store(1, std::memory_order_release);
        if (!engine_->submitMaintenanceStep(port)) {
            outstanding_.store(0, std::memory_order_release);
            sleepUs(100);
        }
    }
}

uint64_t
MaintenanceEngine::executeStep(core::Database &db, unsigned port)
{
    PortMaintenance &pm = *ports_[port];
    uint64_t row_ops = 0;
    // A migration the tear hook interrupted last step finishes first:
    // at most one transient duplicate per port exists at any time.
    if (pm.pending.active)
        row_ops += finishPending(db, pm);
    const core::SliceConfig &scfg = db.slice().config();
    // Migration and adoption move one stored copy of a key -- sound
    // for result streams only when a search key can match exactly one
    // stored record, i.e. fully-specified (binary) keys.  Ternary
    // tables (where a widened lookup ties several records and the
    // winner is chain-order-sensitive) get reach trimming only.
    const bool binary = !scfg.ternary;
    const bool migrate = binary &&
                         scfg.probe != core::ProbePolicy::None &&
                         scfg.maxProbeDistance > 0;
    const bool trim = scfg.probe == core::ProbePolicy::Linear;
    const bool adopt = binary && db.overflowSlice() != nullptr;
    if (!pm.amalSeeded.exchange(true, std::memory_order_relaxed))
        pm.amalBeforeBits.store(std::bit_cast<uint64_t>(db.amal()),
                                std::memory_order_relaxed);
    if (!migrate && !trim && !adopt) {
        steps_.fetch_add(1, std::memory_order_relaxed);
        outstanding_.store(0, std::memory_order_release);
        return 0;
    }
    const uint64_t rows = scfg.rows();
    const uint64_t ov_rows = adopt ? db.overflowSlice()->config().rows() : 0;
    const uint64_t span = rows + ov_rows;
    for (unsigned n = 0; n < kRowsPerStep && !pm.pending.active; ++n) {
        // Overflow-only tables (probe None, not Linear) have no useful
        // main-row work: sweep the overflow span only.
        if (!migrate && !trim && pm.cursor < rows)
            pm.cursor = rows;
        if (pm.cursor < rows)
            row_ops += mainRowPass(db, pm, pm.cursor, migrate, trim);
        else
            row_ops += overflowRowPass(db, pm, pm.cursor - rows);
        if (++pm.cursor >= span) {
            pm.cursor = 0;
            pm.amalAfterBits.store(std::bit_cast<uint64_t>(db.amal()),
                                   std::memory_order_relaxed);
            pm.amalAfterSet.store(true, std::memory_order_relaxed);
            sweeps_.fetch_add(1, std::memory_order_relaxed);
        }
    }
    steps_.fetch_add(1, std::memory_order_relaxed);
    outstanding_.store(0, std::memory_order_release);
    return row_ops;
}

uint64_t
MaintenanceEngine::mainRowPass(core::Database &db, PortMaintenance &pm,
                               uint64_t row, bool migrate, bool trim)
{
    core::CaRamSlice &sl = db.slice();
    uint64_t row_ops = 0;
    if (migrate) {
        row_ops += 1; // the row scan fetch
        sl.maintenanceScanRow(row, pm.scan);
        const unsigned tear = sl.tornReadInjection();
        for (const auto &ms : pm.scan) {
            if (pm.pending.active)
                break;
            if (ms.distance == 0)
                continue;
            if (!sl.maintenanceHasCloserSlot(ms.home, ms.distance,
                                             ms.record.key))
                continue;
            // Phase 1: publish the closer copy.  insertAt lands at the
            // minimal free probe distance, which the check above proved
            // is strictly closer than the current placement.
            const core::InsertResult placed = sl.insertAt(ms.home,
                                                          ms.record);
            if (!placed.ok)
                continue;
            if (placed.distance >= ms.distance) {
                // Defensive (single mutation authority: cannot happen).
                sl.removePlacement(placed);
                continue;
            }
            row_ops += 2;
            pm.pending.active = true;
            pm.pending.onOverflow = false;
            pm.pending.oldPlacement = core::InsertResult{
                true, ms.home, row, ms.slot, ms.distance};
            pm.pending.key = ms.record.key;
            pm.pending.stamp = engine_->epochDomain_.advance();
            rowsMigrated_.fetch_add(1, std::memory_order_relaxed);
            // Tear injection: leave the migration half-done (both
            // copies live).  Readers still see a complete record; the
            // next step on this port retires the far copy.
            if (tear != 0 &&
                migrationTick_.fetch_add(1, std::memory_order_relaxed) %
                        tear ==
                    tear - 1) {
                tornSteps_.fetch_add(1, std::memory_order_relaxed);
                return row_ops;
            }
            row_ops += finishPending(db, pm);
        }
    }
    if (trim) {
        const unsigned trimmed = sl.maintenanceTrimReach(row);
        if (trimmed != 0) {
            reachTrims_.fetch_add(1, std::memory_order_relaxed);
            row_ops += 1;
        }
    }
    return row_ops;
}

uint64_t
MaintenanceEngine::overflowRowPass(core::Database &db, PortMaintenance &pm,
                                   uint64_t row)
{
    core::CaRamSlice *ov = db.overflowSlice();
    if (!ov)
        return 0;
    core::CaRamSlice &main = db.slice();
    uint64_t row_ops = 1; // the row scan fetch
    ov->maintenanceScanRow(row, pm.scan);
    const unsigned tear = main.tornReadInjection();
    for (const auto &ms : pm.scan) {
        if (pm.pending.active)
            break;
        const uint64_t home = main.homeRow(ms.record.key);
        core::BucketView hb = main.bucket(home);
        // Adopt only while the main chain holds no match for this key:
        // a second match's slot order could flip which copy answers.
        bool main_matches = false;
        for (unsigned s = 0; s < hb.slots() && !main_matches; ++s)
            main_matches = hb.slotValid(s) &&
                           hb.slotMatchesKey(s, ms.record.key);
        if (main_matches)
            continue;
        // Phase 1: publish the copy in the main table (probe policy is
        // None on overflow-area tables, so this is home-bucket-only).
        const core::InsertResult placed = main.insertAt(home, ms.record);
        if (!placed.ok)
            continue;
        row_ops += 2;
        pm.pending.active = true;
        pm.pending.onOverflow = true;
        pm.pending.oldPlacement =
            core::InsertResult{true, ms.home, row, ms.slot, ms.distance};
        pm.pending.key = ms.record.key;
        pm.pending.stamp = engine_->epochDomain_.advance();
        overflowCompacted_.fetch_add(1, std::memory_order_relaxed);
        if (tear != 0 &&
            migrationTick_.fetch_add(1, std::memory_order_relaxed) % tear ==
                tear - 1) {
            tornSteps_.fetch_add(1, std::memory_order_relaxed);
            return row_ops;
        }
        row_ops += finishPending(db, pm);
    }
    return row_ops;
}

uint64_t
MaintenanceEngine::finishPending(core::Database &db, PortMaintenance &pm)
{
    // Phase 2: wait until every reader that entered before the new
    // copy's publish-advance has exited, then retire the far copy.
    // The only concurrent readers of a checked-out port are peek()
    // calls, which pin the engine's epoch domain for their duration.
    while (!engine_->epochDomain_.quiescentSince(pm.pending.stamp))
        std::this_thread::yield();
    if (pm.pending.onOverflow) {
        db.overflowSlice()->removePlacement(pm.pending.oldPlacement);
        db.noteOverflowMutation(pm.pending.key);
    } else {
        db.slice().removePlacement(pm.pending.oldPlacement);
    }
    pm.pending.active = false;
    return 1;
}

void
MaintenanceEngine::completePending(core::Database &db, unsigned port)
{
    PortMaintenance &pm = *ports_[port];
    if (pm.pending.active)
        finishPending(db, pm);
}

void
MaintenanceEngine::flushAllPending()
{
    for (unsigned p = 0; p < ports_.size(); ++p)
        completePending(engine_->sys->database(p), p);
}

double
MaintenanceEngine::amalBefore() const
{
    double sum = 0.0;
    unsigned n = 0;
    for (const auto &pm : ports_) {
        if (!pm->amalSeeded.load(std::memory_order_relaxed))
            continue;
        sum += std::bit_cast<double>(
            pm->amalBeforeBits.load(std::memory_order_relaxed));
        ++n;
    }
    return n ? sum / n : 0.0;
}

double
MaintenanceEngine::amalAfter() const
{
    double sum = 0.0;
    unsigned n = 0;
    for (const auto &pm : ports_) {
        if (!pm->amalAfterSet.load(std::memory_order_relaxed))
            continue;
        sum += std::bit_cast<double>(
            pm->amalAfterBits.load(std::memory_order_relaxed));
        ++n;
    }
    return n ? sum / n : 0.0;
}

} // namespace caram::engine
