#!/usr/bin/env bash
# ThreadSanitizer gate for the concurrency layer: builds with
# -DCARAM_TSAN=ON and runs the lock-free hand-off ring and doorbell
# tests (ConcurrentQueue.*, Doorbell.*), the per-port result stream
# (SpscBlockQueue.*, whose ProducerRoleMovesBetweenThreads hands the
# producer role between threads under two locked consumers, and the
# engine-level ResultStream.* tests, where two threads fetch one port's
# responses while its owning worker publishes them) and the
# parallel-engine tests under TSan.  Every request, mutations and
# maintenance steps included, runs on its port's owning worker, so the
# races left are between workers, producers, consumers and peek()
# readers.  The Engine suite includes the batched multi-key pipeline
# tests (Engine.Batched*), so worker-side group execution and
# flush-around-mutation paths are raced too, the bulk-ingest tests
# (Engine.BatchedIngestMatchesSerial, Engine.BulkLoadMatchesSerial*,
# Engine.Rebuild*) race worker-side insertBatch runs and port-driven
# rebuilds, the intra-lookup fan-out tests (Engine.Fanout*) run the
# owning worker's inline shard walk beside other workers and the
# worker doorbells, and Engine.LostWakeupStress parks workers between
# bursts.  The same `Engine` term selects
# Engine.PeekReadersRaceRebuildsOnThreadedEngine, which races peek()
# readers against back-to-back owner-executed rebuildSwaps,
# Engine.MixedStreamModeledCountsRepeatExactly runs a live 90/10 stream
# twice on two workers, and Engine.PeekUnknownPortIsAMiss covers the
# caller-error path on a running engine.  The mutation layer rides
# along: the per-row seqlock differentials (SeqlockConcurrent.*), the
# epoch-based reclamation domain (Epoch.*), the multi-worker mutation
# differentials (ConcurrentMutationDifferential.*, at 1, 2 and 4
# workers), and the live-polling stats / peek regressions
# (Engine.ReportAndStats*, Engine.PeekStableKeys*) all race readers
# against in-place mutation and slice swaps.  The hot-key result cache
# is covered twice: the engine-level cache differentials
# (ResultCacheDifferential.*, ResultCacheGeneration.*) race cached
# search dispatch against other workers' mutations, and the
# ResultCacheHammer drives raw probe/fill/invalidate from concurrent
# threads straight into the per-entry seqlocks.  The per-row counting
# pre-filter is raced by the filtered differentials
# (PrefilterDifferential.*, whose *CombinedWriterSections legs run
# filter maintenance inside batched insert writer sections,
# PrefilterUnit.*) and by
# PrefilterConcurrent.StableKeysAlwaysHitUnderChurn, where reader
# threads run the validated concurrent filter consult against
# insert/erase/rebuildSwap churn on the same rows.  The online
# maintenance engine is raced by the maintenance differentials
# (MaintenanceDifferential.*, whose legs run the background planner's
# epoch-quiesced two-phase migrations, reach trims and overflow
# adoption on the owning workers against randomized
# insert/erase/rebuild/search streams and the result cache) and by the
# online suite (MaintenanceOnline.*, including the torn-migration legs
# that race reader threads against injected mid-migration tears).  Any
# data race fails the script.
#
# Usage: scripts/ci_tsan.sh [build-dir]   (default build-tsan)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . -DCARAM_TSAN=ON
cmake --build "$BUILD_DIR" -j"$(nproc)" \
    --target test_mpmc_ring test_spsc_block_queue test_engine test_epoch \
    seqlock_concurrent concurrent_mutation_differential \
    result_cache_differential prefilter_differential \
    maintenance_differential
TSAN_OPTIONS="halt_on_error=1" ctest --test-dir "$BUILD_DIR" \
    -R 'ConcurrentQueue|Doorbell|SpscBlockQueue|ResultStream|Engine|Epoch|SeqlockConcurrent|ConcurrentMutation|ResultCache|Prefilter|Maintenance' \
    --output-on-failure
