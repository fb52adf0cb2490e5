#!/usr/bin/env bash
# ThreadSanitizer gate for the concurrency layer: builds with
# -DCARAM_TSAN=ON and runs the lock-free hand-off ring and doorbell
# tests (ConcurrentQueue.*, Doorbell.*), the per-port result stream
# (SpscBlockQueue.*, whose ProducerRoleMovesBetweenThreads hands the
# producer role between threads under two locked consumers, and the
# engine-level ResultStream.* tests, where one port's responses
# alternate between its owning worker and its writer lane while two
# threads fetch) and the parallel-engine tests under TSan.  The Engine suite includes the batched multi-key
# pipeline tests (Engine.Batched*), so worker-side group execution and
# flush-around-mutation paths are raced too, the bulk-ingest tests
# (Engine.BatchedIngestMatchesSerial, Engine.BulkLoadMatchesSerial*,
# Engine.Rebuild*) race worker-side insertBatch runs and port-driven
# rebuilds, and the intra-lookup fan-out tests (Engine.Fanout*) run
# the owning worker's inline shard walk beside other workers, the
# writer lanes and the worker doorbells, and Engine.LostWakeupStress
# parks workers and lanes between bursts.  The
# concurrent-mutation layer rides along: the per-row seqlock
# differentials (SeqlockConcurrent.*), the epoch-based reclamation
# domain (Epoch.*), the writer-lane engine differentials
# (ConcurrentMutationDifferential.*, including the *Lanes* legs that
# shard ports across multiple writer threads and race owner-side
# staging of combined mutation runs against the lanes' drain loops),
# and the live-polling stats / peek regressions
# (Engine.ReportAndStats*, Engine.PeekStableKeys*)
# all race readers against in-place mutation and slice swaps.  The
# hot-key result cache is covered twice: the engine-level cache
# differentials (ResultCacheDifferential.*, ResultCacheGeneration.*)
# race cached search dispatch against writer-lane mutations, and the
# ResultCacheHammer drives raw probe/fill/invalidate from concurrent
# threads straight into the per-entry seqlocks.  The per-row counting
# pre-filter is raced by the filtered differentials
# (PrefilterDifferential.*, whose *CombinedWriterSections legs race
# filter maintenance inside combined bulk-ingest writer sections,
# PrefilterUnit.*) and by
# PrefilterConcurrent.StableKeysAlwaysHitUnderChurn, where reader
# threads run the validated concurrent filter consult against
# insert/erase/rebuildSwap churn on the same rows.  The online
# maintenance engine is raced by the maintenance differentials
# (MaintenanceDifferential.*, whose legs run the background planner's
# epoch-quiesced two-phase migrations, reach trims and overflow
# adoption against randomized insert/erase/rebuild/search streams over
# writer lanes, combining and the result cache) and by the online
# suite (MaintenanceOnline.*, including the torn-migration legs that
# race reader threads against injected mid-migration tears).  Any data
# race fails the script.
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
