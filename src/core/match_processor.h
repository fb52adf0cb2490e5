#ifndef CARAM_CORE_MATCH_PROCESSOR_H_
#define CARAM_CORE_MATCH_PROCESSOR_H_

/**
 * @file
 * Functional model of the CA-RAM match processor (paper sections 3.1 and
 * 3.3).  Its four steps are:
 *
 *   1. expand search key   -- replicate/align the key across the row
 *                             (hidden under the memory access)
 *   2. calculate match vector -- per-slot ternary comparison
 *   3. decode match vector -- priority encode, detect multi/no match
 *   4. extract result      -- multiplex out the matched record
 *
 * Comparison implements the extended single-bit comparator of
 * Figure 4(b): a bit matches when the values agree or when either the
 * search key's mask (Mi) or the stored key's mask (TMi) marks it
 * don't care.
 *
 * Two implementations coexist:
 *
 *  - The *word-parallel* path: step 1 is performed once per lookup by
 *    pack(), which snapshots the search key's value/care words into a
 *    reusable template (a software rendition of the hardware's
 *    key-expand stage, whose replication across slots is free wiring).
 *    searchBucketPacked() then evaluates each slot as XOR+AND over
 *    64-bit words gathered from the row at the slot's bit offset, with
 *    a per-word early exit -- no bit-by-bit decode, no Key
 *    materialization, no allocation.  Gathering lazily per slot beats
 *    eagerly pre-aligning the key for every slot: a non-matching slot
 *    (the common case) is rejected after a single gathered word, so
 *    most of an eager O(slots x words) expansion would be thrown away.
 *    All CaRamSlice search paths use this.
 *  - The *reference* path (matchVector/searchBucket/searchBucketBest):
 *    the original per-slot comparison through BucketView accessors,
 *    kept as the oracle the differential tests check the fast path
 *    against.
 *
 * The word-parallel path itself dispatches between comparator kernels
 * (core/match_kernels.h): the scalar per-slot loop, an AVX2 kernel
 * evaluating 4 slots per pass, and an AVX-512 kernel evaluating 8.
 * The kernel is sampled once at construction (common/cpuid.h), so a
 * processor never changes kernels mid-lifetime; rebuilding the slice
 * (or the processor) picks up a changed override/environment.  All
 * kernels feed the same priority-encode/LPM/extract logic, which keeps
 * them bit-identical above the match vector by construction.
 */

#include <array>
#include <cstdint>
#include <vector>

#include "common/cpuid.h"
#include "common/key.h"
#include "core/bucket.h"
#include "core/config.h"
#include "core/match_kernels.h"
#include "core/record.h"

namespace caram::core {

/** The decoupled match logic shared by a slice's bucket accesses. */
class MatchProcessor
{
  public:
    explicit MatchProcessor(const SliceConfig &config);

    /**
     * The expanded search key (step 1): the key's value and care words
     * in key space, zero-padded so every per-slot window reads inside
     * the buffers.  Pack once per lookup, reuse across every bucket
     * the lookup probes.  The buffers are reused across pack() calls
     * (per-slice scratch), so a steady-state search performs no
     * allocations.
     */
    struct PackedKey
    {
        /** Search value words, [0, keyWords). */
        std::vector<uint64_t> value;
        /** Search care words, same indexing; bits beyond the key width
         *  are zero, which masks the junk bits a gathered row word
         *  carries past the field. */
        std::vector<uint64_t> careMask;
        /** The original search key (for duplication / fallback). */
        Key key;
    };

    /** Step 1 of the word-parallel path: expand @p search into @p out. */
    void pack(const Key &search, PackedKey &out) const;

    /**
     * Steps 2-4 on the raw row words: priority-encoded first match among
     * valid slots, exactly as searchBucket() returns it, evaluated as
     * XOR+mask over 64-bit words in place.
     */
    BucketMatch searchBucketPacked(const BucketView &bucket,
                                   const PackedKey &packed) const;

    /**
     * Longest-prefix variant of the packed path: the matching slot with
     * the most specified stored bits (ties to the lowest slot), with the
     * per-slot popcount taken directly from the row's care words.
     */
    BucketMatch searchBucketBestPacked(const BucketView &bucket,
                                       const PackedKey &packed) const;

    /** Valid-and-matching test of one slot on the packed path. */
    bool slotMatchesPacked(const BucketView &bucket, unsigned slot,
                           const PackedKey &packed) const;

    /** Number of valid slots matching @p packed (massive evaluation). */
    unsigned countMatches(const BucketView &bucket,
                          const PackedKey &packed) const;

    /**
     * A group of up to kernels::kMaxGroupKeys packed keys sharing one
     * bucket access, stored transposed (word-major, key lanes adjacent)
     * so the multi-key kernels load one vector of "word w of every key".
     * The batched search pipeline builds one group per shared home row;
     * the embedded arrays keep steady-state grouping allocation-free.
     */
    struct PackedKeyGroup
    {
        /** keyValueT[w * kMaxGroupKeys + k] = word w of key k's value;
         *  absent key lanes are zero in the first keyWords words (words
         *  past keyWords are never read by the kernels and packGroup
         *  leaves them untouched). */
        alignas(64) std::array<uint64_t,
                               Key::kWords * kernels::kMaxGroupKeys>
            valueT{};
        /** Same layout for the care words (zero lanes never match a
         *  nonzero diff, but absent lanes are still masked out). */
        alignas(64) std::array<uint64_t,
                               Key::kWords * kernels::kMaxGroupKeys>
            careT{};
        /** The grouped keys, for extraction and serial fallbacks. */
        std::array<const PackedKey *, kernels::kMaxGroupKeys> keys{};
        unsigned size = 0;   ///< keys in the group
        uint32_t keyMask = 0; ///< (1 << size) - 1
    };

    /**
     * Transpose @p n packed keys (<= kernels::kMaxGroupKeys) into
     * @p out.  The pointed-to PackedKeys must outlive the group.
     */
    void packGroup(const PackedKey *const *keys, unsigned n,
                   PackedKeyGroup &out) const;

    /**
     * Batched form of searchBucketPacked: out[k] receives, for every
     * key lane k set in @p aliveMask, exactly what
     * searchBucketPacked(bucket, *group.keys[k]) would return.  Lanes
     * outside aliveMask are left untouched.  One row traversal serves
     * the whole group.
     */
    void searchBucketKeys(const BucketView &bucket,
                          const PackedKeyGroup &group, uint32_t aliveMask,
                          BucketMatch *out) const;

    /**
     * Batched form of searchBucketBestPacked (longest-prefix ranking),
     * with the same per-lane contract as searchBucketKeys.
     */
    void searchBucketBestKeys(const BucketView &bucket,
                              const PackedKeyGroup &group,
                              uint32_t aliveMask, BucketMatch *out) const;

    /** The comparator kernel this processor dispatched to at build. */
    simd::MatchKernel kernel() const { return kernel_; }

    /**
     * Steps 1+2 of the reference path: the per-slot match vector.  A
     * slot is set when it is valid and its stored key ternary-matches
     * the search key.
     */
    std::vector<bool> matchVector(const BucketView &bucket,
                                  const Key &search) const;

    /**
     * Steps 3+4 on top of the match vector: priority-encoded first
     * match, as the hardware returns it (reference path).
     */
    BucketMatch searchBucket(const BucketView &bucket,
                             const Key &search) const;

    /**
     * Longest-prefix variant: among all matching slots, extract the one
     * with the most specified key bits (ties go to the lowest slot).
     * With buckets sorted on descending prefix length this returns the
     * same slot as the plain priority encoder (reference path).
     */
    BucketMatch searchBucketBest(const BucketView &bucket,
                                 const Key &search) const;

    /**
     * Word-level fast path of the slot comparison (the model the
     * hardware's parallel comparators implement); the test suite checks
     * it against Key::matches bit by bit.
     */
    static bool slotMatches(const BucketView &bucket, unsigned slot,
                            const Key &search, const SliceConfig &config);

  private:
    BucketMatch extract(const BucketView &bucket, unsigned slot,
                        bool multiple) const;

    /** Valid bit of slot @p s read straight from the row words. */
    bool
    slotValidRaw(const uint64_t *row, unsigned s) const
    {
        return (row[validWord[s]] >> validShift[s]) & 1u;
    }

    bool slotMatchesRaw(const uint64_t *row, unsigned s,
                        const PackedKey &packed) const;
    unsigned storedCarePopcount(const uint64_t *row, unsigned s) const;

    /** Valid bits of the lanes_ slots starting at @p start, as a lane
     *  bitmask (lanes past the last slot read as invalid). */
    /** Valid bits of the @p width slots starting at @p start. */
    uint32_t groupValidMask(const uint64_t *row, unsigned start,
                            unsigned width) const;

    /** All lanes' match bits for the group starting at @p start. */
    uint32_t groupMatchMask(const uint64_t *row, unsigned start,
                            const PackedKey &packed) const;

    /** Per-slot key-match masks for lanes_ slots starting at @p start:
     *  out[l] = key lanes (within keyMask) matching slot start+l. */
    void multiKeyMatchMask(const uint64_t *row, unsigned start,
                           const PackedKeyGroup &group, uint32_t keyMask,
                           uint32_t out[kernels::kMaxLanes]) const;

    const SliceConfig *cfg;

    // Row-layout tables derived from the configuration once: per slot,
    // the bit position of its value field and its valid bit's
    // word/shift; per key word, the mask of bits inside the key width.
    unsigned keyWords = 0; ///< ceil(logicalKeyBits / 64)
    std::vector<uint64_t> slotBitBase; ///< padded to kMaxLanes past slots
    std::vector<uint32_t> validWord;
    std::vector<uint8_t> validShift;
    std::vector<uint64_t> widthMask; ///< [keyWords]

    // Comparator kernel, sampled once at construction.
    simd::MatchKernel kernel_ = simd::MatchKernel::Scalar;
    kernels::GroupMatchFn groupFn_ = nullptr;
    kernels::MultiKeyMatchFn multiKeyFn_ = nullptr;
    unsigned lanes_ = 1; ///< slots per group call of the active kernel
};

} // namespace caram::core

#endif // CARAM_CORE_MATCH_PROCESSOR_H_
