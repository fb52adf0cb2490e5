#ifndef CARAM_CORE_RECORD_H_
#define CARAM_CORE_RECORD_H_

/**
 * @file
 * Records and the results of CA-RAM CAM-mode operations.
 */

#include <cstdint>

#include "common/key.h"

namespace caram::core {

/** A searchable record: key plus associated data (section 2.1). */
struct Record
{
    Key key;
    uint64_t data = 0;
};

/** Outcome of a CAM-mode insert. */
struct InsertResult
{
    bool ok = false;       ///< false: no space within the probe limit
    uint64_t homeRow = 0;  ///< bucket selected by the index generator
    uint64_t placedRow = 0;///< bucket the record actually landed in
    unsigned slot = 0;     ///< slot within the placed bucket
    unsigned distance = 0; ///< probe distance (0 = home bucket)
};

/** Outcome of a CAM-mode search. */
struct SearchResult
{
    bool hit = false;
    bool multipleMatch = false; ///< >1 match in the winning bucket
    uint64_t row = 0;           ///< bucket of the winning record
    unsigned slot = 0;          ///< slot of the winning record
    uint64_t data = 0;          ///< stored data of the winner
    Key key;                    ///< stored key of the winner
    unsigned bucketsAccessed = 0; ///< memory accesses this lookup took
};

/** Result of matching one bucket. */
struct BucketMatch
{
    bool hit = false;
    bool multipleMatch = false;
    unsigned slot = 0;
    uint64_t data = 0;
    Key key;
};

/**
 * The match priority rule, the one place a lookup picks its winner:
 * fold the match @p m found in bucket @p row into @p best.  Exact mode
 * keeps the first hit; LPM mode keeps the first match with the strictly
 * longest care popcount, so a spilled or later-home long prefix still
 * wins.  Returns true when an exact-mode walk should stop (@p m hit).
 */
inline bool
offer(SearchResult &best, const BucketMatch &m, uint64_t row, bool lpm)
{
    if (!m.hit)
        return false;
    if (!best.hit ||
        (lpm && m.key.carePopcount() > best.key.carePopcount())) {
        best.hit = true;
        best.multipleMatch = m.multipleMatch;
        best.row = row;
        best.slot = m.slot;
        best.data = m.data;
        best.key = m.key;
    }
    return !lpm;
}

/** offer() of another lookup's winner (a fan-out shard's or an overflow
 *  area's); @p best keeps its own bucketsAccessed. */
inline bool
offer(SearchResult &best, const SearchResult &other, bool lpm)
{
    return offer(best,
                 BucketMatch{other.hit, other.multipleMatch, other.slot,
                             other.data, other.key},
                 other.row, lpm);
}

} // namespace caram::core

#endif // CARAM_CORE_RECORD_H_
