#include "core/match_kernels.h"

#include <bit>

#if defined(CARAM_X86_SIMD)
// GCC 12's AVX-512 header builds some intrinsics (_mm512_zextsi256_si512
// among them) on a deliberately undefined vector and then warns about
// it once inlined into an optimized build; the warning is about the
// header, not about this file.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#endif

namespace caram::core::kernels {

namespace {

/** 64 bits of the row starting at @p bitpos (guarded one-past read). */
inline uint64_t
gather64(const uint64_t *row, uint64_t bitpos)
{
    const uint64_t w = bitpos / 64;
    const unsigned off = static_cast<unsigned>(bitpos % 64);
    if (off == 0)
        return row[w];
    return (row[w] >> off) | (row[w + 1] << (64 - off));
}

/** The portable kernel: per-slot scalar XOR+AND with early word exit. */
uint32_t
groupMatchScalar(const GroupArgs &a)
{
    uint32_t match = 0;
    for (uint32_t m = a.validMask; m; m &= m - 1) {
        const unsigned l = static_cast<unsigned>(std::countr_zero(m));
        const uint64_t base = a.slotBitBase[l];
        bool ok = true;
        if (!a.ternary) {
            for (unsigned w = 0; w < a.keyWords; ++w) {
                if ((gather64(a.row, base + 64u * w) ^ a.value[w]) &
                    a.care[w]) {
                    ok = false;
                    break;
                }
            }
        } else {
            for (unsigned w = 0; w < a.keyWords; ++w) {
                if ((gather64(a.row, base + 64u * w) ^ a.value[w]) &
                    a.care[w] &
                    gather64(a.row, base + a.keyBits + 64u * w)) {
                    ok = false;
                    break;
                }
            }
        }
        if (ok)
            match |= 1u << l;
    }
    return match;
}

#if defined(CARAM_X86_SIMD)

/**
 * AVX2: one vector compare covers the whole key.  A slot's value field
 * occupies the contiguous bit range [base, base+keyBits), so its up-to-4
 * aligned 64-bit words all come from the same two overlapping 256-bit
 * loads, shifted by the (uniform) in-word offset -- four row words per
 * instruction, no hardware gather.  Shift counts of 64 produce zero,
 * which makes the word-aligned case branch-free.  The packed key's
 * value/care buffers are padded to 4 words, and the care padding is
 * zero, so the junk a window carries past the key width never produces
 * a mismatch.
 */
__attribute__((target("avx2"))) uint32_t
groupMatchAvx2(const GroupArgs &a)
{
    const __m256i V = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(a.value));
    const __m256i C = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(a.care));
    uint32_t match = 0;
    for (uint32_t m = a.validMask; m; m &= m - 1) {
        const unsigned l = static_cast<unsigned>(std::countr_zero(m));
        const uint64_t base = a.slotBitBase[l];
        const uint64_t *w = a.row + (base >> 6);
        const __m128i off =
            _mm_cvtsi32_si128(static_cast<int>(base & 63));
        const __m128i inv =
            _mm_cvtsi32_si128(64 - static_cast<int>(base & 63));
        const __m256i g = _mm256_or_si256(
            _mm256_srl_epi64(
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(w)),
                off),
            _mm256_sll_epi64(
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(w + 1)),
                inv));
        __m256i diff =
            _mm256_and_si256(_mm256_xor_si256(g, V), C);
        if (a.ternary) {
            // The stored care field sits exactly keyBits above the
            // value field; a mismatch only counts where it cares.
            const uint64_t cpos = base + a.keyBits;
            const uint64_t *cw = a.row + (cpos >> 6);
            const __m128i coff =
                _mm_cvtsi32_si128(static_cast<int>(cpos & 63));
            const __m128i cinv =
                _mm_cvtsi32_si128(64 - static_cast<int>(cpos & 63));
            const __m256i gc = _mm256_or_si256(
                _mm256_srl_epi64(
                    _mm256_loadu_si256(
                        reinterpret_cast<const __m256i *>(cw)),
                    coff),
                _mm256_sll_epi64(
                    _mm256_loadu_si256(
                        reinterpret_cast<const __m256i *>(cw + 1)),
                    cinv));
            diff = _mm256_and_si256(diff, gc);
        }
        if (_mm256_testz_si256(diff, diff))
            match |= 1u << l;
    }
    return match;
}

/**
 * AVX-512F: same contiguous-window idea with 512-bit registers, which
 * halves the loads.  A binary slot's value field (<= 256 bits) always
 * fits one 512-bit window.  A ternary slot's value+care pair spans
 * [base, base + 2*keyBits), which fits one window up to 224-bit keys;
 * the care words are then realigned out of the already-loaded window
 * with a lane rotate + shift instead of extra loads.  Wider ternary
 * keys fall back to loading the care window separately.
 */
__attribute__((target("avx2,avx512f"))) uint32_t
groupMatchAvx512(const GroupArgs &a)
{
    // V/C padded to 4 words; upper lanes zero so the window junk in
    // lanes [keyWords, 8) never produces a mismatch.
    const __m512i V = _mm512_zextsi256_si512(_mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(a.value)));
    const __m512i C = _mm512_zextsi256_si512(_mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(a.care)));
    const bool fused = a.ternary && a.keyBits <= 224;
    const __m128i cshift =
        _mm_cvtsi32_si128(static_cast<int>(a.keyBits & 63));
    const __m128i cinv =
        _mm_cvtsi32_si128(64 - static_cast<int>(a.keyBits & 63));
    // Lane selectors rotating the care words down to lane 0 (indices
    // are taken mod 8 by vpermq, so the wrap in high lanes is harmless:
    // those lanes are zeroed by C's padding anyway).
    const __m512i iota = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
    const __m512i cidx = _mm512_add_epi64(
        iota, _mm512_set1_epi64(static_cast<long long>(a.keyBits / 64)));
    const __m512i cidx1 =
        _mm512_add_epi64(cidx, _mm512_set1_epi64(1));
    uint32_t match = 0;
    for (uint32_t m = a.validMask; m; m &= m - 1) {
        const unsigned l = static_cast<unsigned>(std::countr_zero(m));
        const uint64_t base = a.slotBitBase[l];
        const uint64_t *w = a.row + (base >> 6);
        const __m128i off =
            _mm_cvtsi32_si128(static_cast<int>(base & 63));
        const __m128i inv =
            _mm_cvtsi32_si128(64 - static_cast<int>(base & 63));
        const __m512i g = _mm512_or_si512(
            _mm512_srl_epi64(_mm512_loadu_si512(w), off),
            _mm512_sll_epi64(_mm512_loadu_si512(w + 1), inv));
        __m512i diff = _mm512_and_si512(_mm512_xor_si512(g, V), C);
        if (fused) {
            // g lane q holds row bits [base+64q, base+64q+64): care
            // word w lives at bit keyBits + 64w of that range, i.e. in
            // lanes careLane+w / careLane+w+1 -- rotate them down and
            // close the sub-word gap with one shift pair.
            const __m512i clo = _mm512_permutexvar_epi64(cidx, g);
            const __m512i chi = _mm512_permutexvar_epi64(cidx1, g);
            const __m512i gc = _mm512_or_si512(
                _mm512_srl_epi64(clo, cshift),
                _mm512_sll_epi64(chi, cinv));
            diff = _mm512_and_si512(diff, gc);
        } else if (a.ternary) {
            const uint64_t cpos = base + a.keyBits;
            const uint64_t *cw = a.row + (cpos >> 6);
            const __m128i coff =
                _mm_cvtsi32_si128(static_cast<int>(cpos & 63));
            const __m128i cv =
                _mm_cvtsi32_si128(64 - static_cast<int>(cpos & 63));
            const __m512i gc = _mm512_or_si512(
                _mm512_srl_epi64(_mm512_loadu_si512(cw), coff),
                _mm512_sll_epi64(_mm512_loadu_si512(cw + 1), cv));
            diff = _mm512_and_si512(diff, gc);
        }
        if (_mm512_test_epi64_mask(diff, diff) == 0)
            match |= 1u << l;
    }
    return match;
}

#endif // CARAM_X86_SIMD

/** Scalar multi-key fallback: per slot, per key, the packed compare. */
void
multiKeyMatchScalar(const MultiKeyArgs &a, uint32_t out[kMaxLanes])
{
    for (unsigned l = 0; l < kMaxLanes; ++l)
        out[l] = 0;
    for (uint32_t m = a.validMask; m; m &= m - 1) {
        const unsigned l = static_cast<unsigned>(std::countr_zero(m));
        const uint64_t base = a.slotBitBase[l];
        uint32_t km = 0;
        for (uint32_t km_it = a.keyMask; km_it; km_it &= km_it - 1) {
            const unsigned k =
                static_cast<unsigned>(std::countr_zero(km_it));
            bool ok = true;
            for (unsigned w = 0; w < a.keyWords; ++w) {
                uint64_t diff =
                    (gather64(a.row, base + 64u * w) ^
                     a.keyValueT[w * kMaxGroupKeys + k]) &
                    a.keyCareT[w * kMaxGroupKeys + k];
                if (a.ternary)
                    diff &= gather64(a.row, base + a.keyBits + 64u * w);
                if (diff) {
                    ok = false;
                    break;
                }
            }
            if (ok)
                km |= 1u << k;
        }
        out[l] = km;
    }
}

#if defined(CARAM_X86_SIMD)

/**
 * AVX2 multi-key: lanes hold keys.  Each slot's row word is gathered
 * once (scalar) and broadcast against two 4-key pattern registers, so
 * the row fetch and shift alignment amortize across 8 keys; absent key
 * lanes start dead via an all-ones mismatch.  A group whose keys have
 * all mismatched exits after the offending word -- the common word-0
 * reject costs ~2 instructions per key per slot.
 */
__attribute__((target("avx2"))) void
multiKeyMatchAvx2(const MultiKeyArgs &a, uint32_t out[kMaxLanes])
{
    const __m256i zero = _mm256_setzero_si256();
    const __m256i dead0 = _mm256_setr_epi64x(
        (a.keyMask & 1u) ? 0 : -1, (a.keyMask & 2u) ? 0 : -1,
        (a.keyMask & 4u) ? 0 : -1, (a.keyMask & 8u) ? 0 : -1);
    const __m256i dead1 = _mm256_setr_epi64x(
        (a.keyMask & 16u) ? 0 : -1, (a.keyMask & 32u) ? 0 : -1,
        (a.keyMask & 64u) ? 0 : -1, (a.keyMask & 128u) ? 0 : -1);
    for (unsigned l = 0; l < kMaxLanes; ++l)
        out[l] = 0;
    for (uint32_t m = a.validMask; m; m &= m - 1) {
        const unsigned l = static_cast<unsigned>(std::countr_zero(m));
        const uint64_t base = a.slotBitBase[l];
        __m256i mism0 = dead0;
        __m256i mism1 = dead1;
        bool anyAlive = true;
        for (unsigned w = 0; w < a.keyWords; ++w) {
            const __m256i g = _mm256_set1_epi64x(static_cast<long long>(
                gather64(a.row, base + 64u * w)));
            const uint64_t *tv = a.keyValueT + w * kMaxGroupKeys;
            const uint64_t *tc = a.keyCareT + w * kMaxGroupKeys;
            __m256i d0 = _mm256_and_si256(
                _mm256_xor_si256(
                    g, _mm256_loadu_si256(
                           reinterpret_cast<const __m256i *>(tv))),
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(tc)));
            __m256i d1 = _mm256_and_si256(
                _mm256_xor_si256(
                    g, _mm256_loadu_si256(
                           reinterpret_cast<const __m256i *>(tv + 4))),
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(tc + 4)));
            if (a.ternary) {
                const __m256i gc =
                    _mm256_set1_epi64x(static_cast<long long>(gather64(
                        a.row, base + a.keyBits + 64u * w)));
                d0 = _mm256_and_si256(d0, gc);
                d1 = _mm256_and_si256(d1, gc);
            }
            mism0 = _mm256_or_si256(mism0, d0);
            mism1 = _mm256_or_si256(mism1, d1);
            const __m256i alive = _mm256_or_si256(
                _mm256_cmpeq_epi64(mism0, zero),
                _mm256_cmpeq_epi64(mism1, zero));
            if (_mm256_testz_si256(alive, alive)) {
                anyAlive = false;
                break;
            }
        }
        if (!anyAlive)
            continue;
        const uint32_t lo = static_cast<uint32_t>(_mm256_movemask_pd(
            _mm256_castsi256_pd(_mm256_cmpeq_epi64(mism0, zero))));
        const uint32_t hi = static_cast<uint32_t>(_mm256_movemask_pd(
            _mm256_castsi256_pd(_mm256_cmpeq_epi64(mism1, zero))));
        out[l] = lo | (hi << 4);
    }
}

/**
 * AVX-512 multi-key: all 8 keys in one register, with the surviving
 * key set carried in a mask register; the slot is abandoned as soon as
 * every key has mismatched.
 */
__attribute__((target("avx2,avx512f"))) void
multiKeyMatchAvx512(const MultiKeyArgs &a, uint32_t out[kMaxLanes])
{
    for (unsigned l = 0; l < kMaxLanes; ++l)
        out[l] = 0;
    const __mmask8 keys = static_cast<__mmask8>(a.keyMask & 0xffu);
    for (uint32_t m = a.validMask; m; m &= m - 1) {
        const unsigned l = static_cast<unsigned>(std::countr_zero(m));
        const uint64_t base = a.slotBitBase[l];
        __mmask8 alive = keys;
        for (unsigned w = 0; w < a.keyWords && alive; ++w) {
            const __m512i g = _mm512_set1_epi64(static_cast<long long>(
                gather64(a.row, base + 64u * w)));
            __m512i d = _mm512_and_si512(
                _mm512_xor_si512(
                    g, _mm512_loadu_si512(a.keyValueT +
                                          w * kMaxGroupKeys)),
                _mm512_loadu_si512(a.keyCareT + w * kMaxGroupKeys));
            if (a.ternary) {
                d = _mm512_and_si512(
                    d, _mm512_set1_epi64(static_cast<long long>(gather64(
                           a.row, base + a.keyBits + 64u * w))));
            }
            alive = alive & _mm512_testn_epi64_mask(d, d);
        }
        out[l] = alive;
    }
}

#endif // CARAM_X86_SIMD

} // namespace

unsigned
kernelLanes(simd::MatchKernel kernel)
{
    (void)kernel;
    return kMaxLanes;
}

GroupMatchFn
groupMatchFn(simd::MatchKernel kernel)
{
#if defined(CARAM_X86_SIMD)
    switch (kernel) {
      case simd::MatchKernel::Avx2:
        return &groupMatchAvx2;
      case simd::MatchKernel::Avx512:
        return &groupMatchAvx512;
      case simd::MatchKernel::Scalar:
        break;
    }
#else
    (void)kernel;
#endif
    return &groupMatchScalar;
}

MultiKeyMatchFn
multiKeyMatchFn(simd::MatchKernel kernel)
{
#if defined(CARAM_X86_SIMD)
    switch (kernel) {
      case simd::MatchKernel::Avx2:
        return &multiKeyMatchAvx2;
      case simd::MatchKernel::Avx512:
        return &multiKeyMatchAvx512;
      case simd::MatchKernel::Scalar:
        break;
    }
#else
    (void)kernel;
#endif
    return &multiKeyMatchScalar;
}

} // namespace caram::core::kernels
