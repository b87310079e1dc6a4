/**
 * @file
 * AVX-512 IFMA kernel set: the avx512 set with its multiplies done by
 * 52-bit vpmadd52{l,h}uq products, for moduli q < 2^50.
 *
 * vpmadd52luq / vpmadd52huq add the low / high 52 bits of the 104-bit
 * product of two lanes' low 52 bits to an accumulator.  With operands
 * below 2^52 that is an exact multiplier: one instruction per product
 * half, where the avx512 set spends four vpmuludq on a 64-bit high half
 * and a three-uop vpmullq on a low half.
 *
 *   Shoup (NTT twiddles, scalar spans): the 52-bit Shoup quotient
 *     floor(w * 2^52 / q) is the 64-bit table entry shifted right by 12
 *     (floor(floor(w * 2^64 / q) / 2^12) = floor(w * 2^52 / q)), so no
 *     table is added.  For any x < 2^52 the lazy product
 *     x*w - floor(x * ws52 / 2^52) * q lies in [0, 2q) and is formed
 *     mod 2^52.  NTT lanes stay below 4q < 2^52 because q < 2^50.
 *   Barrett (variable products): with k = bits(q), the product
 *     x = a*b < 2^(2k) arrives split at bit 52.  x1 = floor(x / 2^(k-1))
 *     < 2^(k+1) and mu = floor(2^(51+k) / q) < 2^52 are single IFMA
 *     operands, and q_est = floor(x1 * mu / 2^52) is at most 2 below
 *     floor(x / q), so two corrections give Modulus::mulMod's residue.
 *   Keyswitch MAC (macDigitsSpan): the lo and hi halves of every
 *     digit's product are summed unreduced, L = sum lo and H = sum hi,
 *     and reduced once as (H + (L >> 52)) * 2^52 + (L mod 2^52) with
 *     two Shoup products.  The first Shoup input must stay below 2^52:
 *     each hi is at most h = floor((q-1)^2 / 2^52) and L >> 52 is below
 *     the digit count, so the sums are folded every 2^52 / (h + 1)
 *     digits (16 at 50 bits; never for the 42-bit primes at the
 *     digit counts in use), and at least every 4096 so L fits 64 bits.
 *
 * Every result is the canonical residue the scalar oracle returns.
 * Spans over q >= 2^50 (the 51- and 55-bit special primes) run the
 * avx512 kernels, as do transforms with n < 16.
 */

#include <algorithm>
#include <bit>

#include "math/simd/avx512_lanes.hh"

namespace hydra::simd {

const Kernels& avx512Kernels();

namespace {

constexpr u64 kMask52 = (u64{1} << 52) - 1;

/** Whether the 52-bit kernels take modulus q (else avx512 runs). */
inline bool
fits52(u64 q)
{
    // 4q < 2^52 for the lazy NTT lanes; a power of two would make the
    // Barrett constant exactly 2^52.
    return q < (u64{1} << 50) && !std::has_single_bit(q);
}

inline __m512i
madd52lo(__m512i acc, __m512i a, __m512i b)
{
    return _mm512_madd52lo_epu64(acc, a, b);
}

inline __m512i
madd52hi(__m512i acc, __m512i a, __m512i b)
{
    return _mm512_madd52hi_epu64(acc, a, b);
}

/** Harvey lazy product from the 52-bit Shoup quotient. */
struct Shoup52
{
    __m512i negq; ///< -q: its low 52 bits are 2^52 - q
    __m512i mask;

    explicit Shoup52(u64 q) : negq(splat(0 - q)), mask(splat(kMask52)) {}

    struct Tw
    {
        __m512i w, ws52;
    };

    Tw
    twiddle(__m512i w, __m512i ws) const
    {
        return {w, _mm512_srli_epi64(ws, 12)};
    }

    /** x * w mod q in [0, 2q) for x < 2^52. */
    __m512i
    lazy(__m512i x, const Tw& t) const
    {
        const __m512i zero = _mm512_setzero_si512();
        __m512i quot = madd52hi(zero, x, t.ws52);
        __m512i r = madd52lo(zero, x, t.w);
        // r - quot*q mod 2^52, which is exact: the true value < 2q.
        return _mm512_and_si512(madd52lo(r, quot, negq), mask);
    }
};

/** 52-bit Barrett: canonical x * y mod q for x, y < q. */
struct Barrett52
{
    __m512i qv;
    __m512i negq;
    __m512i muv;
    __m512i mask;
    __m128i shl; ///< << (53 - k): hi half into x1
    __m128i shr; ///< >> (k - 1): lo half into x1

    explicit Barrett52(const Modulus& m)
        : qv(splat(m.value())),
          negq(splat(0 - m.value())),
          muv(splat(static_cast<u64>(
              (static_cast<u128>(1) << (51 + m.bits())) / m.value()))),
          mask(splat(kMask52)),
          shl(_mm_cvtsi32_si128(53 - m.bits())),
          shr(_mm_cvtsi32_si128(m.bits() - 1))
    {
    }

    __m512i
    mulMod(__m512i x, __m512i y) const
    {
        const __m512i zero = _mm512_setzero_si512();
        __m512i lo = madd52lo(zero, x, y);
        __m512i hi = madd52hi(zero, x, y);
        __m512i x1 = _mm512_or_si512(_mm512_sll_epi64(hi, shl),
                                     _mm512_srl_epi64(lo, shr));
        __m512i qest = madd52hi(zero, x1, muv);
        // x - qest*q < 3q < 2^52, so the low 52 bits are the value.
        __m512i r = _mm512_and_si512(madd52lo(lo, qest, negq), mask);
        return csub(csub(r, qv), qv);
    }
};

void
mulSpanIfma(u64* a, const u64* b, size_t n, const Modulus& m)
{
    if (!fits52(m.value()))
        return avx512Kernels().mulSpan(a, b, n, m);
    mulSpanLanes<Barrett52>(a, b, n, m);
}

void
macSpanIfma(u64* acc, const u64* x, const u64* y, size_t n,
            const Modulus& m)
{
    if (!fits52(m.value()))
        return avx512Kernels().macSpan(acc, x, y, n, m);
    macSpanLanes<Barrett52>(acc, x, y, n, m);
}

void
mulScalarSpanIfma(u64* a, size_t n, u64 w, u64 w_shoup, u64 q)
{
    if (!fits52(q))
        return avx512Kernels().mulScalarSpan(a, n, w, w_shoup, q);
    mulScalarSpanLanes<Shoup52>(a, n, w, w_shoup, q);
}

void
subMulScalarSpanIfma(u64* a, const u64* c, size_t n, u64 w, u64 w_shoup,
                     u64 q)
{
    if (!fits52(q))
        return avx512Kernels().subMulScalarSpan(a, c, n, w, w_shoup, q);
    subMulScalarSpanLanes<Shoup52>(a, c, n, w, w_shoup, q);
}

void
nttForwardIfma(const NttTable& tb, u64* a)
{
    if (tb.n() < 16 || !fits52(tb.modulus().value()))
        return avx512Kernels().nttForward(tb, a);
    nttForwardLanes<Shoup52>(tb, a);
}

void
nttInverseIfma(const NttTable& tb, u64* a)
{
    if (tb.n() < 16 || !fits52(tb.modulus().value()))
        return avx512Kernels().nttInverse(tb, a);
    nttInverseLanes<Shoup52>(tb, a);
}

/** Reduction of the split cross-digit sums (see the file comment). */
struct MacFold
{
    Shoup52 mul;
    Shoup52::Tw two52; ///< 2^52 mod q
    Shoup52::Tw one;   ///< 1
    __m512i qv, tqv;

    explicit MacFold(const Modulus& m)
        : mul(m.value()), qv(splat(m.value())), tqv(splat(2 * m.value()))
    {
        ShoupMul c(static_cast<u64>((u128{1} << 52) % m.value()), m);
        ShoupMul u(1, m);
        two52 = mul.twiddle(splat(c.value()), splat(c.shoup()));
        one = mul.twiddle(splat(u.value()), splat(u.shoup()));
    }

    /** (acc + H * 2^52 + L) mod q for canonical acc. */
    __m512i
    fold(__m512i acc, __m512i lo, __m512i hi) const
    {
        __m512i top = _mm512_add_epi64(hi, _mm512_srli_epi64(lo, 52));
        __m512i low = _mm512_and_si512(lo, mul.mask);
        __m512i r = _mm512_add_epi64(mul.lazy(top, two52),
                                     mul.lazy(low, one));
        r = csub(csub(r, tqv), qv);
        return csub(_mm512_add_epi64(acc, r), qv);
    }
};

/** Digits per fold: D * (h + 1) <= 2^52 and D <= 4096. */
size_t
digitsPerFold(u64 q)
{
    u64 h = static_cast<u64>((static_cast<u128>(q - 1) * (q - 1)) >> 52);
    return static_cast<size_t>(
        std::min<u64>((u64{1} << 52) / (h + 1), 4096));
}

/** V consecutive 8-lane blocks starting at element i. */
template <size_t V>
inline void
macDigitsBlocks(u64* acc0, u64* acc1, const u64* const* x,
                const u64* const* y0, const u64* const* y1,
                size_t digits, size_t i, size_t per_fold,
                const MacFold& f)
{
    for (size_t d0 = 0; d0 < digits; d0 += per_fold) {
        const size_t d1 = std::min(digits, d0 + per_fold);
        __m512i lo0[V], hi0[V], lo1[V], hi1[V];
        for (size_t v = 0; v < V; ++v)
            lo0[v] = hi0[v] = lo1[v] = hi1[v] = _mm512_setzero_si512();
        for (size_t d = d0; d < d1; ++d) {
            const u64* xd = x[d] + i;
            const u64* y0d = y0[d] + i;
            const u64* y1d = y1[d] + i;
            for (size_t v = 0; v < V; ++v) {
                __m512i xv = loadu(xd + 8 * v);
                __m512i b = loadu(y0d + 8 * v);
                __m512i a = loadu(y1d + 8 * v);
                lo0[v] = madd52lo(lo0[v], xv, b);
                hi0[v] = madd52hi(hi0[v], xv, b);
                lo1[v] = madd52lo(lo1[v], xv, a);
                hi1[v] = madd52hi(hi1[v], xv, a);
            }
        }
        for (size_t v = 0; v < V; ++v) {
            u64* p0 = acc0 + i + 8 * v;
            u64* p1 = acc1 + i + 8 * v;
            storeu(p0, f.fold(loadu(p0), lo0[v], hi0[v]));
            storeu(p1, f.fold(loadu(p1), lo1[v], hi1[v]));
        }
    }
}

void
macDigitsSpanIfma(u64* acc0, u64* acc1, const u64* const* x,
                  const u64* const* y0, const u64* const* y1,
                  size_t digits, size_t n, const Modulus& m)
{
    if (!fits52(m.value()))
        return avx512Kernels().macDigitsSpan(acc0, acc1, x, y0, y1,
                                             digits, n, m);
    const MacFold f(m);
    const size_t per_fold = digitsPerFold(m.value());
    size_t i = 0;
    // Four blocks per pass keep 16 accumulators live and walk each of
    // the 3 * digits input streams 256 bytes at a time.
    for (; i + 32 <= n; i += 32)
        macDigitsBlocks<4>(acc0, acc1, x, y0, y1, digits, i, per_fold, f);
    for (; i + 8 <= n; i += 8)
        macDigitsBlocks<1>(acc0, acc1, x, y0, y1, digits, i, per_fold, f);
    for (; i < n; ++i)
        for (size_t d = 0; d < digits; ++d) {
            u64 xi = x[d][i];
            acc0[i] = m.addMod(acc0[i], m.mulMod(xi, y0[d][i]));
            acc1[i] = m.addMod(acc1[i], m.mulMod(xi, y1[d][i]));
        }
}

} // namespace

const Kernels&
avx512IfmaKernels()
{
    // Adding, negating and centering spans have no multiply to speed
    // up; they are the avx512 kernels.
    static const Kernels table = [] {
        Kernels k = avx512Kernels();
        k.level = SimdLevel::Avx512Ifma;
        k.mulSpan = mulSpanIfma;
        k.macSpan = macSpanIfma;
        k.mulScalarSpan = mulScalarSpanIfma;
        k.subMulScalarSpan = subMulScalarSpanIfma;
        k.macDigitsSpan = macDigitsSpanIfma;
        k.nttForward = nttForwardIfma;
        // As on avx512, the lane-parallel radix-2 kernel stands in for
        // radix-4; outputs are bit-identical either way.
        k.nttForwardRadix4 = nttForwardIfma;
        k.nttInverse = nttInverseIfma;
        return k;
    }();
    return table;
}

} // namespace hydra::simd
