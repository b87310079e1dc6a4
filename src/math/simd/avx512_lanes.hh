/**
 * @file
 * Loop bodies shared by the AVX-512 and AVX-512 IFMA kernel sets.
 *
 * The two tables differ only in how they form a modular product: the
 * avx512 set assembles 64-bit Shoup and Barrett products from vpmuludq
 * partial products, the IFMA set uses 52-bit vpmadd52 products.  The
 * span loops and the NTT stage structure are written once here, as
 * templates over a product policy:
 *
 *   Shoup policy S (constant multiplier, lazy):
 *     S(q); S::Tw twiddle(w, w_shoup) -- per-constant operands from
 *     the 64-bit Shoup quotient; lazy(x, tw) -- x * w mod q in
 *     [0, 2q) for x < 4q.
 *   Barrett policy B (two variable operands, canonical):
 *     B(m); B::qv; mulMod(x, y) -- x * y mod q in [0, q).
 *
 * NTT stages with butterfly offset t >= 8 vectorize directly (all
 * lanes share one broadcast twiddle).  The short-stride stages
 * (t = 4, 2, 1) process 16-element tiles instead: two zmm loads are
 * transposed into u/v lane vectors with vpermi2q, the twiddles -- which
 * are contiguous in the bit-reversed tables -- are splat per block, and
 * the results transposed back.  This keeps every stage of the
 * transform vectorized.
 *
 * Everything sits in an anonymous namespace on purpose: each kernel
 * translation unit is compiled with its own ISA flags and must get its
 * own copy, never one the linker merged from a unit built for a wider
 * ISA.
 */

#ifndef HYDRA_MATH_SIMD_AVX512_LANES_HH
#define HYDRA_MATH_SIMD_AVX512_LANES_HH

#include <immintrin.h>

#include "math/ntt.hh"
#include "math/simd/simd.hh"

namespace hydra::simd {
namespace {

inline __m512i
loadu(const void* p)
{
    return _mm512_loadu_si512(p);
}

inline void
storeu(void* p, __m512i v)
{
    _mm512_storeu_si512(p, v);
}

inline __m512i
splat(u64 x)
{
    return _mm512_set1_epi64(static_cast<i64>(x));
}

/**
 * x - q if x >= q else x (unsigned): min(x, x - q) picks x - q exactly
 * when x >= q because the subtraction wraps otherwise.
 */
inline __m512i
csub(__m512i x, __m512i q)
{
    return _mm512_min_epu64(x, _mm512_sub_epi64(x, q));
}

/** Scalar Shoup product for span tails, canonical. */
inline u64
mulShoupScalar(u64 a, u64 w, u64 w_shoup, u64 q)
{
    u64 hi = static_cast<u64>((static_cast<u128>(a) * w_shoup) >> 64);
    u64 r = a * w - hi * q;
    return r >= q ? r - q : r;
}

/**
 * Index patterns for the short-stride NTT stages: a 16-element tile
 * (two zmm registers z0/z1) is transposed into the butterfly-top (u)
 * and butterfly-bottom (v) operand vectors and back.  Patterns index
 * the 16-lane concatenation accepted by vpermi2q.
 */
struct TilePerm
{
    __m512i load_u, load_v;     ///< tile -> u/v operand vectors
    __m512i store_z0, store_z1; ///< (u', v') -> tile halves
    __m512i tw_splat;           ///< contiguous twiddles -> per-lane
    bool splat;                 ///< whether tw_splat is needed (t > 1)
};

inline __m512i
setrIdx(long long a, long long b, long long c, long long d,
        long long e, long long f, long long g, long long h)
{
    return _mm512_setr_epi64(a, b, c, d, e, f, g, h);
}

/** Patterns for butterfly offset t in {4, 2, 1}. */
inline TilePerm
tilePerm(size_t t)
{
    TilePerm p;
    if (t == 4) {
        p.load_u = setrIdx(0, 1, 2, 3, 8, 9, 10, 11);
        p.load_v = setrIdx(4, 5, 6, 7, 12, 13, 14, 15);
        p.store_z0 = setrIdx(0, 1, 2, 3, 8, 9, 10, 11);
        p.store_z1 = setrIdx(4, 5, 6, 7, 12, 13, 14, 15);
        p.tw_splat = setrIdx(0, 0, 0, 0, 1, 1, 1, 1);
        p.splat = true;
    } else if (t == 2) {
        p.load_u = setrIdx(0, 1, 4, 5, 8, 9, 12, 13);
        p.load_v = setrIdx(2, 3, 6, 7, 10, 11, 14, 15);
        p.store_z0 = setrIdx(0, 1, 8, 9, 2, 3, 10, 11);
        p.store_z1 = setrIdx(4, 5, 12, 13, 6, 7, 14, 15);
        p.tw_splat = setrIdx(0, 0, 1, 1, 2, 2, 3, 3);
        p.splat = true;
    } else {
        p.load_u = setrIdx(0, 2, 4, 6, 8, 10, 12, 14);
        p.load_v = setrIdx(1, 3, 5, 7, 9, 11, 13, 15);
        p.store_z0 = setrIdx(0, 8, 1, 9, 2, 10, 3, 11);
        p.store_z1 = setrIdx(4, 12, 5, 13, 6, 14, 7, 15);
        p.tw_splat = _mm512_setzero_si512();
        p.splat = false;
    }
    return p;
}

/** Forward negacyclic NTT for n >= 16 (lazy Harvey butterflies). */
template <class S>
void
nttForwardLanes(const NttTable& tb, u64* a)
{
    const size_t nn = tb.n();
    const u64 q = tb.modulus().value();
    const S mul(q);
    const __m512i qv = splat(q);
    const __m512i tqv = splat(2 * q);
    const u64* W = tb.fwdW();
    const u64* WS = tb.fwdWShoup();

    size_t t = nn;
    size_t m = 1;
    // Long strides: every lane of a block shares one twiddle.
    for (; m < nn; m <<= 1) {
        t >>= 1;
        if (t < 8)
            break;
        for (size_t i = 0; i < m; ++i) {
            size_t j1 = 2 * i * t;
            const typename S::Tw tw =
                mul.twiddle(splat(W[m + i]), splat(WS[m + i]));
            for (size_t j = j1; j < j1 + t; j += 8) {
                __m512i u = csub(loadu(a + j), tqv);
                __m512i v = mul.lazy(loadu(a + j + t), tw);
                storeu(a + j, _mm512_add_epi64(u, v));
                storeu(a + j + t,
                       _mm512_add_epi64(_mm512_sub_epi64(u, v), tqv));
            }
        }
    }
    // Short strides (t = 4, 2, 1): 16-element tile transpose.
    for (; m < nn; m <<= 1, t >>= 1) {
        const TilePerm p = tilePerm(t);
        const size_t blocks_per_tile = 8 / t;
        for (size_t base = 0, blk = 0; base < nn;
             base += 16, blk += blocks_per_tile) {
            __m512i z0 = loadu(a + base);
            __m512i z1 = loadu(a + base + 8);
            __m512i u = _mm512_permutex2var_epi64(z0, p.load_u, z1);
            __m512i v = _mm512_permutex2var_epi64(z0, p.load_v, z1);
            // Twiddles for the tile's blocks are contiguous at
            // W[m + blk]; splat each one across its block's lanes.
            __m512i wv = loadu(W + m + blk);
            __m512i wsv = loadu(WS + m + blk);
            if (p.splat) {
                wv = _mm512_permutexvar_epi64(p.tw_splat, wv);
                wsv = _mm512_permutexvar_epi64(p.tw_splat, wsv);
            }
            u = csub(u, tqv);
            v = mul.lazy(v, mul.twiddle(wv, wsv));
            __m512i nu = _mm512_add_epi64(u, v);
            __m512i nv =
                _mm512_add_epi64(_mm512_sub_epi64(u, v), tqv);
            storeu(a + base,
                   _mm512_permutex2var_epi64(nu, p.store_z0, nv));
            storeu(a + base + 8,
                   _mm512_permutex2var_epi64(nu, p.store_z1, nv));
        }
    }
    for (size_t j = 0; j < nn; j += 8) {
        __m512i x = csub(loadu(a + j), tqv);
        storeu(a + j, csub(x, qv));
    }
}

/** Inverse negacyclic NTT for n >= 16 (lazy Gentleman-Sande). */
template <class S>
void
nttInverseLanes(const NttTable& tb, u64* a)
{
    const size_t nn = tb.n();
    const u64 q = tb.modulus().value();
    const S mul(q);
    const __m512i qv = splat(q);
    const __m512i tqv = splat(2 * q);
    const u64* W = tb.invW();
    const u64* WS = tb.invWShoup();

    size_t t = 1;
    size_t m = nn;
    // Short strides first (t = 1, 2, 4): tile transpose.
    for (; m > 1 && t < 8; m >>= 1, t <<= 1) {
        const size_t h = m >> 1;
        const TilePerm p = tilePerm(t);
        const size_t blocks_per_tile = 8 / t;
        for (size_t base = 0, blk = 0; base < nn;
             base += 16, blk += blocks_per_tile) {
            __m512i z0 = loadu(a + base);
            __m512i z1 = loadu(a + base + 8);
            __m512i u = _mm512_permutex2var_epi64(z0, p.load_u, z1);
            __m512i v = _mm512_permutex2var_epi64(z0, p.load_v, z1);
            __m512i wv = loadu(W + h + blk);
            __m512i wsv = loadu(WS + h + blk);
            if (p.splat) {
                wv = _mm512_permutexvar_epi64(p.tw_splat, wv);
                wsv = _mm512_permutexvar_epi64(p.tw_splat, wsv);
            }
            __m512i sum = csub(_mm512_add_epi64(u, v), tqv);
            __m512i diff =
                _mm512_add_epi64(_mm512_sub_epi64(u, v), tqv);
            __m512i nv = mul.lazy(diff, mul.twiddle(wv, wsv));
            storeu(a + base,
                   _mm512_permutex2var_epi64(sum, p.store_z0, nv));
            storeu(a + base + 8,
                   _mm512_permutex2var_epi64(sum, p.store_z1, nv));
        }
    }
    // Long strides: broadcast twiddle per block.
    for (; m > 1; m >>= 1, t <<= 1) {
        const size_t h = m >> 1;
        size_t j1 = 0;
        for (size_t i = 0; i < h; ++i) {
            const typename S::Tw tw =
                mul.twiddle(splat(W[h + i]), splat(WS[h + i]));
            for (size_t j = j1; j < j1 + t; j += 8) {
                __m512i u = loadu(a + j);
                __m512i v = loadu(a + j + t);
                __m512i sum = csub(_mm512_add_epi64(u, v), tqv);
                __m512i diff =
                    _mm512_add_epi64(_mm512_sub_epi64(u, v), tqv);
                storeu(a + j, sum);
                storeu(a + j + t, mul.lazy(diff, tw));
            }
            j1 += 2 * t;
        }
    }
    const typename S::Tw ni =
        mul.twiddle(splat(tb.nInvW()), splat(tb.nInvWShoup()));
    for (size_t j = 0; j < nn; j += 8)
        storeu(a + j, csub(mul.lazy(loadu(a + j), ni), qv));
}

/** a[i] = (a[i] * w) mod q (canonical). */
template <class S>
void
mulScalarSpanLanes(u64* a, size_t n, u64 w, u64 w_shoup, u64 q)
{
    const S mul(q);
    const __m512i qv = splat(q);
    const typename S::Tw tw = mul.twiddle(splat(w), splat(w_shoup));
    size_t i = 0;
    for (; i + 8 <= n; i += 8)
        storeu(a + i, csub(mul.lazy(loadu(a + i), tw), qv));
    for (; i < n; ++i)
        a[i] = mulShoupScalar(a[i], w, w_shoup, q);
}

/** a[i] = ((a[i] - c[i]) * w) mod q (canonical). */
template <class S>
void
subMulScalarSpanLanes(u64* a, const u64* c, size_t n, u64 w,
                      u64 w_shoup, u64 q)
{
    const S mul(q);
    const __m512i qv = splat(q);
    const typename S::Tw tw = mul.twiddle(splat(w), splat(w_shoup));
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m512i d = _mm512_sub_epi64(
            _mm512_add_epi64(loadu(a + i), qv), loadu(c + i));
        storeu(a + i, csub(mul.lazy(csub(d, qv), tw), qv));
    }
    for (; i < n; ++i) {
        u64 d = a[i] >= c[i] ? a[i] - c[i] : a[i] + q - c[i];
        a[i] = mulShoupScalar(d, w, w_shoup, q);
    }
}

/** a[i] = (a[i] * b[i]) mod q. */
template <class B>
void
mulSpanLanes(u64* a, const u64* b, size_t n, const Modulus& m)
{
    const B bv(m);
    size_t i = 0;
    for (; i + 8 <= n; i += 8)
        storeu(a + i, bv.mulMod(loadu(a + i), loadu(b + i)));
    for (; i < n; ++i)
        a[i] = m.mulMod(a[i], b[i]);
}

/** acc[i] = (acc[i] + x[i] * y[i]) mod q. */
template <class B>
void
macSpanLanes(u64* acc, const u64* x, const u64* y, size_t n,
             const Modulus& m)
{
    const B bv(m);
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m512i p = bv.mulMod(loadu(x + i), loadu(y + i));
        storeu(acc + i,
               csub(_mm512_add_epi64(loadu(acc + i), p), bv.qv));
    }
    for (; i < n; ++i)
        acc[i] = m.addMod(acc[i], m.mulMod(x[i], y[i]));
}

} // namespace
} // namespace hydra::simd

#endif // HYDRA_MATH_SIMD_AVX512_LANES_HH
