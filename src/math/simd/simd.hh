/**
 * @file
 * Runtime-dispatched SIMD kernel set for the FHE hot path.
 *
 * Every inner loop the CKKS evaluator spends its time in -- Harvey
 * lazy-reduction NTT butterflies, Barrett modular span arithmetic, the
 * keyswitch multiply-accumulate, and the centered-lift spans of digit
 * decomposition -- is routed through one process-wide table of kernel
 * function pointers.  Four tables exist:
 *
 *   scalar      -- always compiled; the bit-exactness oracle.  Identical
 *                  arithmetic to the pre-SIMD code paths.
 *   avx2        -- 4 x u64 lanes (compiled when HYDRA_SIMD is ON and the
 *                  compiler supports -mavx2).
 *   avx512      -- 8 x u64 lanes, needs F+DQ+BW+VL (vpmullq, vpminuq,
 *                  64-bit lane permutes for the short-stride NTT stages).
 *   avx512ifma  -- avx512 plus vpmadd52{l,h}uq: 52-bit Shoup and Barrett
 *                  products for moduli q < 2^50, and a keyswitch MAC
 *                  reduced once per output limb instead of per digit.
 *                  Spans over larger moduli run the avx512 kernels.
 *
 * The active table is chosen once per process: the strongest level that
 * is both compiled in and reported by cpuid, optionally capped by the
 * HYDRA_SIMD_LEVEL environment variable ("scalar" | "avx2" | "avx512" |
 * "avx512ifma") for A/B runs and CI equivalence checks.  Tests may force
 * a level at runtime with setLevel().
 *
 * Every kernel returns the canonical [0, q) value its scalar counterpart
 * returns for every element, so outputs are bit-identical at every
 * level.  The avx2/avx512 kernels evaluate the scalar integer
 * expressions lane by lane; the IFMA kernels take other (exact)
 * intermediate routes -- a 52-bit Shoup quotient, a 52-bit Barrett
 * estimate, unreduced cross-digit sums -- and reach the same canonical
 * residues.
 */

#ifndef HYDRA_MATH_SIMD_SIMD_HH
#define HYDRA_MATH_SIMD_SIMD_HH

#include <cstddef>

#include "common/cpu.hh"
#include "math/modarith.hh"

namespace hydra {

class NttTable;

namespace simd {

/**
 * One dispatch level's kernel set.  Span kernels take canonical [0, q)
 * inputs and produce canonical outputs; n is the element count and may
 * be any size (vector bodies handle the tail scalar).
 */
struct Kernels
{
    SimdLevel level;

    /** a[i] = (a[i] + b[i]) mod q. */
    void (*addSpan)(u64* a, const u64* b, size_t n, u64 q);
    /** a[i] = (a[i] - b[i]) mod q. */
    void (*subSpan)(u64* a, const u64* b, size_t n, u64 q);
    /** a[i] = (-a[i]) mod q. */
    void (*negSpan)(u64* a, size_t n, u64 q);
    /** a[i] = (a[i] * b[i]) mod q (Barrett). */
    void (*mulSpan)(u64* a, const u64* b, size_t n, const Modulus& m);
    /** acc[i] = (acc[i] + x[i] * y[i]) mod q. */
    void (*macSpan)(u64* acc, const u64* x, const u64* y, size_t n,
                    const Modulus& m);
    /** a[i] = (a[i] * w) mod q via the Shoup quotient w_shoup. */
    void (*mulScalarSpan)(u64* a, size_t n, u64 w, u64 w_shoup, u64 q);
    /** a[i] = ((a[i] - c[i]) * w) mod q (rescale/ModDown combine). */
    void (*subMulScalarSpan)(u64* a, const u64* c, size_t n, u64 w,
                             u64 w_shoup, u64 q);
    /** dst[i] = centered representative of src[i] in [-q/2, q/2]. */
    void (*toCenteredSpan)(i64* dst, const u64* src, size_t n, u64 q);
    /** dst[i] = src[i] mod q lifted to [0, q) (digit decomposition). */
    void (*reduceCenteredSpan)(u64* dst, const i64* src, size_t n,
                               const Modulus& m);
    /**
     * The same lift for inputs with |src[i]| < q: src[i] + (src[i] < 0
     * ? q : 0), no division.  Centered residues of a prime no larger
     * than q always qualify.
     */
    void (*liftCenteredSpan)(u64* dst, const i64* src, size_t n, u64 q);
    /**
     * Keyswitch MAC over D digits for one output limb (the dominant
     * loop of accumulateKey):
     *   acc0[i] = (acc0[i] + sum_d x[d][i] * y0[d][i]) mod q,
     *   acc1[i] = (acc1[i] + sum_d x[d][i] * y1[d][i]) mod q.
     * Its oracle is a per-digit loop of reduced pair MACs
     * (macDigitsByPair); a table may instead accumulate unreduced
     * products across digits and reduce once.
     */
    void (*macDigitsSpan)(u64* acc0, u64* acc1, const u64* const* x,
                          const u64* const* y0, const u64* const* y1,
                          size_t digits, size_t n, const Modulus& m);

    /** In-place forward NTT (lazy Harvey butterflies). */
    void (*nttForward)(const NttTable& t, u64* a);
    /** Radix-4 forward (bit-identical to nttForward). */
    void (*nttForwardRadix4)(const NttTable& t, u64* a);
    /** In-place inverse NTT. */
    void (*nttInverse)(const NttTable& t, u64* a);
};

/**
 * A table's fused pair MAC: acc0[i] += x[i]*y0[i], acc1[i] += x[i]*y1[i]
 * (mod q), sharing the load of x across both products.
 */
using MacPairFn = void (*)(u64* acc0, u64* acc1, const u64* x,
                           const u64* y0, const u64* y1, size_t n,
                           const Modulus& m);

/** macDigitsSpan as the per-digit loop over a pair MAC. */
template <MacPairFn MacPair>
void
macDigitsByPair(u64* acc0, u64* acc1, const u64* const* x,
                const u64* const* y0, const u64* const* y1,
                size_t digits, size_t n, const Modulus& m)
{
    for (size_t d = 0; d < digits; ++d)
        MacPair(acc0, acc1, x[d], y0[d], y1[d], n, m);
}

/** The active kernel table (initialized on first use). */
const Kernels& kernels();

/** The scalar oracle table, regardless of the active level. */
const Kernels& scalarKernels();

/** Level of the active table. */
SimdLevel activeLevel();

/**
 * Strongest level this process can actually run: compiled in AND
 * supported by the host CPU (before any HYDRA_SIMD_LEVEL cap).
 */
SimdLevel bestAvailableLevel();

/**
 * Force a dispatch level (clamped to bestAvailableLevel); returns the
 * level actually applied.  Intended for tests and A/B benches; safe to
 * call at any time -- kernels at every level are bit-identical, so
 * in-flight spans finishing on the old table stay correct.
 */
SimdLevel setLevel(SimdLevel want);

} // namespace simd
} // namespace hydra

#endif // HYDRA_MATH_SIMD_SIMD_HH
