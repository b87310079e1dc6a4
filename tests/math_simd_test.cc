/**
 * @file
 * Bit-exactness tests for the runtime-dispatched SIMD kernel sets.
 *
 * The scalar table is the oracle: for every dispatch level the host can
 * run, every span kernel and NTT transform must produce bit-identical
 * output on the same input -- including lazy-reduction corner cases
 * (moduli near the 2^62 ceiling), small-n fallback paths, and non-lane
 * -multiple tails.  A final battery checks full evaluator ops end to
 * end at each level against the scalar result.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.hh"
#include "fhe_test_util.hh"
#include "math/ntt.hh"
#include "math/primes.hh"
#include "math/simd/simd.hh"

namespace hydra {
namespace {

/** Every level this host can actually dispatch to (scalar always). */
std::vector<SimdLevel>
runnableLevels()
{
    std::vector<SimdLevel> out{SimdLevel::Scalar};
    if (simd::bestAvailableLevel() >= SimdLevel::Avx2)
        out.push_back(SimdLevel::Avx2);
    if (simd::bestAvailableLevel() >= SimdLevel::Avx512)
        out.push_back(SimdLevel::Avx512);
    if (simd::bestAvailableLevel() >= SimdLevel::Avx512Ifma)
        out.push_back(SimdLevel::Avx512Ifma);
    return out;
}

/**
 * Moduli spanning the supported range, including near-2^62 primes.
 * The IFMA kernels take q < 2^50 (30 to 50 bits here, the 42-bit
 * bootstrap primes among them) and hand 51 bits and up to avx512.
 */
std::vector<u64>
testModuli()
{
    std::vector<u64> qs;
    for (int bits : {30, 42, 45, 49, 50, 51, 55, 59, 61})
        qs.push_back(nttPrimes(4096, bits, 1)[0]);
    return qs;
}

/** Span lengths hitting full vectors, tails, and sub-vector sizes. */
const size_t kSpanSizes[] = {1, 3, 7, 8, 9, 15, 16, 64, 333, 1024};

std::vector<u64>
randomCanonical(size_t n, u64 q, u64 seed)
{
    Rng rng(seed);
    std::vector<u64> v(n);
    for (auto& x : v)
        x = rng.uniformU64(q);
    return v;
}

std::vector<i64>
randomSigned(size_t n, u64 seed)
{
    Rng rng(seed);
    std::vector<i64> v(n);
    for (auto& x : v) {
        u64 raw = rng.uniformU64(~u64{0} - 1) + 1;
        std::memcpy(&x, &raw, sizeof(x));
        // Avoid INT64_MIN: |x| overflows and reduceI64 is the oracle
        // for representable magnitudes only.
        if (x == std::numeric_limits<i64>::min())
            x += 1;
    }
    return v;
}

class SimdLevelGuard
{
  public:
    ~SimdLevelGuard() { simd::setLevel(simd::bestAvailableLevel()); }
};

TEST(SimdDispatchTest, SetLevelClampsToAvailable)
{
    SimdLevelGuard guard;
    EXPECT_EQ(simd::setLevel(SimdLevel::Scalar), SimdLevel::Scalar);
    EXPECT_EQ(simd::activeLevel(), SimdLevel::Scalar);
    SimdLevel best = simd::setLevel(SimdLevel::Avx512Ifma);
    EXPECT_EQ(best, simd::bestAvailableLevel());
    EXPECT_EQ(simd::kernels().level, best);
    // A cap below the best level is honoured exactly.
    if (best >= SimdLevel::Avx512) {
        EXPECT_EQ(simd::setLevel(SimdLevel::Avx512), SimdLevel::Avx512);
        EXPECT_EQ(simd::kernels().level, SimdLevel::Avx512);
    }
}

TEST(SimdDispatchTest, LevelNamesRoundTrip)
{
    for (SimdLevel level : {SimdLevel::Scalar, SimdLevel::Avx2,
                            SimdLevel::Avx512, SimdLevel::Avx512Ifma}) {
        SimdLevel parsed = SimdLevel::Scalar;
        ASSERT_TRUE(simdLevelFromName(simdLevelName(level), parsed));
        EXPECT_EQ(parsed, level);
    }
    EXPECT_STREQ(simdLevelName(SimdLevel::Avx512Ifma), "avx512ifma");
    SimdLevel unused;
    EXPECT_FALSE(simdLevelFromName("ifma", unused));
}

TEST(SimdSpanTest, FuzzAllKernelsMatchScalarOracle)
{
    SimdLevelGuard guard;
    u64 seed = 0x5eed;
    for (SimdLevel level : runnableLevels()) {
        ASSERT_EQ(simd::setLevel(level), level);
        const simd::Kernels& k = simd::kernels();
        const simd::Kernels& oracle = simd::scalarKernels();
        for (u64 qv : testModuli()) {
            Modulus m(qv);
            for (size_t n : kSpanSizes) {
                std::vector<u64> a = randomCanonical(n, qv, ++seed);
                std::vector<u64> b = randomCanonical(n, qv, ++seed);
                std::vector<u64> c = randomCanonical(n, qv, ++seed);
                u64 w = randomCanonical(1, qv, ++seed)[0];
                ShoupMul ws(w, m);

                auto check = [&](const char* name, auto&& run) {
                    std::vector<u64> got = a;
                    std::vector<u64> want = a;
                    run(k, got);
                    run(oracle, want);
                    ASSERT_EQ(got, want)
                        << name << " level="
                        << simdLevelName(level) << " q=" << qv
                        << " n=" << n;
                };

                check("addSpan",
                      [&](const simd::Kernels& t, std::vector<u64>& x) {
                          t.addSpan(x.data(), b.data(), n, qv);
                      });
                check("subSpan",
                      [&](const simd::Kernels& t, std::vector<u64>& x) {
                          t.subSpan(x.data(), b.data(), n, qv);
                      });
                check("negSpan",
                      [&](const simd::Kernels& t, std::vector<u64>& x) {
                          t.negSpan(x.data(), n, qv);
                      });
                check("mulSpan",
                      [&](const simd::Kernels& t, std::vector<u64>& x) {
                          t.mulSpan(x.data(), b.data(), n, m);
                      });
                check("macSpan",
                      [&](const simd::Kernels& t, std::vector<u64>& x) {
                          t.macSpan(x.data(), b.data(), c.data(), n, m);
                      });
                check("mulScalarSpan",
                      [&](const simd::Kernels& t, std::vector<u64>& x) {
                          t.mulScalarSpan(x.data(), n, ws.value(),
                                          ws.shoup(), qv);
                      });
                check("subMulScalarSpan",
                      [&](const simd::Kernels& t, std::vector<u64>& x) {
                          t.subMulScalarSpan(x.data(), b.data(), n,
                                             ws.value(), ws.shoup(),
                                             qv);
                      });

                {
                    // One digit: the fused pair MAC on every span size.
                    std::vector<u64> g0 = a, w0 = a, g1 = b, w1 = b;
                    const u64* x = c.data();
                    const u64* y0 = a.data();
                    const u64* y1 = b.data();
                    k.macDigitsSpan(g0.data(), g1.data(), &x, &y0, &y1, 1,
                                    n, m);
                    oracle.macDigitsSpan(w0.data(), w1.data(), &x, &y0,
                                         &y1, 1, n, m);
                    ASSERT_EQ(g0, w0) << "macDigitsSpan acc0 q=" << qv;
                    ASSERT_EQ(g1, w1) << "macDigitsSpan acc1 q=" << qv;
                }
                {
                    std::vector<i64> got(n), want(n);
                    k.toCenteredSpan(got.data(), a.data(), n, qv);
                    oracle.toCenteredSpan(want.data(), a.data(), n, qv);
                    ASSERT_EQ(got, want) << "toCenteredSpan q=" << qv;
                }
                {
                    std::vector<i64> src = randomSigned(n, ++seed);
                    std::vector<u64> got(n), want(n);
                    k.reduceCenteredSpan(got.data(), src.data(), n, m);
                    oracle.reduceCenteredSpan(want.data(), src.data(),
                                              n, m);
                    ASSERT_EQ(got, want)
                        << "reduceCenteredSpan q=" << qv;
                }
                {
                    // Centered residues of q itself: |x| <= q/2 < q.
                    std::vector<i64> src(n);
                    oracle.toCenteredSpan(src.data(), a.data(), n, qv);
                    std::vector<u64> got(n), want(n);
                    k.liftCenteredSpan(got.data(), src.data(), n, qv);
                    oracle.reduceCenteredSpan(want.data(), src.data(),
                                              n, m);
                    ASSERT_EQ(got, want) << "liftCenteredSpan q=" << qv;
                    ASSERT_EQ(got, a) << "lift round trip q=" << qv;
                }
            }
        }
    }
}

/** One macDigitsSpan call against a per-digit Modulus reference. */
void
checkMacDigits(const simd::Kernels& k, const Modulus& m, size_t digits,
               size_t n, u64 seed, bool worst_case)
{
    const u64 q = m.value();
    auto draw = [&](u64 s) {
        return worst_case ? std::vector<u64>(n, q - 1)
                          : randomCanonical(n, q, s);
    };
    std::vector<std::vector<u64>> x, y0, y1;
    std::vector<const u64*> xp, y0p, y1p;
    for (size_t d = 0; d < digits; ++d) {
        x.push_back(draw(seed + 3 * d));
        y0.push_back(draw(seed + 3 * d + 1));
        y1.push_back(draw(seed + 3 * d + 2));
    }
    for (size_t d = 0; d < digits; ++d) {
        xp.push_back(x[d].data());
        y0p.push_back(y0[d].data());
        y1p.push_back(y1[d].data());
    }
    std::vector<u64> g0 = draw(seed + 7777), g1 = draw(seed + 7778);
    std::vector<u64> w0 = g0, w1 = g1;
    k.macDigitsSpan(g0.data(), g1.data(), xp.data(), y0p.data(),
                    y1p.data(), digits, n, m);
    for (size_t d = 0; d < digits; ++d)
        for (size_t i = 0; i < n; ++i) {
            w0[i] = m.addMod(w0[i], m.mulMod(x[d][i], y0[d][i]));
            w1[i] = m.addMod(w1[i], m.mulMod(x[d][i], y1[d][i]));
        }
    ASSERT_EQ(g0, w0) << "macDigitsSpan acc0 level="
                      << simdLevelName(k.level) << " q=" << q
                      << " D=" << digits << " n=" << n
                      << " worst=" << worst_case;
    ASSERT_EQ(g1, w1) << "macDigitsSpan acc1 level="
                      << simdLevelName(k.level) << " q=" << q
                      << " D=" << digits << " n=" << n
                      << " worst=" << worst_case;
}

TEST(SimdSpanTest, MacDigitsMatchesPerDigitOracle)
{
    // Digit counts around the IFMA kernel's 16-digit fold at 50 bits,
    // the 24-limb keyswitch, and 64 (the chain-length cap); spans with
    // 4-block passes, single blocks and scalar tails.
    SimdLevelGuard guard;
    u64 seed = 0xd1617;
    for (SimdLevel level : runnableLevels()) {
        ASSERT_EQ(simd::setLevel(level), level);
        const simd::Kernels& k = simd::kernels();
        for (u64 qv : testModuli()) {
            Modulus m(qv);
            for (size_t digits : {1, 2, 15, 16, 17, 24, 64})
                for (size_t n : {size_t{5}, size_t{40}, size_t{1024}}) {
                    checkMacDigits(k, m, digits, n, seed, false);
                    seed += 1000;
                }
            // All-(q-1) operands maximize every partial sum: at 50
            // bits a missing fold overflows the 52-bit Shoup input.
            checkMacDigits(k, m, 64, 48, seed, true);
        }
    }
}

TEST(SimdNttTest, TransformsMatchScalarAndRoundTrip)
{
    SimdLevelGuard guard;
    u64 seed = 0xabcd;
    for (SimdLevel level : runnableLevels()) {
        ASSERT_EQ(simd::setLevel(level), level);
        const simd::Kernels& k = simd::kernels();
        const simd::Kernels& oracle = simd::scalarKernels();
        // n = 4 and 8 exercise the small-n scalar fallbacks, 16 the
        // tile-transposed short strides alone, larger sizes both loop
        // families plus odd/even log2(n) for the radix-4 path.
        for (size_t n : {size_t{4}, size_t{8}, size_t{16}, size_t{32},
                         size_t{1024}, size_t{4096}}) {
            for (int bits : {42, 45, 50, 55, 59, 61}) {
                Modulus q(nttPrimes(n, bits, 1)[0]);
                NttTable table(n, q);
                std::vector<u64> input =
                    randomCanonical(n, q.value(), ++seed);

                std::vector<u64> fwd = input;
                k.nttForward(table, fwd.data());
                std::vector<u64> want = input;
                oracle.nttForward(table, want.data());
                ASSERT_EQ(fwd, want)
                    << "forward n=" << n << " bits=" << bits
                    << " level=" << simdLevelName(level);

                std::vector<u64> r4 = input;
                k.nttForwardRadix4(table, r4.data());
                ASSERT_EQ(r4, want)
                    << "radix4 n=" << n << " bits=" << bits
                    << " level=" << simdLevelName(level);

                std::vector<u64> inv = fwd;
                k.nttInverse(table, inv.data());
                ASSERT_EQ(inv, input)
                    << "roundtrip n=" << n << " bits=" << bits
                    << " level=" << simdLevelName(level);

                std::vector<u64> inv_want = fwd;
                oracle.nttInverse(table, inv_want.data());
                ASSERT_EQ(inv, inv_want);
            }
        }
    }
}

/** All limbs of two polynomials byte-identical. */
void
expectPolyEq(const RnsPoly& a, const RnsPoly& b, const char* what)
{
    ASSERT_EQ(a.limbCount(), b.limbCount()) << what;
    for (size_t kk = 0; kk < a.limbCount(); ++kk)
        ASSERT_EQ(std::memcmp(a.limbData(kk), b.limbData(kk),
                              a.n() * sizeof(u64)),
                  0)
            << what << " limb " << kk;
}

/**
 * One pass per level over the same inputs; every output ciphertext
 * must match the scalar pass bit for bit.
 */
void
expectOpsBitIdentical(const CkksParams& params)
{
    const std::vector<int> steps = {1, 2, 5};
    test::FheHarness h(params, steps);
    std::vector<cplx> va = test::randomComplexVec(h.ctx.slots(), 7);
    std::vector<cplx> vb = test::randomComplexVec(h.ctx.slots(), 8);
    Ciphertext ca = h.encryptVec(va);
    Ciphertext cb = h.encryptVec(vb);
    Plaintext pt = h.encoder.encode(vb, h.ctx.params().scale(),
                                    h.ctx.levels());

    struct Outputs
    {
        Ciphertext add, mul_plain, mac, cmult, rot;
        std::vector<Ciphertext> hoisted;
    };
    std::vector<std::pair<SimdLevel, Outputs>> runs;
    for (SimdLevel level : runnableLevels()) {
        ASSERT_EQ(simd::setLevel(level), level);
        Outputs o;
        o.add = h.eval.add(ca, cb);
        o.mul_plain = h.eval.mulPlain(ca, pt);
        o.mac = ca;
        o.mac.scale *= pt.scale;
        h.eval.addMulPlain(o.mac, cb, pt);
        o.cmult = h.eval.rescale(h.eval.mulRelin(ca, cb));
        o.rot = h.eval.rotate(ca, 1);
        o.hoisted = h.eval.rotateHoisted(cb, steps);
        runs.emplace_back(level, std::move(o));
    }

    const Outputs& base = runs.front().second;
    for (size_t i = 1; i < runs.size(); ++i) {
        SCOPED_TRACE(simdLevelName(runs[i].first));
        const Outputs& o = runs[i].second;
        expectPolyEq(o.add.c0, base.add.c0, "add c0");
        expectPolyEq(o.add.c1, base.add.c1, "add c1");
        expectPolyEq(o.mul_plain.c0, base.mul_plain.c0, "pmul c0");
        expectPolyEq(o.mul_plain.c1, base.mul_plain.c1, "pmul c1");
        expectPolyEq(o.mac.c0, base.mac.c0, "mac c0");
        expectPolyEq(o.mac.c1, base.mac.c1, "mac c1");
        expectPolyEq(o.cmult.c0, base.cmult.c0, "cmult c0");
        expectPolyEq(o.cmult.c1, base.cmult.c1, "cmult c1");
        expectPolyEq(o.rot.c0, base.rot.c0, "rotate c0");
        expectPolyEq(o.rot.c1, base.rot.c1, "rotate c1");
        ASSERT_EQ(o.hoisted.size(), base.hoisted.size());
        for (size_t r = 0; r < o.hoisted.size(); ++r) {
            expectPolyEq(o.hoisted[r].c0, base.hoisted[r].c0,
                         "hoisted c0");
            expectPolyEq(o.hoisted[r].c1, base.hoisted[r].c1,
                         "hoisted c1");
        }
    }
}

TEST(SimdEvaluatorTest, OpsBitIdenticalAcrossLevels)
{
    SimdLevelGuard guard;
    // 40/50-bit chain with a 51-bit special prime (mixed IFMA and
    // avx512 limbs), then the bootstrap point: 42-bit primes and a
    // 55-bit special prime.
    {
        SCOPED_TRACE("unitTest");
        expectOpsBitIdentical(CkksParams::unitTest());
    }
    {
        SCOPED_TRACE("bootstrapTest");
        expectOpsBitIdentical(CkksParams::bootstrapTest());
    }
}

} // namespace
} // namespace hydra
