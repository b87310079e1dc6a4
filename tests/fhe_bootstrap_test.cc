/**
 * @file
 * Bootstrapping tests: each pipeline stage in isolation, then the full
 * refresh (paper Fig. 3(b): ModRaise -> C2S -> EvalMod -> S2C).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <numbers>

#include "fhe/bootstrap.hh"
#include "fhe_test_util.hh"

namespace hydra {
namespace {

using test::FheHarness;
using test::maxError;

CkksParams
btParams(size_t n = 1 << 8)
{
    CkksParams p = CkksParams::bootstrapTest();
    p.n = n;
    return p;
}

/** Harness plus a bootstrapper wired with the right Galois keys. */
struct BootHarness
{
    explicit BootHarness(const CkksParams& p,
                         const BootstrapConfig& cfg = {})
        : probe_ctx(p),
          probe_enc(probe_ctx),
          probe_boot(probe_ctx, probe_enc, cfg),
          h(p, probe_boot.requiredRotations()),
          boot(h.ctx, h.encoder, cfg)
    {
    }

    CkksContext probe_ctx;
    CkksEncoder probe_enc;
    Bootstrapper probe_boot;
    FheHarness h;
    Bootstrapper boot;
};

TEST(Bootstrap, ModRaisePreservesMessageModQ0)
{
    CkksParams p = btParams();
    FheHarness h(p, {});
    Bootstrapper boot(h.ctx, h.encoder);

    auto v = test::randomRealVec(h.ctx.slots(), 51, 0.005);
    auto ct = h.encryptVec(v, 1);
    auto raised = boot.modRaise(ct);
    EXPECT_EQ(raised.level(), h.ctx.levels());

    // Decrypting the raised ciphertext gives m + q0 * I; reducing the
    // decrypted coefficients mod q0 must recover the message.
    Plaintext pt = h.decryptor.decrypt(raised);
    RnsPoly one_limb(h.ctx.basis(), 1, false, false);
    const Modulus& q0 = h.ctx.basis()->mod(0);
    for (size_t i = 0; i < h.ctx.n(); ++i)
        one_limb.limb(0)[i] = pt.poly.limb(0)[i] % q0.value();
    Plaintext reduced{std::move(one_limb), pt.scale};
    auto w = h.encoder.decode(reduced);
    EXPECT_LT(maxError(v, w), 1e-4);
}

TEST(Bootstrap, CoeffToSlotExtractsCoefficients)
{
    BootHarness b(btParams());
    auto& h = b.h;
    size_t s = h.ctx.slots();

    auto v = test::randomRealVec(s, 52, 0.01);
    auto ct = h.encryptVec(v); // full level
    auto [re, im] = b.boot.coeffToSlot(h.eval, ct);

    // Reference: the encoded plaintext's coefficients over the scale.
    Plaintext pt = h.encoder.encode(v, h.ctx.params().scale(), 1);
    const Modulus& q0 = h.ctx.basis()->mod(0);
    std::vector<cplx> c_lo(s), c_hi(s);
    for (size_t i = 0; i < s; ++i) {
        c_lo[i] = cplx(static_cast<double>(q0.toCentered(
                           pt.poly.limb(0)[i])) /
                           pt.scale,
                       0.0);
        c_hi[i] = cplx(static_cast<double>(q0.toCentered(
                           pt.poly.limb(0)[i + s])) /
                           pt.scale,
                       0.0);
    }
    EXPECT_LT(maxError(c_lo, h.decryptVec(re)), 1e-3);
    EXPECT_LT(maxError(c_hi, h.decryptVec(im)), 1e-3);
}

/** All limbs of two polynomials byte-identical. */
bool
polyBitEqual(const RnsPoly& a, const RnsPoly& b)
{
    if (a.limbCount() != b.limbCount() || a.n() != b.n())
        return false;
    for (size_t k = 0; k < a.limbCount(); ++k)
        if (std::memcmp(a.limbData(k), b.limbData(k),
                        a.n() * sizeof(u64)) != 0)
            return false;
    return true;
}

TEST(Bootstrap, CoeffToSlotSharedBabyStepsMatchTwoApplies)
{
    BootHarness b(btParams());
    auto& h = b.h;
    size_t s = h.ctx.slots();

    // CoeffToSlot's two transforms, built as Bootstrapper builds them:
    // V0[i][j] = conj(zeta_j^i)/n and V1[i][j] = conj(zeta_j^(i+s))/n.
    CMatrix v0(s, std::vector<cplx>(s));
    CMatrix v1(s, std::vector<cplx>(s));
    double inv_n = 1.0 / static_cast<double>(h.ctx.n());
    for (size_t j = 0; j < s; ++j) {
        cplx zeta = h.encoder.embeddingRoot(j);
        cplx zi(1.0, 0.0);
        std::vector<cplx> pw(2 * s);
        for (size_t i = 0; i < 2 * s; ++i) {
            pw[i] = zi;
            zi *= zeta;
        }
        for (size_t i = 0; i < s; ++i) {
            v0[i][j] = std::conj(pw[i]) * inv_n;
            v1[i][j] = std::conj(pw[i + s]) * inv_n;
        }
    }
    double scale = h.ctx.params().scale();
    LinearTransform low(h.encoder, v0, scale);
    LinearTransform high(h.encoder, v1, scale);

    auto v = test::randomComplexVec(s, 59, 0.01);
    auto ct = h.encryptVec(v);
    OpCounter shared_ops, split_ops;
    h.eval.setCounter(&shared_ops);
    auto [re, im] = b.boot.coeffToSlot(h.eval, ct);
    h.eval.setCounter(&split_ops);
    Ciphertext re2 = low.apply(h.eval, ct);
    h.eval.addInPlace(re2, h.eval.conjugate(re2));
    Ciphertext im2 = high.apply(h.eval, ct);
    h.eval.addInPlace(im2, h.eval.conjugate(im2));
    h.eval.setCounter(nullptr);

    EXPECT_TRUE(polyBitEqual(re.c0, re2.c0));
    EXPECT_TRUE(polyBitEqual(re.c1, re2.c1));
    EXPECT_TRUE(polyBitEqual(im.c0, im2.c0));
    EXPECT_TRUE(polyBitEqual(im.c1, im2.c1));
    EXPECT_EQ(re.scale, re2.scale);
    EXPECT_EQ(im.scale, im2.scale);

    // Sharing saves exactly one hoisted set of bs - 1 baby steps.
    uint64_t saved = low.babySteps() - 1;
    EXPECT_EQ(split_ops.count(HeOpType::Rotate) -
                  shared_ops.count(HeOpType::Rotate),
              saved);
    EXPECT_EQ(split_ops.count(HeOpType::KeySwitch) -
                  shared_ops.count(HeOpType::KeySwitch),
              saved);
    EXPECT_EQ(split_ops.count(HeOpType::PMult),
              shared_ops.count(HeOpType::PMult));
}

TEST(Bootstrap, SlotToCoeffInvertsCoeffToSlot)
{
    BootHarness b(btParams());
    auto& h = b.h;
    auto v = test::randomComplexVec(h.ctx.slots(), 53, 0.01);
    auto ct = h.encryptVec(v);
    auto [re, im] = b.boot.coeffToSlot(h.eval, ct);
    auto back = b.boot.slotToCoeff(h.eval, re, im);
    EXPECT_LT(maxError(v, h.decryptVec(back)), 1e-3);
}

TEST(Bootstrap, EvalModApproximatesIdentityWithoutOverflow)
{
    // With I = 0 (values well below q0), EvalMod must act as identity.
    BootHarness b(btParams());
    auto& h = b.h;
    auto v = test::randomRealVec(h.ctx.slots(), 54, 0.01);
    auto ct = h.encryptVec(v);
    auto out = b.boot.evalMod(h.eval, ct, h.ctx.params().scale());
    EXPECT_LT(maxError(v, h.decryptVec(out)), 1e-3);
}

TEST(Bootstrap, EvalModRemovesQ0Multiples)
{
    // Slot values x = m + (q0/Delta) * I for small integers I must map
    // back to m.
    BootHarness b(btParams());
    auto& h = b.h;
    double q0 = static_cast<double>(h.ctx.basis()->mod(0).value());
    double delta = h.ctx.params().scale();
    double step = q0 / delta;

    size_t s = h.ctx.slots();
    auto m = test::randomRealVec(s, 55, 0.01);
    std::vector<cplx> x(s);
    Rng rng(56);
    for (size_t j = 0; j < s; ++j) {
        int big_i = static_cast<int>(rng.uniformU64(7)) - 3; // -3..3
        x[j] = m[j] + step * static_cast<double>(big_i);
    }
    auto ct = h.encryptVec(x);
    auto out = b.boot.evalMod(h.eval, ct, delta);
    EXPECT_LT(maxError(m, h.decryptVec(out)), 1e-3);
}

TEST(Bootstrap, EndToEndRefresh)
{
    BootHarness b(btParams());
    auto& h = b.h;
    size_t s = h.ctx.slots();

    auto v = test::randomRealVec(s, 57, 0.01);
    auto ct = h.encryptVec(v, 1); // exhausted ciphertext at level 1
    ASSERT_EQ(ct.level(), 1u);

    auto fresh = b.boot.bootstrap(h.eval, ct);
    EXPECT_GE(fresh.level(), 2u);
    EXPECT_GT(fresh.level(), ct.level());
    EXPECT_LT(maxError(v, h.decryptVec(fresh)), 2e-3);
}

TEST(Bootstrap, RefreshedCiphertextSupportsFurtherComputation)
{
    BootHarness b(btParams());
    auto& h = b.h;
    auto v = test::randomRealVec(h.ctx.slots(), 58, 0.01);
    auto ct = h.encryptVec(v, 1);
    auto fresh = b.boot.bootstrap(h.eval, ct);
    ASSERT_GE(fresh.level(), 2u);

    auto sq = h.decryptVec(h.eval.rescale(h.eval.mulRelin(fresh, fresh)));
    for (size_t j = 0; j < v.size(); ++j)
        EXPECT_NEAR(std::abs(sq[j] - v[j] * v[j]), 0.0, 1e-3);
}

TEST(Bootstrap, ChebyshevEvalModSavesLevels)
{
    // Chebyshev exp on a wide range lets r drop from 9 to 5: the
    // refreshed ciphertext keeps more levels at the same accuracy.
    BootstrapConfig cheb;
    cheb.useChebyshev = true;
    cheb.chebyshevDegree = 15;
    cheb.doubleAngleIters = 5;

    BootHarness b(btParams(), cheb);
    auto& h = b.h;
    auto v = test::randomRealVec(h.ctx.slots(), 59, 0.01);
    auto ct = h.encryptVec(v, 1);
    auto fresh = b.boot.bootstrap(h.eval, ct);
    EXPECT_LT(maxError(v, h.decryptVec(fresh)), 2e-3);

    BootstrapConfig taylor; // defaults: deg 7, r = 9
    CkksParams p = btParams();
    CkksContext ctx(p);
    CkksEncoder enc(ctx);
    Bootstrapper bt(ctx, enc, taylor);
    Bootstrapper bc(ctx, enc, cheb);
    EXPECT_LT(bc.depth(), bt.depth());
    EXPECT_GT(fresh.level(), 2u);
}

TEST(Bootstrap, DepthMatchesConfiguration)
{
    BootstrapConfig cfg;
    cfg.taylorDegree = 7;
    cfg.doubleAngleIters = 9;
    CkksParams p = btParams();
    CkksContext ctx(p);
    CkksEncoder enc(ctx);
    Bootstrapper boot(ctx, enc, cfg);
    // 1 c2s + 1 kappa + (4) taylor + 9 DAF + 1 sine + 1 s2c = 17
    EXPECT_EQ(boot.depth(), 17u);
    EXPECT_LT(boot.depth(), p.levels);
}

} // namespace
} // namespace hydra
