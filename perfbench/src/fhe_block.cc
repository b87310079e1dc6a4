/**
 * @file
 * fhe_cnn_block: one encrypted CNN block on real ciphertexts at a
 * reduced parameter point (N = 2^10), repeated for the measured phase:
 *
 *   encrypt (level 1) -> bootstrap (ModRaise, CoeffToSlot, EvalMod,
 *   SlotToCoeff) -> 3x3 ConvBN -> Chebyshev soft-ReLU -> 2x2 avgpool
 *   -> decrypt and compare with the plaintext pipeline.
 *
 * The bootstrap phases are called one by one, exactly as
 * Bootstrapper::bootstrap() composes them, so each phase gets its own
 * span.  Each block's ConvBN kernel is drawn from the seed with some
 * taps pruned to zero (conv2d skips those), so blocks differ in their
 * rotation count and the modelled card time varies with the seed.
 */

#include <cmath>
#include <memory>

#include "arch/opcost.hh"
#include "baselines/prototypes.hh"
#include "bench.hh"
#include "common/pool.hh"
#include "common/rng.hh"
#include "fhe/bootstrap.hh"
#include "fhe/chebyshev.hh"
#include "fhe/convolution.hh"
#include "fhe/encryptor.hh"
#include "fhe/keygen.hh"

namespace perfbench {

using namespace hydra;

namespace {

constexpr size_t kH = 32, kW = 16; // 512 slots at N = 2^10
/** Distinct seeded kernels; items cycle through them. */
constexpr size_t kKernels = 4;
/** Input amplitude: EvalMod's sine approximation needs |m| << 1. */
constexpr double kInputAmp = 0.02;
/** Stated bound on the decrypted block output vs the plaintext
 *  pipeline (max absolute slot error): a few times the 1-2e-6 this
 *  parameter point gives, so a precision loss in a kernel fails. */
constexpr double kMaxErrBound = 1e-5;
/** Set-up repetitions (one takes ~3 s). */
constexpr int kSetupReps = 3;

CkksParams
blockParams(uint64_t seed)
{
    CkksParams p = CkksParams::bootstrapTest();
    // Bootstrap (Chebyshev EvalMod) + ConvBN + activation + pool.
    p.levels = 24;
    p.seed = seed;
    return p;
}

BootstrapConfig
bootConfig()
{
    BootstrapConfig c;
    c.useChebyshev = true;
    c.chebyshevDegree = 15;
    c.doubleAngleIters = 5;
    return c;
}

/** Keys, context and precomputation of one set-up. */
struct FheState
{
    std::unique_ptr<CkksContext> ctx;
    std::unique_ptr<CkksEncoder> encoder;
    std::unique_ptr<Bootstrapper> boot;
    SecretKey sk;
    PublicKey pk;
    EvalKey relin;
    GaloisKeys galois;
    std::unique_ptr<Encryptor> encryptor;
    std::unique_ptr<Decryptor> decryptor;
    std::unique_ptr<Evaluator> eval;
    OpCounter counter;
};

std::unique_ptr<FheState>
setUp(const CkksParams& params, double& keygen_s)
{
    auto st = std::make_unique<FheState>();
    {
        Tracer::Scope sp(tracer(), "setup.context");
        st->ctx = std::make_unique<CkksContext>(params);
        st->encoder = std::make_unique<CkksEncoder>(*st->ctx);
        st->boot = std::make_unique<Bootstrapper>(*st->ctx, *st->encoder,
                                                  bootConfig());
    }
    int64_t k0 = nowNs();
    {
        Tracer::Scope sp(tracer(), "fhe.keygen");
        std::vector<int> rot = st->boot->requiredRotations();
        for (int r : convRotations(kW, 3))
            rot.push_back(r);
        for (int r : convRotations(kW, 2))
            rot.push_back(r);
        KeyGenerator kg(*st->ctx);
        st->sk = kg.secretKey();
        st->pk = kg.publicKey(st->sk);
        st->relin = kg.relinKey(st->sk);
        st->galois = kg.galoisKeys(st->sk, rot);
    }
    keygen_s = static_cast<double>(nowNs() - k0) / 1e9;
    st->encryptor = std::make_unique<Encryptor>(*st->ctx, st->pk);
    st->decryptor = std::make_unique<Decryptor>(*st->ctx, st->sk);
    st->eval = std::make_unique<Evaluator>(*st->ctx, *st->encoder);
    st->eval->setRelinKey(&st->relin);
    st->eval->setGaloisKeys(&st->galois);
    st->eval->setCounter(&st->counter);
    return st;
}

/** Seeded ConvBN kernel: gain-scaled taps, ~1/3 pruned, centre kept. */
ConvKernel
blockKernel(uint64_t seed, size_t idx)
{
    Rng rng(seed * 1000003 + idx * 7919 + 17);
    ConvKernel k;
    k.k = 3;
    k.weights.resize(9);
    for (size_t t = 0; t < 9; ++t) {
        double w = 5.0 * rng.uniformReal(-1.0, 1.0);
        bool pruned = t != 4 && rng.uniformReal(0.0, 1.0) < 0.33;
        k.weights[t] = pruned ? 0.0 : w;
    }
    k.bias = rng.uniformReal(-0.05, 0.05);
    return k;
}

std::vector<double>
blockImage(uint64_t seed, uint64_t item)
{
    Rng rng(seed * 2654435761ULL + item * 40503 + 3);
    double phase = rng.uniformReal(0.0, 6.28);
    std::vector<double> img(kH * kW);
    for (size_t i = 0; i < img.size(); ++i)
        img[i] = kInputAmp * (0.7 * std::sin(0.11 * static_cast<double>(i) +
                                             phase) +
                              0.3 * rng.uniformReal(-1.0, 1.0));
    return img;
}

struct BlockOut
{
    double maxErr = 0.0;
    OpCounter ops;
};

BlockOut
runBlock(FheState& st, const ConvKernel& kernel, const ChebyshevPoly& act,
         const std::vector<double>& image)
{
    const Evaluator& ev = *st.eval;
    st.counter.reset();
    Ciphertext ct;
    {
        Tracer::Scope sp(tracer(), "bench.encrypt");
        ct = st.encryptor->encrypt(st.encoder->encode(
            image, st.ctx->params().scale(), 1));
    }
    Ciphertext fresh;
    {
        Tracer::Scope sp(tracer(), "fhe.boot");
        double msg_scale = ct.scale;
        Ciphertext raised;
        {
            Tracer::Scope s(tracer(), "fhe.boot.modraise");
            raised = st.boot->modRaise(ct);
        }
        std::pair<Ciphertext, Ciphertext> parts;
        {
            Tracer::Scope s(tracer(), "fhe.boot.coefftoslot");
            parts = st.boot->coeffToSlot(ev, raised);
        }
        Ciphertext mre, mim;
        {
            Tracer::Scope s(tracer(), "fhe.boot.evalmod");
            mre = st.boot->evalMod(ev, parts.first, msg_scale);
            mim = st.boot->evalMod(ev, parts.second, msg_scale);
        }
        {
            Tracer::Scope s(tracer(), "fhe.boot.slottocoeff");
            fresh = st.boot->slotToCoeff(ev, mre, mim);
        }
    }
    Ciphertext conv, activated, pooled;
    {
        Tracer::Scope sp(tracer(), "fhe.conv");
        conv = conv2d(ev, fresh, kernel, kH, kW);
    }
    {
        Tracer::Scope sp(tracer(), "fhe.act");
        activated = evalChebyshev(ev, conv, act);
    }
    {
        Tracer::Scope sp(tracer(), "fhe.pool");
        pooled = avgPool(ev, activated, 2, kH, kW);
    }
    BlockOut out;
    out.ops = st.counter;
    {
        Tracer::Scope sp(tracer(), "bench.check");
        auto ref = conv2dRef(image, kernel, kH, kW);
        for (auto& x : ref)
            x = act(x);
        ref = avgPoolRef(ref, 2, kH, kW);
        auto got = st.encoder->decode(st.decryptor->decrypt(pooled));
        for (size_t j = 0; j < ref.size(); ++j)
            out.maxErr =
                std::max(out.maxErr, std::abs(got[j].real() - ref[j]));
    }
    return out;
}

/** Modelled single-card time of an executed op trace: each op type
 *  priced at its mean active limb count on the hydra-s card model. */
double
modelSeconds(const OpCostModel& cost, const OpCounter& ops)
{
    Tick t = 0;
    for (size_t i = 0; i < kNumHeOpTypes; ++i) {
        auto op = static_cast<HeOpType>(i);
        uint64_t n = ops.count(op);
        if (!n || op == HeOpType::KeySwitch) // folded into Rotate/CMult
            continue;
        size_t limbs = static_cast<size_t>(
            std::llround(static_cast<double>(ops.limbSum(op)) /
                         static_cast<double>(n)));
        t += n * cost.opLatency(op, std::max<size_t>(limbs, 1));
    }
    return ticksToSeconds(t);
}

/** Per-call microseconds of NttTable::forward/inverse and of a bare
 *  Evaluator::keySwitch at the top level (traced runs only). */
void
probeKernels(FheState& st, Report& rep, uint64_t seed)
{
    const NttTable& ntt = st.ctx->basis()->ntt(0);
    uint64_t q = st.ctx->basis()->mod(0).value();
    Rng rng(seed + 99);
    std::vector<u64> a(st.ctx->n());
    for (auto& x : a)
        x = rng.uniformU64(q);
    constexpr int kCalls = 400;
    int64_t t0 = nowNs();
    {
        Tracer::Scope sp(tracer(), "math.ntt.fwd");
        for (int i = 0; i < kCalls; ++i)
            ntt.forward(a.data());
    }
    int64_t t1 = nowNs();
    {
        Tracer::Scope sp(tracer(), "math.ntt.inv");
        for (int i = 0; i < kCalls; ++i)
            ntt.inverse(a.data());
    }
    int64_t t2 = nowNs();
    rep.layer["math.ntt.fwd_us"] =
        static_cast<double>(t1 - t0) / 1e3 / kCalls;
    rep.layer["math.ntt.inv_us"] =
        static_cast<double>(t2 - t1) / 1e3 / kCalls;

    Ciphertext ct = st.encryptor->encrypt(st.encoder->encode(
        blockImage(seed, 0), st.ctx->params().scale(), st.ctx->levels()));
    RnsPoly d = ct.c1;
    d.fromNtt();
    constexpr int kKs = 8;
    int64_t k0 = nowNs();
    {
        Tracer::Scope sp(tracer(), "fhe.keyswitch");
        for (int i = 0; i < kKs; ++i)
            st.eval->keySwitch(d, st.relin);
    }
    rep.layer["fhe.keyswitch_us"] =
        static_cast<double>(nowNs() - k0) / 1e3 / kKs;
}

} // namespace

void
runFheBlock(const Args& args, Report& rep)
{
    CkksParams params = blockParams(args.seed);
    ChebyshevPoly act = chebyshevFit(
        [](double x) { return softRelu(x); }, 15, -1.0, 1.0);
    std::vector<ConvKernel> kernels;
    for (size_t k = 0; k < kKernels; ++k)
        kernels.push_back(blockKernel(args.seed, k));

    // Set-up = context + keygen + one warm block (the first block
    // fills the lazy plaintext caches of the linear transforms).
    bool tracing = !args.tracePath.empty();
    std::unique_ptr<FheState> st;
    std::vector<double> keygen;
    timeSetup(rep, tracing, kSetupReps, 1, [&] {
        st.reset();
        double kg = 0.0;
        st = setUp(params, kg);
        keygen.push_back(kg);
        Tracer::Scope w(tracer(), "setup.warm_block");
        runBlock(*st, kernels[0], act, blockImage(args.seed, 0));
    });
    rep.layer["fhe.keygen_s"] = quantile(keygen, 0.5);

    OpCostModel cost(machineByName("hydra-s").fpga, size_t{1} << 16,
                     machineByName("hydra-s").dnum);
    std::vector<double> modelled(kKernels, 0.0);
    std::vector<std::string> opsByKernel(kKernels);
    double maxErr = 0.0;
    std::array<uint64_t, kNumHeOpTypes> opTotals{};
    uint64_t traced = 0;
    BufferPool::Stats poolTraced{};

    int64_t m0 = nowNs();
    for (uint64_t i = 0;; ++i) {
        size_t k = i % kKernels;
        if (cycleDone(args, rep, i, kKernels, m0))
            break;
        bool trace_item = tracing && (i / kKernels) % 2 == 1;
        tracer().setOn(trace_item);
        tracer().setItem(i + 1);
        std::vector<double> image = blockImage(args.seed, i + 1);
        BufferPool::Stats p0 = BufferPool::global().stats();
        int64_t t0 = nowNs();
        BlockOut out;
        {
            Tracer::Scope sp(tracer(), "item");
            out = runBlock(*st, kernels[k], act, image);
        }
        double ms = static_cast<double>(nowNs() - t0) / 1e6;
        BufferPool::Stats p1 = BufferPool::global().stats();
        tracer().setOn(false);
        rep.items.push_back({"block" + std::to_string(k), ms, 1, 1,
                             trace_item});
        rep.check(out.maxErr < kMaxErrBound,
                  "block " + std::to_string(i) + " max error " +
                      std::to_string(out.maxErr));
        maxErr = std::max(maxErr, out.maxErr);
        if (i < kKernels) {
            modelled[k] = modelSeconds(cost, out.ops);
            opsByKernel[k] = out.ops.summary();
        }
        if (trace_item) {
            ++traced;
            for (size_t t = 0; t < kNumHeOpTypes; ++t)
                opTotals[t] += out.ops.count(static_cast<HeOpType>(t));
            poolTraced.hits += p1.hits - p0.hits;
            poolTraced.misses += p1.misses - p0.misses;
        }
    }
    rep.measuredS = static_cast<double>(nowNs() - m0) / 1e9;

    if (tracing) {
        tracer().setOn(true);
        tracer().setItem(0);
        probeKernels(*st, rep, args.seed);
        tracer().setOn(false);
        double n = traced ? static_cast<double>(traced) : 1.0;
        auto per = [&](HeOpType t) {
            return static_cast<double>(opTotals[static_cast<size_t>(t)]) /
                   n;
        };
        rep.layer["trace.ops.rotate"] = per(HeOpType::Rotate);
        rep.layer["trace.ops.cmult"] = per(HeOpType::CMult);
        rep.layer["trace.ops.pmult"] = per(HeOpType::PMult);
        rep.layer["trace.ops.rescale"] = per(HeOpType::Rescale);
        rep.layer["trace.ops.keyswitch"] = per(HeOpType::KeySwitch);
        rep.layer["trace.ops.hadd"] = per(HeOpType::HAdd);
        rep.layer["common.pool.hits"] =
            static_cast<double>(poolTraced.hits) / n;
        rep.layer["common.pool.misses"] =
            static_cast<double>(poolTraced.misses) / n;
    }

    // Model surface: each distinct block's executed op trace, priced
    // on one Hydra card.
    reportModelItems(rep, modelled);
    rep.layer["fhe.max_err"] = maxErr;
    for (size_t k = 0; k < kKernels; ++k)
        rep.notes["ops.block" + std::to_string(k)] = opsByKernel[k];
    rep.notes["params"] = params.describe();
    rep.notes["max_err_bound"] = std::to_string(kMaxErrBound);
}

} // namespace perfbench
