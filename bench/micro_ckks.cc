/**
 * @file
 * Google-benchmark microbenchmarks of the functional CKKS library:
 * NTT, encode/decode, and the ciphertext operation set at laptop-scale
 * ring dimensions (the paper's N = 2^16 is supported by the machinery;
 * benches default to 2^12/2^13 to keep run times sane).
 */

#include <benchmark/benchmark.h>

#include "bench_util.hh"
#include "fhe/bootstrap.hh"
#include "fhe/encryptor.hh"
#include "fhe/keygen.hh"
#include "math/primes.hh"

namespace hydra {
namespace {

using bench::PoolCounterScope;

void
BM_NttForward(benchmark::State& state)
{
    size_t n = static_cast<size_t>(state.range(0));
    Modulus q(nttPrimes(n, 50, 1)[0]);
    NttTable table(n, q);
    std::vector<u64> a(n);
    for (size_t i = 0; i < n; ++i)
        a[i] = i * 2654435761u % q.value();
    for (auto _ : state) {
        table.forward(a);
        benchmark::DoNotOptimize(a.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_NttForward)->Arg(1 << 10)->Arg(1 << 12)->Arg(1 << 14);

void
BM_NttForwardRadix4(benchmark::State& state)
{
    size_t n = static_cast<size_t>(state.range(0));
    Modulus q(nttPrimes(n, 50, 1)[0]);
    NttTable table(n, q);
    std::vector<u64> a(n);
    for (size_t i = 0; i < n; ++i)
        a[i] = i * 2654435761u % q.value();
    for (auto _ : state) {
        table.forwardRadix4(a);
        benchmark::DoNotOptimize(a.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_NttForwardRadix4)->Arg(1 << 10)->Arg(1 << 12)->Arg(1 << 14);

struct CkksFixtureState
{
    CkksFixtureState()
        : ctx(params()),
          encoder(ctx),
          keygen(ctx),
          sk(keygen.secretKey()),
          pk(keygen.publicKey(sk)),
          relin(keygen.relinKey(sk)),
          galois(keygen.galoisKeys(sk, {1})),
          encryptor(ctx, pk),
          decryptor(ctx, sk),
          eval(ctx, encoder)
    {
        eval.setRelinKey(&relin);
        eval.setGaloisKeys(&galois);
        std::vector<double> v(ctx.slots(), 0.5);
        ct = encryptor.encrypt(
            encoder.encode(v, ctx.params().scale(), ctx.levels()));
    }

    static CkksParams
    params()
    {
        CkksParams p;
        p.n = 1 << 12;
        p.levels = 8;
        return p;
    }

    CkksContext ctx;
    CkksEncoder encoder;
    KeyGenerator keygen;
    SecretKey sk;
    PublicKey pk;
    EvalKey relin;
    GaloisKeys galois;
    Encryptor encryptor;
    Decryptor decryptor;
    Evaluator eval;
    Ciphertext ct;
};

CkksFixtureState&
fixture()
{
    static CkksFixtureState f;
    return f;
}

void
BM_CkksEncode(benchmark::State& state)
{
    auto& f = fixture();
    std::vector<double> v(f.ctx.slots(), 0.25);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            f.encoder.encode(v, f.ctx.params().scale(), 2));
    }
}
BENCHMARK(BM_CkksEncode);

void
BM_CkksHAdd(benchmark::State& state)
{
    auto& f = fixture();
    PoolCounterScope pool(state);
    for (auto _ : state)
        benchmark::DoNotOptimize(f.eval.add(f.ct, f.ct));
}
BENCHMARK(BM_CkksHAdd);

void
BM_CkksPMult(benchmark::State& state)
{
    auto& f = fixture();
    std::vector<double> v(f.ctx.slots(), 0.5);
    Plaintext pt =
        f.encoder.encode(v, f.ctx.params().scale(), f.ctx.levels());
    PoolCounterScope pool(state);
    for (auto _ : state)
        benchmark::DoNotOptimize(f.eval.mulPlain(f.ct, pt));
}
BENCHMARK(BM_CkksPMult);

void
BM_CkksCMult(benchmark::State& state)
{
    auto& f = fixture();
    PoolCounterScope pool(state);
    for (auto _ : state)
        benchmark::DoNotOptimize(f.eval.mulRelin(f.ct, f.ct));
}
BENCHMARK(BM_CkksCMult);

void
BM_CkksRotate(benchmark::State& state)
{
    auto& f = fixture();
    PoolCounterScope pool(state);
    for (auto _ : state)
        benchmark::DoNotOptimize(f.eval.rotate(f.ct, 1));
}
BENCHMARK(BM_CkksRotate);

void
BM_CkksRescale(benchmark::State& state)
{
    auto& f = fixture();
    Ciphertext prod = f.eval.mulRelin(f.ct, f.ct);
    PoolCounterScope pool(state);
    for (auto _ : state)
        benchmark::DoNotOptimize(f.eval.rescale(prod));
}
BENCHMARK(BM_CkksRescale);

void
BM_CkksRotateHoisted8(benchmark::State& state)
{
    // Eight rotations sharing one digit decomposition vs eight naive
    // rotations (BM_CkksRotate x8): the hoisting win.
    auto& f = fixture();
    GaloisKeys keys = f.keygen.galoisKeys(
        f.sk, {1, 2, 3, 4, 5, 6, 7, 8}, false);
    f.eval.setGaloisKeys(&keys);
    std::vector<int> steps = {1, 2, 3, 4, 5, 6, 7, 8};
    PoolCounterScope pool(state);
    for (auto _ : state)
        benchmark::DoNotOptimize(f.eval.rotateHoisted(f.ct, steps));
    f.eval.setGaloisKeys(&f.galois);
    state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_CkksRotateHoisted8);

void
BM_CkksEncryptDecrypt(benchmark::State& state)
{
    auto& f = fixture();
    std::vector<double> v(f.ctx.slots(), 0.125);
    Plaintext pt =
        f.encoder.encode(v, f.ctx.params().scale(), f.ctx.levels());
    for (auto _ : state) {
        Ciphertext c = f.encryptor.encrypt(pt);
        benchmark::DoNotOptimize(f.decryptor.decrypt(c));
    }
}
BENCHMARK(BM_CkksEncryptDecrypt);

/** Full bootstrap at the small self-test parameter point. */
struct BootstrapFixtureState
{
    BootstrapFixtureState()
        : ctx(CkksParams::bootstrapTest()),
          encoder(ctx),
          keygen(ctx),
          sk(keygen.secretKey()),
          pk(keygen.publicKey(sk)),
          relin(keygen.relinKey(sk)),
          encryptor(ctx, pk),
          eval(ctx, encoder),
          boot(ctx, encoder),
          galois(keygen.galoisKeys(sk, boot.requiredRotations()))
    {
        eval.setRelinKey(&relin);
        eval.setGaloisKeys(&galois);
        std::vector<double> v(ctx.slots(), 0.01);
        ct = encryptor.encrypt(
            encoder.encode(v, ctx.params().scale(), 1));
        // One untimed bootstrap fills the linear transforms' lazy
        // plaintext caches and the pool, so the measured iterations
        // (and their allocs column) see the steady state.
        benchmark::DoNotOptimize(boot.bootstrap(eval, ct));
    }

    CkksContext ctx;
    CkksEncoder encoder;
    KeyGenerator keygen;
    SecretKey sk;
    PublicKey pk;
    EvalKey relin;
    Encryptor encryptor;
    Evaluator eval;
    Bootstrapper boot;
    GaloisKeys galois;
    Ciphertext ct;
};

BootstrapFixtureState&
bootstrapFixture()
{
    static BootstrapFixtureState f;
    return f;
}

void
BM_CkksBootstrap(benchmark::State& state)
{
    auto& f = bootstrapFixture();
    PoolCounterScope pool(state);
    for (auto _ : state)
        benchmark::DoNotOptimize(f.boot.bootstrap(f.eval, f.ct));
}
BENCHMARK(BM_CkksBootstrap)->Unit(benchmark::kMillisecond)
    ->Iterations(3);

} // namespace
} // namespace hydra

HYDRA_BENCH_MAIN("micro_ckks");
