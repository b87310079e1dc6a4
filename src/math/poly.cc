#include "math/poly.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <map>
#include <mutex>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "math/ntt.hh"
#include "math/simd/simd.hh"

namespace hydra {

RnsPoly::RnsPoly(std::shared_ptr<const RnsBasis> basis, size_t n_limbs,
                 bool has_special, bool ntt_form, Uninit)
    : basis_(std::move(basis)),
      nLimbs_(n_limbs),
      hasSpecial_(has_special),
      nttForm_(ntt_form),
      n_(basis_->n()),
      limbCount_(n_limbs + (has_special ? 1 : 0))
{
    HYDRA_ASSERT(nLimbs_ >= 1 && nLimbs_ <= basis_->qCount(),
                 "limb count out of range");
    buf_ = BufferPool::global().acquire(limbCount_ * n_);
}

RnsPoly::RnsPoly(std::shared_ptr<const RnsBasis> basis, size_t n_limbs,
                 bool has_special, bool ntt_form)
    : RnsPoly(std::move(basis), n_limbs, has_special, ntt_form, Uninit{})
{
    setZero();
}

RnsPoly::RnsPoly(const RnsPoly& other)
    : basis_(other.basis_),
      nLimbs_(other.nLimbs_),
      hasSpecial_(other.hasSpecial_),
      nttForm_(other.nttForm_),
      n_(other.n_),
      limbCount_(other.limbCount_)
{
    if (!basis_)
        return;
    buf_ = BufferPool::global().acquire(limbCount_ * n_);
    std::memcpy(buf_.data(), other.buf_.data(),
                limbCount_ * n_ * sizeof(u64));
}

RnsPoly&
RnsPoly::operator=(const RnsPoly& other)
{
    if (this == &other)
        return *this;
    if (other.basis_) {
        // Reuse our buffer when it is exactly the right size; otherwise
        // recycle it through the pool.
        size_t words = other.limbCount_ * other.n_;
        if (!buf_.valid() || buf_.words() != words)
            buf_ = BufferPool::global().acquire(words);
        std::memcpy(buf_.data(), other.buf_.data(), words * sizeof(u64));
    } else {
        buf_.reset();
    }
    basis_ = other.basis_;
    nLimbs_ = other.nLimbs_;
    hasSpecial_ = other.hasSpecial_;
    nttForm_ = other.nttForm_;
    n_ = other.n_;
    limbCount_ = other.limbCount_;
    return *this;
}

RnsPoly
RnsPoly::fromSigned(std::shared_ptr<const RnsBasis> basis, size_t n_limbs,
                    bool has_special, const i64* coeffs, u64 max_abs)
{
    RnsPoly p(std::move(basis), n_limbs, has_special, false, Uninit{});
    const simd::Kernels& kern = simd::kernels();
    for (size_t k = 0; k < p.limbCount(); ++k) {
        const Modulus& m = p.mod(k);
        if (max_abs < m.value())
            kern.liftCenteredSpan(p.limbData(k), coeffs, p.n_, m.value());
        else
            kern.reduceCenteredSpan(p.limbData(k), coeffs, p.n_, m);
    }
    return p;
}

RnsPoly
RnsPoly::fromSigned(std::shared_ptr<const RnsBasis> basis, size_t n_limbs,
                    bool has_special, const std::vector<i64>& coeffs)
{
    HYDRA_ASSERT(coeffs.size() == basis->n(), "coefficient count mismatch");
    return fromSigned(std::move(basis), n_limbs, has_special,
                      coeffs.data());
}

void
RnsPoly::copyLimbFrom(size_t k, const RnsPoly& src, size_t src_k)
{
    HYDRA_ASSERT(k < limbCount_ && src_k < src.limbCount_ && n_ == src.n_,
                 "limb copy out of range");
    std::memcpy(limbData(k), src.limbData(src_k), n_ * sizeof(u64));
}

void
RnsPoly::setZero()
{
    std::fill(buf_.data(), buf_.data() + limbCount_ * n_, u64{0});
}

bool
RnsPoly::sameShape(const RnsPoly& other) const
{
    return basis_ == other.basis_ && nLimbs_ == other.nLimbs_ &&
           hasSpecial_ == other.hasSpecial_ && nttForm_ == other.nttForm_;
}

void
RnsPoly::add(const RnsPoly& other)
{
    HYDRA_ASSERT(sameShape(other), "shape mismatch in add");
    parallelFor(0, limbCount_, [&](size_t k) {
        simd::kernels().addSpan(limbData(k), other.limbData(k), n_,
                                mod(k).value());
    });
}

void
RnsPoly::sub(const RnsPoly& other)
{
    HYDRA_ASSERT(sameShape(other), "shape mismatch in sub");
    parallelFor(0, limbCount_, [&](size_t k) {
        simd::kernels().subSpan(limbData(k), other.limbData(k), n_,
                                mod(k).value());
    });
}

void
RnsPoly::negate()
{
    parallelFor(0, limbCount_, [&](size_t k) {
        simd::kernels().negSpan(limbData(k), n_, mod(k).value());
    });
}

void
RnsPoly::mulPointwise(const RnsPoly& other)
{
    HYDRA_ASSERT(sameShape(other) && nttForm_,
                 "mulPointwise requires matching NTT-form operands");
    parallelFor(0, limbCount_, [&](size_t k) {
        simd::kernels().mulSpan(limbData(k), other.limbData(k), n_,
                                mod(k));
    });
}

void
RnsPoly::addMulPointwise(const RnsPoly& a, const RnsPoly& b)
{
    HYDRA_ASSERT(sameShape(a) && sameShape(b) && nttForm_,
                 "addMulPointwise requires matching NTT-form operands");
    parallelFor(0, limbCount_, [&](size_t k) {
        simd::kernels().macSpan(limbData(k), a.limbData(k),
                                b.limbData(k), n_, mod(k));
    });
}

void
RnsPoly::mulScalar(u64 a)
{
    parallelFor(0, limbCount_, [&](size_t k) {
        const Modulus& m = mod(k);
        ShoupMul w(m.reduceU64(a), m);
        simd::kernels().mulScalarSpan(limbData(k), n_, w.value(),
                                      w.shoup(), m.value());
    });
}

void
RnsPoly::mulScalarPerLimb(const std::vector<u64>& a)
{
    HYDRA_ASSERT(a.size() == limbCount_, "per-limb scalar count");
    parallelFor(0, limbCount_, [&](size_t k) {
        const Modulus& m = mod(k);
        ShoupMul w(m.reduceU64(a[k]), m);
        simd::kernels().mulScalarSpan(limbData(k), n_, w.value(),
                                      w.shoup(), m.value());
    });
}

void
RnsPoly::toNtt()
{
    if (nttForm_)
        return;
    parallelFor(0, limbCount_, [&](size_t k) {
        basis_->ntt(basisIndex(k)).forward(limbData(k));
    });
    nttForm_ = true;
}

void
RnsPoly::fromNtt()
{
    if (!nttForm_)
        return;
    parallelFor(0, limbCount_, [&](size_t k) {
        basis_->ntt(basisIndex(k)).inverse(limbData(k));
    });
    nttForm_ = false;
}

RnsPoly
RnsPoly::automorphism(u64 galois) const
{
    HYDRA_ASSERT(!nttForm_, "automorphism requires coefficient domain");
    size_t nn = n_;
    u64 two_n = 2 * nn;
    HYDRA_ASSERT((galois & 1) == 1 && galois < two_n, "bad Galois element");

    RnsPoly out(basis_, nLimbs_, hasSpecial_, false, Uninit{});
    parallelFor(0, limbCount_, [&](size_t k) {
        const Modulus& m = mod(k);
        const u64* src = limbData(k);
        u64* dst = out.limbData(k);
        // j = i * galois mod 2n, stepped by one add-and-wrap per i
        // (galois < 2n).
        u64 j = 0;
        for (size_t i = 0; i < nn; ++i) {
            if (j < nn)
                dst[j] = src[i];
            else
                dst[j - nn] = m.negMod(src[i]);
            j += galois;
            if (j >= two_n)
                j -= two_n;
        }
    });
    return out;
}

std::vector<size_t>
RnsPoly::nttAutomorphismMap(size_t n, u64 galois)
{
    // The forward NTT emits evaluations at psi^(2*brv(j)+1).  Composing
    // with X -> X^g moves slot j to the evaluation at exponent
    // g*(2*brv(j)+1) mod 2n, whose home slot is recovered by the
    // inverse bit-reversal.
    int log_n = std::countr_zero(n);
    u64 two_n = 2 * static_cast<u64>(n);
    std::vector<size_t> map(n);
    for (size_t j = 0; j < n; ++j) {
        u64 e = 2 * bitReverse(static_cast<u64>(j), log_n) + 1;
        u64 e_g = (e * galois) % two_n;
        map[j] = static_cast<size_t>(bitReverse((e_g - 1) / 2, log_n));
    }
    return map;
}

const std::vector<size_t>&
RnsPoly::nttAutomorphismMapCached(size_t n, u64 galois)
{
    static std::mutex memo_mutex;
    static std::map<std::pair<size_t, u64>, std::vector<size_t>> memo;
    std::lock_guard<std::mutex> lock(memo_mutex);
    auto [it, inserted] = memo.try_emplace({n, galois});
    if (inserted)
        it->second = nttAutomorphismMap(n, galois);
    return it->second;
}

RnsPoly
RnsPoly::automorphismNtt(u64 galois) const
{
    HYDRA_ASSERT(nttForm_, "automorphismNtt requires NTT domain");
    const std::vector<size_t>& map = nttAutomorphismMapCached(n_, galois);
    RnsPoly out(basis_, nLimbs_, hasSpecial_, true, Uninit{});
    const size_t nn = n_;
    parallelFor(0, limbCount_, [&](size_t k) {
        // size_t and u64 alias: restrict keeps the map out of the
        // store's reach so it is not reloaded per element.
        const size_t* __restrict mp = map.data();
        const u64* __restrict src = limbData(k);
        u64* __restrict dst = out.limbData(k);
        for (size_t j = 0; j < nn; ++j)
            dst[j] = src[mp[j]];
    });
    return out;
}

void
RnsPoly::addAutomorphismNtt(const RnsPoly& src, u64 galois)
{
    HYDRA_ASSERT(sameShape(src) && nttForm_,
                 "addAutomorphismNtt requires matching NTT-form operands");
    const std::vector<size_t>& map = nttAutomorphismMapCached(n_, galois);
    const size_t nn = n_;
    parallelFor(0, limbCount_, [&](size_t k) {
        const u64 q = mod(k).value();
        const size_t* __restrict mp = map.data();
        const u64* __restrict s = src.limbData(k);
        u64* __restrict dst = limbData(k);
        for (size_t j = 0; j < nn; ++j) {
            u64 sum = dst[j] + s[mp[j]];
            dst[j] = sum >= q ? sum - q : sum;
        }
    });
}

void
RnsPoly::divideRoundByLast()
{
    HYDRA_ASSERT(limbCount_ >= 2, "cannot drop the only limb");
    size_t last = limbCount_ - 1;
    size_t last_basis = basisIndex(last);
    const Modulus& ql = basis_->mod(last_basis);
    const NttTable& ntt_l = basis_->ntt(last_basis);
    size_t nn = n_;

    // Bring the last limb into coefficient domain to take its centered
    // representative.  Scratch comes from the pool; the i64 view is the
    // signed alias of the same words.
    PoolBuffer scratch = BufferPool::global().acquire(2 * nn);
    u64* corr = scratch.data();
    i64* centered = reinterpret_cast<i64*>(scratch.data() + nn);
    std::memcpy(corr, limbData(last), nn * sizeof(u64));
    if (nttForm_)
        ntt_l.inverse(corr);
    simd::kernels().toCenteredSpan(centered, corr, nn, ql.value());

    // One nn-word correction slice per limb, acquired before the fork
    // so pool traffic does not depend on how many workers run at once.
    PoolBuffer corrections = BufferPool::global().acquire(last * nn);
    parallelFor(0, last, [&](size_t k) {
        size_t kb = basisIndex(k);
        const Modulus& m = basis_->mod(kb);
        ShoupMul inv(basis_->invQlModQj(last_basis, kb), m);
        u64* limb = limbData(k);
        // Reduce the centered correction into this limb's modulus, NTT
        // it when needed, then fold in (limb - c) * qL^-1 fused.
        u64* c = corrections.data() + k * nn;
        if (ql.value() / 2 < m.value())
            simd::kernels().liftCenteredSpan(c, centered, nn, m.value());
        else
            simd::kernels().reduceCenteredSpan(c, centered, nn, m);
        if (nttForm_)
            basis_->ntt(kb).forward(c);
        simd::kernels().subMulScalarSpan(limb, c, nn, inv.value(),
                                         inv.shoup(), m.value());
    });

    dropLast();
}

void
RnsPoly::dropLast()
{
    HYDRA_ASSERT(limbCount_ >= 2, "cannot drop the only limb");
    // The flat buffer keeps its original capacity (it returns to its
    // size bucket when released); only the live-limb count shrinks.
    --limbCount_;
    if (hasSpecial_)
        hasSpecial_ = false;
    else
        --nLimbs_;
}

} // namespace hydra
