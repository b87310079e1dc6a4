#include "fhe/lintrans.hh"

#include <cmath>

#include "common/logging.hh"

namespace hydra {

namespace {

/** Largest magnitude entry of a vector. */
double
maxNorm(const std::vector<cplx>& v)
{
    double m = 0.0;
    for (const auto& x : v)
        m = std::max(m, std::abs(x));
    return m;
}

} // namespace

LinearTransform::LinearTransform(const CkksEncoder& encoder,
                                 const CMatrix& matrix, double scale,
                                 size_t bs)
    : slots_(encoder.slots()), scale_(scale)
{
    HYDRA_ASSERT(matrix.size() == slots_, "matrix must be slots x slots");
    for (const auto& row : matrix)
        HYDRA_ASSERT(row.size() == slots_, "matrix must be square");

    if (bs == 0) {
        bs = 1;
        while (bs * bs < slots_)
            bs <<= 1;
    }
    HYDRA_ASSERT(slots_ % bs == 0, "baby-step count must divide slots");
    bs_ = bs;
    gs_ = slots_ / bs;

    // Extract generalized diagonals, pre-rotate each by -(g*bs), encode.
    size_t encoded = 0;
    for (size_t g = 0; g < gs_; ++g) {
        for (size_t b = 0; b < bs_; ++b) {
            size_t d = g * bs_ + b;
            std::vector<cplx> diag(slots_);
            for (size_t j = 0; j < slots_; ++j)
                diag[j] = matrix[j][(j + d) % slots_];
            if (maxNorm(diag) < 1e-14)
                continue; // structurally zero diagonal
            // Pre-rotate right by g*bs so the giant-step rotation of the
            // partial sum aligns the plaintext with the ciphertext.
            std::vector<cplx> rotated(slots_);
            size_t shift = g * bs_;
            for (size_t j = 0; j < slots_; ++j)
                rotated[j] = diag[(j + slots_ - shift % slots_) % slots_];
            // Encode at full level so any ciphertext level works.
            diag_.emplace(d, encoder.encode(rotated, scale_,
                                            encoder.maxLevels()));
            ++encoded;
        }
    }
    (void)encoded;
}

std::vector<int>
LinearTransform::requiredRotations() const
{
    std::vector<int> steps;
    for (size_t b = 1; b < bs_; ++b)
        steps.push_back(static_cast<int>(b));
    for (size_t g = 1; g < gs_; ++g)
        steps.push_back(static_cast<int>(g * bs_));
    return steps;
}

Ciphertext
LinearTransform::apply(const Evaluator& eval, const Ciphertext& ct) const
{
    return applyBabySteps(eval, babySteps(eval, ct, {this}));
}

std::vector<Ciphertext>
LinearTransform::babySteps(
    const Evaluator& eval, const Ciphertext& ct,
    std::initializer_list<const LinearTransform*> transforms)
{
    HYDRA_ASSERT(transforms.size() > 0, "no linear transform");
    size_t bs = (*transforms.begin())->bs_;
    // Baby steps: rot_b(ct) for every b that some diagonal needs.
    std::vector<bool> need(bs, false);
    for (const LinearTransform* lt : transforms) {
        HYDRA_ASSERT(lt->bs_ == bs, "shared baby steps need one bs");
        HYDRA_ASSERT(!lt->diag_.empty(), "empty linear transform");
        for (const auto& [d, pt] : lt->diag_)
            need[d % bs] = true;
    }

    // Hoisted baby steps: one digit decomposition shared by all.
    std::vector<int> steps;
    for (size_t b = 1; b < bs; ++b)
        if (need[b])
            steps.push_back(static_cast<int>(b));
    std::vector<Ciphertext> hoisted = eval.rotateHoisted(ct, steps);
    std::vector<Ciphertext> baby(bs);
    if (need[0])
        baby[0] = ct;
    for (size_t i = 0; i < steps.size(); ++i)
        baby[static_cast<size_t>(steps[i])] = std::move(hoisted[i]);
    return baby;
}

Ciphertext
LinearTransform::applyBabySteps(const Evaluator& eval,
                                const std::vector<Ciphertext>& baby) const
{
    HYDRA_ASSERT(!diag_.empty(), "empty linear transform");
    HYDRA_ASSERT(baby.size() == bs_, "baby-step count mismatch");
    bool have_total = false;
    Ciphertext total;
    for (size_t g = 0; g < gs_; ++g) {
        // Giant-step accumulator: the first diagonal materializes the
        // product, every further one is a fused multiply-accumulate
        // into it -- no per-term ciphertext, no copy-then-add.
        bool have_acc = false;
        Ciphertext acc;
        for (size_t b = 0; b < bs_; ++b) {
            auto it = diag_.find(g * bs_ + b);
            if (it == diag_.end())
                continue;
            if (have_acc) {
                eval.addMulPlain(acc, baby[b], it->second);
            } else {
                acc = eval.mulPlain(baby[b], it->second);
                have_acc = true;
            }
        }
        if (!have_acc)
            continue;
        Ciphertext shifted =
            g == 0 ? std::move(acc)
                   : eval.rotate(acc, static_cast<int>(g * bs_));
        if (have_total) {
            eval.addInPlace(total, shifted);
        } else {
            total = std::move(shifted);
            have_total = true;
        }
    }
    HYDRA_ASSERT(have_total, "linear transform produced nothing");
    eval.rescaleInPlace(total);
    return total;
}

std::vector<cplx>
matVec(const CMatrix& m, const std::vector<cplx>& v)
{
    std::vector<cplx> out(m.size(), cplx(0, 0));
    for (size_t i = 0; i < m.size(); ++i)
        for (size_t j = 0; j < v.size(); ++j)
            out[i] += m[i][j] * v[j];
    return out;
}

} // namespace hydra
