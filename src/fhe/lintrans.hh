/**
 * @file
 * Homomorphic linear transforms on slot vectors via the Baby-Step
 * Giant-Step (BSGS) diagonal method (paper Section III-B, Fig. 3(d)).
 *
 * For an s x s matrix M acting on the slot vector z:
 *     M z = sum_g rot_{g*bs}( sum_b diag'_{g*bs+b}(M) . rot_b(z) )
 * where diag'_d is the d-th generalized diagonal pre-rotated by -g*bs.
 * Rotation count drops from O(s) to bs + gs with bs * gs >= s.
 */

#ifndef HYDRA_FHE_LINTRANS_HH
#define HYDRA_FHE_LINTRANS_HH

#include <initializer_list>
#include <map>
#include <vector>

#include "fhe/evaluator.hh"

namespace hydra {

/** Dense complex matrix, row-major, slots x slots. */
using CMatrix = std::vector<std::vector<cplx>>;

/** One precomputed homomorphic matrix-vector product. */
class LinearTransform
{
  public:
    /**
     * Precompute the encoded diagonals of `matrix` at plaintext scale
     * `scale`.
     * @param bs baby-step count; 0 selects ceil(sqrt(slots)) rounded to
     *           a power of two.
     */
    LinearTransform(const CkksEncoder& encoder, const CMatrix& matrix,
                    double scale, size_t bs = 0);

    /** Rotation steps the evaluator's Galois keys must cover. */
    std::vector<int> requiredRotations() const;

    /**
     * Apply to a ciphertext.  Consumes one level (PMult + final
     * rescale); the result decodes to M * decode(ct).
     */
    Ciphertext apply(const Evaluator& eval, const Ciphertext& ct) const;

    /**
     * The baby steps rot_b(ct), b < bs, that a diagonal of any of
     * `transforms` needs, hoisted over one digit decomposition; other
     * entries stay empty.  Transforms applied to the same ciphertext
     * share them (CoeffToSlot's two halves).  All transforms must have
     * the same baby-step count.
     */
    static std::vector<Ciphertext>
    babySteps(const Evaluator& eval, const Ciphertext& ct,
              std::initializer_list<const LinearTransform*> transforms);

    /** apply() on baby steps from babySteps(); bit-identical to it. */
    Ciphertext applyBabySteps(const Evaluator& eval,
                              const std::vector<Ciphertext>& baby) const;

    size_t babySteps() const { return bs_; }
    size_t giantSteps() const { return gs_; }

    /** Number of stored (non-negligible) diagonals. */
    size_t diagonalCount() const { return diag_.size(); }

  private:
    size_t slots_;
    size_t bs_;
    size_t gs_;
    double scale_;
    /** Encoded pre-rotated diagonals, keyed by diagonal index d. */
    std::map<size_t, Plaintext> diag_;
};

/**
 * Reference (plaintext) matrix-vector product for tests and for
 * composing transform matrices.
 */
std::vector<cplx> matVec(const CMatrix& m, const std::vector<cplx>& v);

} // namespace hydra

#endif // HYDRA_FHE_LINTRANS_HH
