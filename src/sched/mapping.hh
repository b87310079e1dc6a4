/**
 * @file
 * Task decomposition and mapping strategies (paper Section III): the
 * map+price stage of the schedule compiler.
 *
 * Writes one workload Step straight into a ProgramBuilder, pricing
 * every compute op with the bound OpCostModel as it is emitted and
 * sizing every transfer in bytes:
 *  - ConvBN / Pooling: kernel units split across cards, each chunk's
 *    outputs broadcast round-robin so transfers hide under the next
 *    chunk's compute (Fig. 1 + Fig. 2);
 *  - FC / PCMM / CCMM: units split evenly, partial results combined by
 *    a tree reduction and re-broadcast (Section III-A);
 *  - Non-linear: data-parallel across ciphertexts when parallelism
 *    covers the cards, otherwise the Alg. 1 computation-tree split with
 *    CMult balancing;
 *  - Bootstrap: Fig. 3 mapping -- per-level BSGS DFT with replicated
 *    baby steps, distributed giant steps and tree aggregation, Alg. 1
 *    EvaExp, leader-local double-angle -- with Radix/bs chosen by the
 *    Eq. 1 optimizer.
 *
 * compileUnit (sched/progcache.hh) maps a unit's member steps into one
 * builder and runs the optimizer passes; the ProgramCache reuses the
 * result.
 */

#ifndef HYDRA_SCHED_MAPPING_HH
#define HYDRA_SCHED_MAPPING_HH

#include <initializer_list>
#include <vector>

#include "arch/network.hh"
#include "arch/opcost.hh"
#include "model/dft_model.hh"
#include "sync/task.hh"
#include "workloads/model.hh"

namespace hydra {

/** Mapping knobs. */
struct MappingConfig
{
    /** Chunks each card splits its unit share into (comm overlap). */
    size_t maxChunksPerCard = 8;
    /** EvaExp polynomial degree (paper: 59). */
    size_t evalExpDegree = 59;
    /** Double-angle iterations after EvaExp. */
    size_t dafIters = 3;
    /** Homomorphic DFT matrix levels (Table V: depth 3). */
    size_t dftLevels = 3;
};

/**
 * Single-card wall time of one full bootstrap (2 DFT stacks + EvaExp +
 * double-angle) under the given models.
 */
Tick bootstrapLocalTicks(const OpCostModel& cost, const NetworkModel& net,
                         const MappingConfig& config, size_t log_slots,
                         size_t limbs);

/** Maps steps onto the cards of one (machine, workload) pair. */
class StepMapper
{
  public:
    StepMapper(const OpCostModel& cost, const NetworkModel& net,
               size_t cards, size_t log_slots,
               MappingConfig config = {});

    /**
     * Append one step's tasks to `pb` (which must span this mapper's
     * cards), priced under this mapper's models.  A multi-member unit
     * maps all its steps into one builder; the fused scheduling mode
     * (paper Section IV-D: "multiple tasks can be loaded into each
     * FPGA's task queue at once") is the whole workload as one such
     * unit.
     */
    void mapStep(ProgramBuilder& pb, const Step& step) const;

    /** Single-card time of one full bootstrap (used for data-parallel
     *  bootstrap scheduling and for Fig. 9 style analyses). */
    Tick bootstrapLocalTime(size_t limbs) const;

    /** The Eq. 1-optimal DFT plan for a group of `cards` nodes. */
    DftPlan dftPlanFor(size_t group_cards, size_t limbs) const;

    const MappingConfig& config() const { return config_; }

  private:
    /** One HeOp term of a compute op.  `timed`/`costed` express
     *  asymmetric accounting: the bootstrap double-angle step times
     *  rot+ha+pm but charges only the CMult iterations to energy. */
    struct Term
    {
        HeOpType op = HeOpType::HAdd;
        uint64_t count = 0;
        bool timed = true;
        bool costed = true;
    };

    /** Append a compute op priced as the sum of its terms at `limbs`.
     *  Zero-count terms still max-merge their limbs into the cost. */
    uint64_t addOps(ProgramBuilder& pb, size_t card,
                    std::initializer_list<Term> terms, size_t limbs,
                    uint32_t label,
                    std::vector<uint64_t> wait_msgs = {}) const;

    /** Bytes of `cts` ciphertexts at `limbs`. */
    uint64_t
    ctBytes(uint64_t cts, size_t limbs) const
    {
        return cts * cost_.ciphertextBytes(limbs);
    }

    void mapUniform(ProgramBuilder& pb, const Step& step) const;
    void mapNonLinear(ProgramBuilder& pb, const Step& step) const;
    /** Alg. 1 on the card range [base, base + group). */
    void mapPolyEvalTree(ProgramBuilder& pb, size_t base, size_t group,
                         size_t degree, size_t limbs,
                         uint32_t label) const;
    void mapBootstrap(ProgramBuilder& pb, const Step& step) const;
    /** One BSGS DFT stack (C2S or S2C) on a card group. */
    void mapDftLevels(ProgramBuilder& pb, size_t base, size_t group,
                      const DftPlan& plan, size_t limbs,
                      uint32_t label) const;

    const OpCostModel& cost_;
    const NetworkModel& net_;
    size_t cards_;
    size_t logSlots_;
    MappingConfig config_;
};

} // namespace hydra

#endif // HYDRA_SCHED_MAPPING_HH
