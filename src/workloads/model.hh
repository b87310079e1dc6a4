/**
 * @file
 * FHE-based deep learning workload descriptions and the model registry.
 *
 * Each model is a sequence of Steps; a Step is one key procedure of the
 * paper (ConvBN, Pooling, FC, Non-linear, PCMM, CCMM, Norm, Bootstrap)
 * with its application-level parallelism and the per-unit ciphertext
 * operation mix of Table I.  The scheduler maps Steps onto cards.
 *
 * Every model is defined once, as declarative spec text in the registry
 * (modelspec.cc): the paper's four benchmarks (Section V-A), the
 * ResNet-20 of its Section II motivation, and a small encrypted MLP.
 * Layer schedules are reconstructed from the models' architectures and
 * the published implementations ([12] for CNNs, [13] for transformers);
 * per-layer unit counts are calibrated so single-card execution time
 * approximates the paper's Hydra-S column in Table II (the substitution
 * is documented in DESIGN.md).
 */

#ifndef HYDRA_WORKLOADS_MODEL_HH
#define HYDRA_WORKLOADS_MODEL_HH

#include <cstddef>
#include <string>
#include <vector>

#include "common/parse.hh"
#include "trace/heop.hh"

namespace hydra {

/** Key procedures of FHE-based DL inference (paper Section III). */
enum class ProcKind : uint8_t
{
    ConvBN,
    Pooling,
    FC,
    NonLinear,
    PCMM,
    CCMM,
    Norm,
    Bootstrap,
    NumKinds
};

constexpr size_t kNumProcKinds = static_cast<size_t>(ProcKind::NumKinds);

const char* procName(ProcKind k);

/** How unit outputs are combined across cards. */
enum class AggKind : uint8_t
{
    None,          ///< outputs stay where they are produced
    BroadcastEach, ///< Fig. 2: every output broadcast to all nodes
    ReduceTree,    ///< partial sums reduced in a tree, then broadcast
};

/** One schedulable step of a model. */
struct Step
{
    ProcKind kind = ProcKind::ConvBN;
    std::string name;
    /** Independent parallel units (Table I); for Bootstrap: the number
     *  of ciphertexts to refresh. */
    size_t parallelism = 1;
    /** Ciphertext-level operations per unit (Table I right columns). */
    OpMix perUnit;
    /** Active modulus-chain limbs while this step runs. */
    size_t limbs = 12;
    /** Cross-card combination pattern. */
    AggKind agg = AggKind::BroadcastEach;
    /** Non-linear only: degree of the evaluated polynomial. */
    size_t polyDegree = 0;
    /**
     * Full-ciphertext work units per unit of Table-I parallelism.
     * Table I counts fine-grained application-level parallelism (e.g.
     * element copies inside a PCMM); one full-ciphertext rot+mult can
     * cover many of them (BSGS hoisting, slot packing).  Effective
     * scheduled units = max(1, parallelism * unitScale).
     */
    double unitScale = 1.0;
    /**
     * Output ciphertexts produced by the whole step.  Unit results are
     * multiplexed into these ([12]'s packing), so cross-card
     * aggregation moves outputCts ciphertexts, not one per unit.
     */
    size_t outputCts = 32;

    size_t
    effectiveUnits() const
    {
        double u = static_cast<double>(parallelism) * unitScale;
        return u < 1.0 ? 1 : static_cast<size_t>(u);
    }
};

/** Per-unit op mixes from Table I. */
OpMix convBnMix();
OpMix poolingMix();
OpMix fcMix();
OpMix pcmmMix();
OpMix ccmmMix();
OpMix nonLinearMix();

/// @name Step factories.
/// The building vocabulary of every model: each factory fixes one
/// procedure's op mix, working level, aggregation pattern and output
/// packing.  The model spec grammar below builds every layer through
/// these.
/// @{
Step makeConvStep(const std::string& name, size_t par,
                  double scale = 1.0, size_t out_cts = 32);
Step makeReluStep(const std::string& name, size_t par,
                  size_t out_cts = 32);
Step makePoolStep(const std::string& name, size_t par,
                  size_t out_cts = 16);
Step makeFcStep(const std::string& name, size_t par);
Step makeBootStep(const std::string& name, size_t count);
Step makePcmmStep(const std::string& name, size_t par, double scale);
Step makeCcmmStep(const std::string& name, size_t par, double scale);
Step makeNonLinStep(const std::string& name, size_t par,
                    size_t out_cts = 12);
Step makeNormStep(const std::string& name, size_t par);
/// @}

/** A full model: ordered steps plus CKKS geometry. */
struct WorkloadModel
{
    std::string name;
    /** log2 of the ciphertext slot count (Table V rows). */
    size_t logSlots = 15;
    /** Full modulus-chain length at the working parameters. */
    size_t maxLimbs = 24;
    std::vector<Step> steps;

    /** Total units of one procedure kind across all steps. */
    size_t totalUnits(ProcKind k) const;

    /** Min/max per-step parallelism of a kind (Table I's Min./Max.). */
    std::pair<size_t, size_t> parallelismRange(ProcKind k) const;

    size_t stepCount(ProcKind k) const;
};

/**
 * Parse declarative model spec text into a step list.
 *
 * A model spec is a newline- or comma-separated list of key=value
 * items ('#' starts a comment).  Header keys set the CKKS geometry;
 * layer keys append one layer each, in authoring order; a block
 * repeats its body COUNT times with an indexed name prefix:
 *
 *   model=NAME                      (required, the display name)
 *   slots=N                         (log2 slot count, default 15)
 *   limbs=N                         (modulus-chain length, default 24)
 *   conv=NAME:PAR[:SCALE[:CTS]]     (ConvBN;   scale 1, 32 cts)
 *   relu=NAME:PAR[:CTS]             (NonLinear ReLU;     32 cts)
 *   pool=NAME:PAR[:CTS]             (Pooling;            16 cts)
 *   fc=NAME:PAR                     (FC, tree-reduced to 1 ct)
 *   boot=NAME:CTS                   (Bootstrap of CTS ciphertexts)
 *   pcmm=NAME:PAR:SCALE             (plaintext-ciphertext matmul)
 *   ccmm=NAME:PAR:SCALE             (ciphertext-ciphertext matmul)
 *   nonlin=NAME:PAR[:CTS]           (NonLinear GeLU/Softmax; 12 cts)
 *   norm=NAME:PAR                   (LayerNorm)
 *   block=PREFIX:COUNT[:START]      (repeat body COUNT times; inner
 *   ...layer items...                layer names become
 *   end                              PREFIX<START+i><name>; no nesting)
 *
 * Every layer is built by the step factories above.  Follows the
 * ServeSpec::tryParse conventions: on malformed input it returns false
 * with a SpecError naming the offending token — no crash, no exit, no
 * silent default.  Graph-level checks (limbs vs maxLimbs, ...) are
 * tryParseModelGraph's (sched/graph/modelspec.hh).
 */
bool tryParseModelSpec(const std::string& text, WorkloadModel& out,
                       SpecError& err);

/// @name Model registry: the one name lookup.
/// Each name resolves to its checked-in spec text, parsed at most once
/// per process; lookups return a copy.  The CLIs, serving tenants, the
/// compile corpus and the benches all resolve through here.
/// @{
/** Registry names, in registry order: resnet18, resnet50, bert, opt,
 *  resnet20, mlp3. */
std::vector<std::string> modelSpecNames();

/** The registered spec text, or nullptr for an unknown name. */
const char* modelSpecText(const std::string& name);

/** Resolve `name`; false + a SpecError whose token is the name and
 *  whose message lists the registry on an unknown one. */
bool tryResolveWorkloadModel(const std::string& name, WorkloadModel& out,
                             SpecError& err);

/** CLI/engine-facing lookup: calls fatal() on an unknown name. */
WorkloadModel workloadByName(const std::string& name);

/** The paper's four benchmark models (Section V-A) in Table II's
 *  column order: ResNet-18, ResNet-50, BERT-base, OPT-6.7B. */
std::vector<WorkloadModel> allBenchmarks();
/// @}

} // namespace hydra

#endif // HYDRA_WORKLOADS_MODEL_HH
