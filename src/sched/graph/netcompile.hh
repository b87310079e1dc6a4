/**
 * @file
 * Network-level partition: cross-step passes over a NetworkGraph that
 * cut it into ExecUnits, each compiled later by the unit compiler
 * (sched/progcache.hh) — DESIGN.md §15.
 *
 * At OptLevel::None and Safe the partition is a pure chain walker: one
 * Single unit per layer, in topological order.  OptLevel::Aggressive
 * enables the cross-step passes:
 *
 *  - boot-plan: the paper's Eq. 1 level model generalized across
 *    steps.  Walks the chain tracking the modulus level from maxLimbs
 *    down, merges adjacent bootstraps, elides a bootstrap whenever the
 *    remaining level covers the depth to the next refresh, and
 *    re-levels each surviving layer to the tracked level (running an
 *    op at its true level instead of the hand-calibrated average —
 *    rescale placement).
 *  - fuse-linear: maximal runs of adjacent ConvBN/Pooling layers
 *    (with a terminal FC allowed) plan into ONE Program; intermediate
 *    broadcasts are elided (outputs stay card-local, consumed by the
 *    next layer's co-resident units), and the per-step sync barrier
 *    between members disappears.
 *  - prefetch: on networks whose DTU overlaps compute, up to
 *    kPrefetchWindow consecutive units merge into one preloaded
 *    Program, so unit N+1's broadcasts sit in the comm queues behind
 *    unit N's compute and transfers hide under it (the Section IV-D
 *    fused mode, applied in bounded windows).  Bootstrap boundaries
 *    stay barriers.  InferenceRunner::runFused is the unbounded case:
 *    the whole workload as one unit at OptLevel::None.
 *
 * The partition is a pure function of the graph content and the
 * machine's network kind — it does NOT depend on the executing card
 * count, so every card group of one machine sees the same unit
 * boundaries for a given (workload, level) pair (the serving layer's
 * resumable unit indices rely on this).
 */

#ifndef HYDRA_SCHED_GRAPH_NETCOMPILE_HH
#define HYDRA_SCHED_GRAPH_NETCOMPILE_HH

#include <memory>
#include <string>
#include <vector>

#include "sched/graph/graph.hh"
#include "sched/progcache.hh"

namespace hydra {

/** Max units one prefetch window merges into a single Program. */
constexpr size_t kPrefetchWindow = 4;

/** One schedulable unit of an ExecPlan (sched/execplan.hh): one or
 *  more layers executing as a single Program (no internal sync
 *  barrier, one checkpoint boundary at the end). */
struct ExecUnit
{
    enum class Kind : uint8_t
    {
        Single,   ///< one layer
        Fused,    ///< fuse-linear group (intermediate broadcasts gone)
        Prefetch, ///< prefetch window (transfers hide under compute)
    };

    Kind kind = Kind::Single;
    /** Display name: the single layer, or "first..last". */
    std::string name;
    /** Procedure kind of the leading layer (roll-up display). */
    ProcKind lead = ProcKind::ConvBN;
    /** Member steps in execution order (post-pass content).  Carried
     *  by value so a shrunken cluster can recompile the unit without
     *  the original workload/graph in hand. */
    std::vector<Step> steps;
    /** Compiled program; null in skeleton plans (resolved on demand
     *  through cachedUnit). */
    std::shared_ptr<const CompiledStep> compiled;
};

/** Cross-step pass statistics. */
struct NetOptReport
{
    OptLevel level = OptLevel::None;
    /** Bootstraps removed by the Eq. 1 level walk. */
    uint64_t bootsElided = 0;
    /** Adjacent bootstrap pairs collapsed into one refresh. */
    uint64_t bootsMerged = 0;
    /** Layers whose working level was lowered to the tracked level. */
    uint64_t relevelled = 0;
    /** Layers folded into fuse-linear groups. */
    uint64_t fusedSteps = 0;
    /** Unit boundaries removed by prefetch windows. */
    uint64_t prefetchedBoundaries = 0;
    /** Eq. 1-modeled single-card cost of the elided bootstraps. */
    Tick modeledBootSavings = 0;

    uint64_t
    totalChanges() const
    {
        return bootsElided + bootsMerged + relevelled + fusedSteps +
               prefetchedBoundaries;
    }

    /** One-line human summary. */
    std::string describe() const;
};

/** Run the cross-step passes over `graph`'s layers in `order` (its
 *  topoOrder()) and cut the post-pass step list into units, without
 *  compiling any Program; `report` receives the pass statistics. */
std::vector<ExecUnit> partitionNetwork(const PrototypeSpec& spec,
                                       const OpCostModel& cost,
                                       const NetworkModel& net,
                                       const NetworkGraph& graph,
                                       const std::vector<uint32_t>& order,
                                       OptLevel level,
                                       NetOptReport& report);

} // namespace hydra

#endif // HYDRA_SCHED_GRAPH_NETCOMPILE_HH
