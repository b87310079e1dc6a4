/**
 * @file
 * The unified compiled-execution-plan abstraction (DESIGN.md §16).
 *
 * An ExecPlan is the one executable artifact both execution worlds
 * compile to: an ordered sequence of ExecUnits, each carrying its
 * member steps and (when materialized) its compiled Program, plus the
 * plan's opt-level provenance.  There is one compile path: a
 * WorkloadModel is lifted to its chain NetworkGraph, and
 * partitionNetwork cuts the graph into units — one Single unit per
 * layer at OptLevel::None/Safe, possibly multi-layer Fused/Prefetch
 * units after the Aggressive cross-step passes.  Every unit compiles
 * through the ProgramCache under unitKey(), so a single-layer unit
 * shares its entry with every other plan holding the same step.
 *
 * Unit boundaries generalize step boundaries: everything downstream
 * that used to index steps (resumable first_step windows, cake's
 * preemption slices, federation's checkpointed failover, the
 * fault-free JobCache) indexes units of the tenant's plan instead.
 * The partition is a pure function of (workload content, network
 * kind) — NOT of the executing card count — so every card group of
 * one machine agrees on unit boundaries for a given (workload, level),
 * which is what makes unit indices meaningful across dispatch,
 * preemption and failover.
 *
 * A plan can be *materialized* (programs compiled up front, one
 * ProgramCache access per unit at build time) or a *skeleton*
 * (PlanWindow::none(): units without programs; drivers resolve them on
 * demand via cachedUnit, which is also the degraded re-dispatch path
 * where the executing cluster shrank under the plan).
 */

#ifndef HYDRA_SCHED_EXECPLAN_HH
#define HYDRA_SCHED_EXECPLAN_HH

#include <memory>
#include <string>
#include <vector>

#include "sched/graph/netcompile.hh"
#include "sched/runner.hh"

namespace hydra {

/** Which units of a plan get their programs materialized at
 *  compilePlan() time. */
struct PlanWindow
{
    static constexpr size_t npos = static_cast<size_t>(-1);

    size_t first = 0;
    size_t count = npos;

    /** Materialize every unit (ready for runPlan()). */
    static PlanWindow all() { return PlanWindow{}; }

    /** Materialize nothing — a skeleton plan (serving dispatch). */
    static PlanWindow none() { return PlanWindow{0, 0}; }
};

/** A compiled execution plan: the unit sequence plus provenance. */
struct ExecPlan
{
    std::string machine;
    std::string workload;
    /**
     * Window-independent plan identity: machine half + workload name
     * + every pre-pass step's content key + level.  Two plans share a
     * key iff they compile the same content for the same machine shape
     * at the same level — the serving layer's JobCache keys memoized
     * replays on (this, unit window, card signature).
     */
    std::string key;
    OptLevel level = OptLevel::Safe;
    /** Cluster shape the plan was compiled against (the machine, or a
     *  card group's sub-spec). */
    ClusterConfig cluster;
    size_t logSlots = 0;
    std::vector<ExecUnit> units;
    /** Cross-step pass statistics (empty below Aggressive). */
    NetOptReport report;

    size_t size() const { return units.size(); }
};

/** Compile `workload` for `spec`'s machine at `level`: the graph
 *  overload on NetworkGraph::fromModel(workload). */
ExecPlan compilePlan(const PrototypeSpec& spec, const OpCostModel& cost,
                     const NetworkModel& net,
                     const WorkloadModel& workload,
                     OptLevel level = OptLevel::Safe,
                     PlanWindow window = PlanWindow::all());

/**
 * Compile `graph` for `spec`'s machine at `level`.  The graph must be
 * validate()-clean (callers report the SpecError; a cyclic graph
 * fatals in partitionNetwork).
 */
ExecPlan compilePlan(const PrototypeSpec& spec, const OpCostModel& cost,
                     const NetworkModel& net, const NetworkGraph& graph,
                     OptLevel level = OptLevel::Safe,
                     PlanWindow window = PlanWindow::all());

/**
 * The number of units `workload` partitions into at `level` on
 * `spec`'s machine — the partition's size, computed without compiling
 * any Program.  Shape-invariant: card groups of the machine see the
 * same count.
 */
size_t planUnitCount(const PrototypeSpec& spec, const OpCostModel& cost,
                     const NetworkModel& net,
                     const WorkloadModel& workload, OptLevel level);

} // namespace hydra

#endif // HYDRA_SCHED_EXECPLAN_HH
