/**
 * @file
 * Whole-inference scheduler (paper Procedure 2): executes the units of
 * a compiled ExecPlan (sched/execplan.hh) in order and rolls up card
 * -> server -> task completion with the per-unit synchronization cost
 * of the machine's network.
 */

#ifndef HYDRA_SCHED_RUNNER_HH
#define HYDRA_SCHED_RUNNER_HH

#include <memory>
#include <string>
#include <vector>

#include "sched/mapping.hh"
#include "sched/passes.hh"
#include "sync/executor.hh"
#include "workloads/model.hh"

namespace hydra {

struct ExecPlan;

/** A named machine configuration (Hydra-S/M/L, FAB-*, Poseidon). */
struct PrototypeSpec
{
    enum class NetKind : uint8_t { Switched, HostMediated };

    std::string name;
    ClusterConfig cluster;
    FpgaParams fpga;
    /** Keyswitching digit count used by the cost model. */
    size_t dnum = 4;
    NetKind netKind = NetKind::Switched;
    NetParams net;
    HostNetParams hostNet;
    MappingConfig mapping;

    std::unique_ptr<NetworkModel> makeNetwork() const;
};

/**
 * A job-scoped subset of a machine's cards, identified by their
 * original (machine-global) indices.  The serving layer carves a
 * machine into disjoint groups and runs one inference job per group.
 */
struct CardGroup
{
    /** Original card indices, strictly ascending. */
    std::vector<size_t> cards;

    size_t size() const { return cards.size(); }

    /** Whether the group is a contiguous run of whole servers, so the
     *  machine's real topology applies inside it. */
    bool alignedTo(const ClusterConfig& cluster) const;

    /** Convenience: the contiguous group [base, base + count). */
    static CardGroup contiguous(size_t base, size_t count);
};

/**
 * The sub-machine a job confined to `group` sees: whole-server groups
 * keep the machine's switched/host topology; ragged groups are
 * modelled as a flat single-server cluster (the same substitution the
 * degraded re-dispatch path of PR 2 uses for survivors).
 */
PrototypeSpec groupSubSpec(const PrototypeSpec& spec,
                           const CardGroup& group);

/**
 * Project a machine-global fault plan onto the live cards of a job:
 * per-card entries (stragglers, kills) are re-keyed to local indices,
 * i.e. positions in `alive`; entries for other cards are dropped, and
 * kill ticks stay absolute.  The one projection both the executor and
 * the serving JobCache (serve/jobcache.hh) see.
 */
FaultPlan planForGroup(const FaultPlan& plan,
                       const std::vector<size_t>& alive);

/** Execution record of one step. */
struct StepResult
{
    std::string name;
    ProcKind kind = ProcKind::ConvBN;
    RunStats stats;
};

/** Execution record of a full inference. */
struct InferenceResult
{
    std::string machine;
    std::string workload;
    std::vector<StepResult> steps;
    RunStats total;
    /**
     * Checkpoint boundaries: offset from the run's start (in ticks) at
     * which each successfully completed step ended, in execution order
     * (sync latency included).  The serving layer uses these to resume
     * a job killed mid-run from its last completed step boundary via
     * runJob(plan, ..., first_unit) instead of restarting from unit 0.
     */
    std::vector<Tick> stepEnds;

    /** Cards (original indices) that failed permanently during the
     *  run; the affected steps were re-dispatched onto survivors. */
    std::vector<size_t> failedCards;
    /** Number of step re-dispatches triggered by card failures. */
    size_t redispatches = 0;
    /** Simulated time wasted in aborted step attempts (included in
     *  total.makespan): the makespan penalty of degraded execution. */
    Tick recoveryPenalty = 0;
    /** Terminal error when even the degraded path could not finish
     *  (retry budget exhausted, deadlock, all cards dead). */
    RunError error;

    bool ok() const { return error.ok(); }
    bool degraded() const { return !failedCards.empty(); }

    double seconds() const { return ticksToSeconds(total.makespan); }

    /** Summed makespan of all steps of one procedure kind. */
    Tick procTime(ProcKind k) const;

    /** Compute-floor (max per-card busy time) summed over those steps. */
    Tick procComputeFloor(ProcKind k) const;

    /** Fraction of a procedure's time attributable to communication. */
    double procCommFraction(ProcKind k) const;

    /** Whole-run communication-overhead fraction. */
    double commFraction() const;
};

/**
 * Runs workloads on one machine.
 *
 * Every execution path is a thin driver over an ExecPlan
 * (sched/execplan.hh) and one unit-execution loop on one clock.
 * compilePlan() is the one compile path (a WorkloadModel is lifted to
 * its chain NetworkGraph); run(), runPlan() and runJob() all feed plan
 * units through the same degraded-re-dispatch driver, whose executor
 * origin is the job's start tick plus the time elapsed, so fault-plan
 * kill ticks are absolute everywhere.  runFused() compiles the whole
 * workload as one preloaded unit.
 */
class InferenceRunner
{
  public:
    /**
     * @param spec machine description (copied; temporaries are safe)
     * @param ring_n CKKS ring dimension for the cost model
     */
    explicit InferenceRunner(PrototypeSpec spec,
                             size_t ring_n = size_t{1} << 16);

    /**
     * Run `workload` step by step on the whole machine from tick 0
     * (Procedure-2 robustness).  On a permanent card failure the
     * failed step is re-mapped onto the surviving cards (modelled as a
     * flat single-switch cluster) and re-run; the wasted attempt time
     * is charged to the makespan and reported as
     * InferenceResult::recoveryPenalty.  Unrecoverable failures
     * (exhausted retry budget, deadlock, no survivors left) terminate
     * the run with InferenceResult::error set — never abort.  Equal to
     * runJob(compilePlan(workload), all cards, 0, faults, retry).
     */
    InferenceResult run(const WorkloadModel& workload,
                        const FaultPlan& faults = {},
                        const RetryPolicy& retry = {}) const;

    /**
     * Compile `workload` into a skeleton ExecPlan for `group`'s
     * sub-machine (units only; programs resolve on demand at
     * execution, so repeated jobs over one shared plan hit the
     * ProgramCache per executed unit — the serving layer's reuse).
     */
    std::shared_ptr<const ExecPlan>
    planForJob(const WorkloadModel& workload, const CardGroup& group,
               OptLevel level = OptLevel::Safe) const;

    /**
     * The number of units `workload` partitions into at `level` on
     * this machine, without compiling any Program.  The Aggressive
     * partition is shape-invariant (it does not depend on the
     * executing card count), so this count also holds for every card
     * group's plan — resumable unit indices (preemption slices,
     * checkpointed failover) stay meaningful across groups.
     */
    size_t planUnitCount(const WorkloadModel& workload,
                         OptLevel level = OptLevel::Safe) const;

    /**
     * Execute units [first_unit, first_unit + num_units) of a
     * machine-scoped plan on the whole machine from tick 0, fault-free.
     * Skeleton units resolve their Program through the ProgramCache.
     */
    InferenceResult
    runPlan(const ExecPlan& plan, size_t first_unit = 0,
            size_t num_units = static_cast<size_t>(-1)) const;

    /**
     * Job-scoped, resumable execution for the serving layer: run units
     * [first_unit, first_unit + num_units) of `plan` confined to
     * `group`'s cards, starting at absolute virtual time `start_tick`
     * on a shared clock (the executor's time origin).  `plan` should
     * come from planForJob() with the same group (any plan whose
     * cluster shape differs from the group's sub-machine is
     * recompiled per unit via the cache).
     *
     * Fault-plan card indices are machine-global (entries for cards
     * outside the group are ignored) and cardFailAt ticks are absolute
     * serve-clock times — no caller-side shifting.  On a permanent
     * card failure inside the group the failed unit is re-dispatched
     * onto the group's survivors exactly like run(faults); the
     * result's failedCards and a terminal error's card report original
     * machine indices.
     *
     * The returned total.makespan is the job's duration, i.e. the job
     * ends at start_tick + total.makespan.
     */
    InferenceResult
    runJob(const ExecPlan& plan, const CardGroup& group, Tick start_tick,
           const FaultPlan& faults = {}, const RetryPolicy& retry = {},
           size_t first_unit = 0,
           size_t num_units = static_cast<size_t>(-1)) const;

    /**
     * Fused execution: all steps preloaded into the card queues as one
     * program (paper Section IV-D), removing per-step barriers -- a
     * card may start the next step while its peers drain the current
     * one.  Fused queues cannot be re-dispatched mid-stream, so a
     * permanent card failure surfaces as a structured error instead
     * of degrading.  Returns the single merged run.
     */
    RunResult runFused(const WorkloadModel& workload,
                       const FaultPlan& faults = {},
                       const RetryPolicy& retry = {}) const;

    const OpCostModel& costModel() const { return cost_; }
    const NetworkModel& network() const { return *net_; }
    const PrototypeSpec& spec() const { return spec_; }

  private:
    /**
     * The one execution driver: run plan units
     * [first_unit, first_unit + num_units) on the cards in `alive`
     * (original machine indices) under `sub`'s topology, re-dispatching
     * onto survivors after permanent card failures.  The executor's
     * origin tracks start_tick + elapsed, so kill ticks are absolute.
     */
    InferenceResult
    execFaulted(const PrototypeSpec& sub, const NetworkModel& net,
                const ExecPlan& plan, const std::vector<size_t>& cards,
                Tick start_tick, const FaultPlan& faults,
                const RetryPolicy& retry, size_t first_unit,
                size_t num_units) const;

    PrototypeSpec spec_;
    OpCostModel cost_;
    std::unique_ptr<NetworkModel> net_;
};

} // namespace hydra

#endif // HYDRA_SCHED_RUNNER_HH
