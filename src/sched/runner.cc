#include "sched/runner.hh"

#include <algorithm>
#include <memory>

#include "common/logging.hh"
#include "sched/execplan.hh"
#include "sched/progcache.hh"

namespace hydra {

std::unique_ptr<NetworkModel>
PrototypeSpec::makeNetwork() const
{
    if (netKind == NetKind::Switched)
        return std::make_unique<SwitchedNetwork>(net, cluster);
    return std::make_unique<HostMediatedNetwork>(hostNet, cluster);
}

bool
CardGroup::alignedTo(const ClusterConfig& cluster) const
{
    if (cards.empty())
        return false;
    for (size_t i = 1; i < cards.size(); ++i)
        if (cards[i] != cards[i - 1] + 1)
            return false;
    return cards.front() % cluster.cardsPerServer == 0 &&
           cards.size() % cluster.cardsPerServer == 0;
}

CardGroup
CardGroup::contiguous(size_t base, size_t count)
{
    CardGroup g;
    g.cards.resize(count);
    for (size_t i = 0; i < count; ++i)
        g.cards[i] = base + i;
    return g;
}

PrototypeSpec
groupSubSpec(const PrototypeSpec& spec, const CardGroup& group)
{
    PrototypeSpec sub = spec;
    if (group.alignedTo(spec.cluster))
        sub.cluster =
            ClusterConfig{group.size() / spec.cluster.cardsPerServer,
                          spec.cluster.cardsPerServer};
    else
        // Ragged groups lose the server structure: model them as one
        // switch, like the degraded-survivors path.
        sub.cluster = ClusterConfig{1, group.size()};
    return sub;
}

Tick
InferenceResult::procTime(ProcKind k) const
{
    Tick sum = 0;
    for (const auto& s : steps)
        if (s.kind == k)
            sum += s.stats.makespan;
    return sum;
}

Tick
InferenceResult::procComputeFloor(ProcKind k) const
{
    Tick sum = 0;
    for (const auto& s : steps)
        if (s.kind == k)
            sum += s.stats.maxComputeBusy();
    return sum;
}

double
InferenceResult::procCommFraction(ProcKind k) const
{
    Tick t = procTime(k);
    if (t == 0)
        return 0.0;
    return static_cast<double>(t - procComputeFloor(k)) /
           static_cast<double>(t);
}

double
InferenceResult::commFraction() const
{
    if (total.makespan == 0)
        return 0.0;
    Tick floor = 0;
    for (const auto& s : steps)
        floor += s.stats.maxComputeBusy();
    return static_cast<double>(total.makespan - floor) /
           static_cast<double>(total.makespan);
}

InferenceRunner::InferenceRunner(PrototypeSpec spec, size_t ring_n)
    : spec_(std::move(spec)),
      cost_(spec_.fpga, ring_n, spec_.dnum),
      net_(spec_.makeNetwork())
{
}

std::shared_ptr<const ExecPlan>
InferenceRunner::planForJob(const WorkloadModel& workload,
                            const CardGroup& group, OptLevel level) const
{
    PrototypeSpec sub = groupSubSpec(spec_, group);
    std::unique_ptr<NetworkModel> net = sub.makeNetwork();
    return std::make_shared<ExecPlan>(compilePlan(
        sub, cost_, *net, workload, level, PlanWindow::none()));
}

size_t
InferenceRunner::planUnitCount(const WorkloadModel& workload,
                               OptLevel level) const
{
    return hydra::planUnitCount(spec_, cost_, *net_, workload, level);
}

FaultPlan
planForGroup(const FaultPlan& plan, const std::vector<size_t>& alive)
{
    FaultPlan out = plan;
    out.stragglers.clear();
    out.cardFailAt.clear();
    for (size_t i = 0; i < alive.size(); ++i) {
        auto s = plan.stragglers.find(alive[i]);
        if (s != plan.stragglers.end())
            out.stragglers[i] = s->second;
        auto k = plan.cardFailAt.find(alive[i]);
        if (k != plan.cardFailAt.end())
            out.cardFailAt[i] = k->second;
    }
    return out;
}

InferenceResult
InferenceRunner::execFaulted(const PrototypeSpec& sub,
                             const NetworkModel& net,
                             const ExecPlan& plan,
                             const std::vector<size_t>& cards,
                             Tick start_tick, const FaultPlan& faults,
                             const RetryPolicy& retry, size_t first_unit,
                             size_t num_units) const
{
    InferenceResult result;
    result.machine = spec_.name;
    result.workload = plan.workload;

    // alive[i] = original machine index of the card locally mapped
    // as i.
    std::vector<size_t> alive = cards;
    ClusterConfig cluster = sub.cluster;
    std::unique_ptr<ClusterExecutor> executor;
    // Kill ticks are absolute, so the machine-global plan is projected
    // onto the live cards once per executor, never shifted per unit.
    auto buildExecutor = [&] {
        executor = std::make_unique<ClusterExecutor>(cluster, net);
        executor->setRetryPolicy(retry);
        executor->setFaultPlan(planForGroup(faults, alive));
    };
    buildExecutor();
    // Materialized programs are only valid while the executing cluster
    // matches the plan's shape; after a death (or a shape mismatch)
    // every attempt resolves through the ProgramCache.
    bool planShape =
        sub.cluster.servers == plan.cluster.servers &&
        sub.cluster.cardsPerServer == plan.cluster.cardsPerServer;
    bool degraded = false;

    size_t end = plan.units.size();
    first_unit = std::min(first_unit, end);
    if (num_units < end - first_unit)
        end = first_unit + num_units;

    for (size_t ui = first_unit; ui < end; ++ui) {
        const ExecUnit& u = plan.units[ui];
        for (;;) {
            // Each unit starts where the job has advanced to.
            executor->setTimeOrigin(start_tick + result.total.makespan);

            // The compiled program is fault-independent: only the
            // executor's fault plan differs between attempts, so the
            // cache stays valid across retries and re-dispatches.
            auto compiled =
                (!degraded && planShape && u.compiled)
                    ? u.compiled
                    : cachedUnit(sub, cluster, sub.cluster, cost_, net,
                                 plan.logSlots, u.steps, plan.level);
            RunResult rr = executor->tryRun(compiled->program);
            if (rr.ok()) {
                result.total.append(rr.stats, net.stepSyncLatency());
                result.steps.push_back(
                    StepResult{u.name, u.lead, rr.stats});
                result.stepEnds.push_back(result.total.makespan);
                break;
            }
            if (rr.error.kind != RunError::Kind::CardFailed) {
                // Exhausted retries / deadlock: unrecoverable.
                result.error = std::move(rr.error);
                if (result.error.kind == RunError::Kind::TransferFailed) {
                    // The executor names its local sender; report the
                    // machine card.
                    size_t local = result.error.card;
                    result.error.card = alive[local];
                    std::string from = strf(" from card %zu ", local);
                    size_t at = result.error.message.find(from);
                    if (at != std::string::npos)
                        result.error.message.replace(
                            at, from.size(),
                            strf(" from card %zu ", alive[local]));
                }
                return result;
            }

            // Permanent card failure: charge the aborted attempt,
            // shrink the cluster, and re-dispatch this unit onto the
            // survivors (modelled as a flat single-switch cluster).
            size_t dead = rr.error.card;
            result.recoveryPenalty += rr.stats.makespan;
            result.total.append(rr.stats, 0);
            result.failedCards.push_back(alive[dead]);
            ++result.redispatches;
            if (alive.size() == 1) {
                // The executor names its local index; report the
                // machine card.
                result.error = std::move(rr.error);
                result.error.card = alive[dead];
                result.error.message =
                    strf("card %zu failed permanently at %.6f s (no "
                         "surviving cards left)",
                         alive[dead], ticksToSeconds(result.error.tick));
                return result;
            }
            alive.erase(alive.begin() + dead);
            cluster = ClusterConfig{1, alive.size()};
            degraded = true;
            buildExecutor();
        }
    }
    return result;
}

namespace {

/** The whole machine as a card list [0, cards). */
std::vector<size_t>
allCards(const ClusterConfig& cluster)
{
    return CardGroup::contiguous(0, cluster.totalCards()).cards;
}

} // namespace

InferenceResult
InferenceRunner::run(const WorkloadModel& workload,
                     const FaultPlan& faults,
                     const RetryPolicy& retry) const
{
    ExecPlan plan = compilePlan(spec_, cost_, *net_, workload,
                                OptLevel::Safe, PlanWindow::none());
    return execFaulted(spec_, *net_, plan, allCards(spec_.cluster), 0,
                       faults, retry, 0, static_cast<size_t>(-1));
}

InferenceResult
InferenceRunner::runPlan(const ExecPlan& plan, size_t first_unit,
                         size_t num_units) const
{
    return execFaulted(spec_, *net_, plan, allCards(spec_.cluster), 0,
                       {}, {}, first_unit, num_units);
}

InferenceResult
InferenceRunner::runJob(const ExecPlan& plan, const CardGroup& group,
                        Tick start_tick, const FaultPlan& faults,
                        const RetryPolicy& retry, size_t first_unit,
                        size_t num_units) const
{
    if (group.cards.empty()) {
        InferenceResult result;
        result.machine = spec_.name;
        result.workload = plan.workload;
        result.error.kind = RunError::Kind::InvalidProgram;
        result.error.message = "runJob: empty card group";
        return result;
    }
    PrototypeSpec sub = groupSubSpec(spec_, group);
    std::unique_ptr<NetworkModel> net = sub.makeNetwork();
    return execFaulted(sub, *net, plan, group.cards, start_tick, faults,
                       retry, first_unit, num_units);
}

RunResult
InferenceRunner::runFused(const WorkloadModel& workload,
                          const FaultPlan& faults,
                          const RetryPolicy& retry) const
{
    // One preloaded program holding every step: the whole workload as
    // one unit, with no optimizer passes.
    auto compiled =
        cachedUnit(spec_, spec_.cluster, spec_.cluster, cost_, *net_,
                   workload.logSlots, workload.steps, OptLevel::None);
    ClusterExecutor executor(spec_.cluster, *net_);
    executor.setFaultPlan(faults);
    executor.setRetryPolicy(retry);
    return executor.tryRun(compiled->program);
}

} // namespace hydra
