#include "sched/execplan.hh"

#include <algorithm>

#include "common/logging.hh"

namespace hydra {

namespace {

/** Window-independent plan identity (see ExecPlan::key). */
std::string
planKey(const PrototypeSpec& spec, const OpCostModel& cost,
        size_t log_slots, const std::string& name,
        const std::vector<const Step*>& pre_pass, OptLevel level)
{
    std::string key = machineCacheKey(spec, spec.cluster, spec.cluster,
                                      cost.n(), log_slots, level);
    key += "|w=" + name;
    for (const Step* s : pre_pass)
        key += stepContentKey(*s);
    return key;
}

/** Materialize programs for the windowed units of `plan`. */
void
materialize(ExecPlan& plan, const PrototypeSpec& spec,
            const OpCostModel& cost, const NetworkModel& net,
            PlanWindow window)
{
    size_t end = plan.units.size();
    size_t first = std::min(window.first, end);
    if (window.count < end - first)
        end = first + window.count;
    for (size_t i = first; i < end; ++i)
        plan.units[i].compiled =
            cachedUnit(spec, plan.cluster, plan.cluster, cost, net,
                       plan.logSlots, plan.units[i].steps, plan.level);
}

} // namespace

ExecPlan
compilePlan(const PrototypeSpec& spec, const OpCostModel& cost,
            const NetworkModel& net, const WorkloadModel& workload,
            OptLevel level, PlanWindow window)
{
    return compilePlan(spec, cost, net, NetworkGraph::fromModel(workload),
                       level, window);
}

ExecPlan
compilePlan(const PrototypeSpec& spec, const OpCostModel& cost,
            const NetworkModel& net, const NetworkGraph& graph,
            OptLevel level, PlanWindow window)
{
    ExecPlan plan;
    plan.machine = spec.name;
    plan.workload = graph.name;
    plan.level = level;
    plan.cluster = spec.cluster;
    plan.logSlots = graph.logSlots;

    // Identity over the PRE-pass content: the passes are deterministic
    // functions of it, so post-pass rewrites need not enter the key.
    std::vector<uint32_t> order;
    SpecError err;
    if (!graph.topoOrder(order, err))
        fatal("compilePlan on an invalid graph: %s",
              err.describe().c_str());
    std::vector<const Step*> pre;
    pre.reserve(order.size());
    for (uint32_t id : order)
        pre.push_back(&graph.nodes[id].step);
    plan.key =
        planKey(spec, cost, graph.logSlots, graph.name, pre, level);

    plan.units = partitionNetwork(spec, cost, net, graph, order, level,
                                  plan.report);
    materialize(plan, spec, cost, net, window);
    return plan;
}

size_t
planUnitCount(const PrototypeSpec& spec, const OpCostModel& cost,
              const NetworkModel& net, const WorkloadModel& workload,
              OptLevel level)
{
    NetworkGraph graph = NetworkGraph::fromModel(workload);
    std::vector<uint32_t> order;
    SpecError err;
    if (!graph.topoOrder(order, err))
        fatal("planUnitCount on an invalid graph: %s",
              err.describe().c_str());
    NetOptReport report;
    return partitionNetwork(spec, cost, net, graph, order, level, report)
        .size();
}

} // namespace hydra
