#include "sched/graph/modelspec.hh"

#include "common/logging.hh"

namespace hydra {

namespace {

/** Lift `model` into a chain graph and validate it; `out` is only
 *  written on success. */
bool
liftValidated(const WorkloadModel& model, NetworkGraph& out,
              SpecError& err)
{
    NetworkGraph g = NetworkGraph::fromModel(model);
    if (!g.validate(err))
        return false;
    out = std::move(g);
    return true;
}

} // namespace

bool
tryParseModelGraph(const std::string& text, NetworkGraph& out,
                   SpecError& err)
{
    WorkloadModel model;
    return tryParseModelSpec(text, model, err) &&
           liftValidated(model, out, err);
}

NetworkGraph
parseModelGraph(const std::string& text)
{
    NetworkGraph g;
    SpecError err;
    if (!tryParseModelGraph(text, g, err))
        fatal("bad model spec: %s", err.describe().c_str());
    return g;
}

bool
tryModelGraphByName(const std::string& name, NetworkGraph& out,
                    SpecError& err)
{
    WorkloadModel model;
    return tryResolveWorkloadModel(name, model, err) &&
           liftValidated(model, out, err);
}

NetworkGraph
modelGraphByName(const std::string& name)
{
    NetworkGraph g;
    SpecError err;
    if (!tryModelGraphByName(name, g, err))
        fatal("bad model '%s': %s", name.c_str(),
              err.describe().c_str());
    return g;
}

} // namespace hydra
