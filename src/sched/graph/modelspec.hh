/**
 * @file
 * Declarative model frontend, graph side: model spec text or a
 * registry name in, validated NetworkGraph out.
 *
 * The spec grammar and the model registry live in workloads/model.hh
 * (tryParseModelSpec, modelSpecNames, tryResolveWorkloadModel); these
 * entry points add NetworkGraph::fromModel and the graph's structural
 * validation (limbs vs maxLimbs etc.) on top, reporting through the
 * same SpecError channel — no crash, no exit, no silent default.
 */

#ifndef HYDRA_SCHED_GRAPH_MODELSPEC_HH
#define HYDRA_SCHED_GRAPH_MODELSPEC_HH

#include <string>

#include "sched/graph/graph.hh"

namespace hydra {

/** Library-facing parse: fill `out` or fail with a named token. */
bool tryParseModelGraph(const std::string& text, NetworkGraph& out,
                        SpecError& err);

/** CLI-facing parse: calls fatal() on malformed input. */
NetworkGraph parseModelGraph(const std::string& text);

/** The registry model `name` as a graph; false + the registry's
 *  unknown-name error (listing every name) on an unknown one. */
bool tryModelGraphByName(const std::string& name, NetworkGraph& out,
                         SpecError& err);

/** CLI-facing registry lookup: calls fatal() on an unknown name. */
NetworkGraph modelGraphByName(const std::string& name);

} // namespace hydra

#endif // HYDRA_SCHED_GRAPH_MODELSPEC_HH
