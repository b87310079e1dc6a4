/**
 * @file
 * Google-benchmark harness for the schedule compiler (map+price ->
 * optimize -> cache): per-stage wall time over a whole workload's
 * steps, plus the ProgramCache's cold/warm cost split.  Counters
 * export compiled-program shape (tasks, messages) and cache hit rate,
 * so `--json` snapshots (BENCH_compile.json) track compilation cost
 * and reuse across PRs.
 *
 * Cases:
 *   BM_Map/<m>-<wl>       StepMapper straight to a priced Program;
 *                         counters export tasks and effective_cores
 *   BM_Optimize/<m>-<wl>  optimizeProgram at Aggressive (all passes)
 *   BM_CompileCold        full pipeline, cache cleared every iteration
 *                         (counters include effective_cores)
 *   BM_CompileWarm        full pipeline through a warm ProgramCache
 *   BM_CompileEvict       warm pipeline under a tiny LRU cap: every
 *                         compile misses and evicts (thrash cost)
 *   BM_GraphCompile/<wl>  network compiler over a registry model at
 *                         Aggressive (cross-step passes + unit compile)
 *   BM_NetMakespan/<wl>   graph runner end to end; counters export the
 *                         Safe vs Aggressive makespans (the cross-step
 *                         passes' modeled win, tracked across PRs)
 *   BM_ExecuteUnits<m>    the Procedure-1 executor alone: the
 *                         precompiled Safe resnet50 unit programs run
 *                         through ClusterExecutor::tryRun; counters
 *                         export tasks, ns_per_task and effective_cores
 *                         (process CPU time over wall time)
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <span>
#include <vector>

#include "baselines/prototypes.hh"
#include "bench_util.hh"
#include "sched/execplan.hh"
#include "sched/graph/modelspec.hh"
#include "sched/progcache.hh"

namespace hydra {
namespace {

using bench::CoreMeter;

/** Everything a compile bench needs for one (machine, workload). */
struct CompileSetup
{
    PrototypeSpec spec;
    WorkloadModel wl;
    OpCostModel cost;
    std::unique_ptr<NetworkModel> net;

    CompileSetup(PrototypeSpec s, const char* workload)
        : spec(std::move(s)), wl(workloadByName(workload)),
          cost(spec.fpga, size_t{1} << 16, spec.dnum),
          net(spec.makeNetwork())
    {
    }

    /** One step as a unit, uncached, at `level`. */
    Program
    compile(const Step& step, OptLevel level) const
    {
        return compileUnit(cost, *net, spec.cluster.totalCards(),
                           wl.logSlots, spec.mapping, {&step, 1}, level)
            .program;
    }
};

void
BM_Map(benchmark::State& state, const char* machine, const char* workload)
{
    CompileSetup s(machineByName(machine), workload);
    size_t cards = s.spec.cluster.totalCards();
    StepMapper mapper(s.cost, *s.net, cards, s.wl.logSlots,
                      s.spec.mapping);
    uint64_t tasks = 0;
    CoreMeter meter;
    for (auto _ : state) {
        tasks = 0;
        for (const auto& step : s.wl.steps) {
            ProgramBuilder pb(cards);
            mapper.mapStep(pb, step);
            Program prog = pb.take();
            tasks += countProgram(prog).computeTasks;
            benchmark::DoNotOptimize(prog.cards.data());
        }
    }
    state.counters["steps"] = static_cast<double>(s.wl.steps.size());
    state.counters["compute_tasks"] = static_cast<double>(tasks);
    state.counters["effective_cores"] = meter.effectiveCores();
}

void
BM_Optimize(benchmark::State& state, const char* machine,
            const char* workload)
{
    CompileSetup s(machineByName(machine), workload);
    std::vector<Program> programs;
    for (const auto& step : s.wl.steps)
        programs.push_back(s.compile(step, OptLevel::None));
    uint64_t changes = 0;
    for (auto _ : state) {
        changes = 0;
        for (const auto& prog : programs) {
            OptReport report;
            Program opt = optimizeProgram(prog, OptLevel::Aggressive,
                                          s.net->overlapsCompute(),
                                          &report);
            changes += report.totalChanges();
            benchmark::DoNotOptimize(opt.cards);
        }
    }
    state.counters["pass_changes"] = static_cast<double>(changes);
}

/** One step's ProgramCache access, as every plan makes it. */
std::shared_ptr<const CompiledStep>
cachedStep(ProgramCache& cache, const CompileSetup& s, const Step& step)
{
    std::span<const Step> unit(&step, 1);
    return cache.getOrCompile(
        unitKey(s.spec, s.spec.cluster, s.spec.cluster, s.cost.n(),
                s.wl.logSlots, unit),
        [&] {
            return compileUnit(s.cost, *s.net, s.spec.cluster.totalCards(),
                               s.wl.logSlots, s.spec.mapping, unit);
        });
}

/** Full pipeline through the cache; `warm` keeps entries across
 *  iterations (steady-state serving), cold clears them (first job). */
void
compileCached(benchmark::State& state, const char* machine,
              const char* workload, bool warm)
{
    CompileSetup s(machineByName(machine), workload);
    ProgramCache& cache = ProgramCache::global();
    auto compileAll = [&] {
        for (const auto& step : s.wl.steps)
            benchmark::DoNotOptimize(cachedStep(cache, s, step).get());
    };
    if (warm)
        compileAll();
    ProgramCache::Stats before = cache.stats();
    CoreMeter meter;
    for (auto _ : state) {
        if (!warm) {
            state.PauseTiming();
            cache.clear();
            state.ResumeTiming();
        }
        compileAll();
    }
    ProgramCache::Stats after = cache.stats();
    uint64_t hits = after.hits - before.hits;
    uint64_t misses = after.misses - before.misses;
    state.counters["cache_hits"] = static_cast<double>(hits);
    state.counters["cache_misses"] = static_cast<double>(misses);
    state.counters["cache_hit_rate"] =
        hits + misses ? static_cast<double>(hits) /
                            static_cast<double>(hits + misses)
                      : 0.0;
    state.counters["cache_evictions"] =
        static_cast<double>(after.evictions - before.evictions);
    state.counters["effective_cores"] = meter.effectiveCores();
}

/** Warm-style loop under an LRU cap smaller than the working set:
 *  every compile misses and evicts — the cache-thrash floor. */
void
BM_CompileEvict(benchmark::State& state)
{
    CompileSetup s(machineByName("hydra-m"), "resnet18");
    ProgramCache cache; // local: don't poison the global cache
    cache.setCapacity(2);
    for (auto _ : state)
        for (const auto& step : s.wl.steps)
            benchmark::DoNotOptimize(cachedStep(cache, s, step).get());
    ProgramCache::Stats st = cache.stats();
    state.counters["cache_evictions"] = static_cast<double>(st.evictions);
    state.counters["cache_hit_rate"] = st.hitRate();
}
BENCHMARK(BM_CompileEvict)->Unit(benchmark::kMicrosecond);

/** Network compiler over a declarative registry model: cross-step
 *  passes plus per-unit compilation (cache cleared per iteration). */
void
BM_GraphCompile(benchmark::State& state, const char* machine,
                const char* model)
{
    PrototypeSpec spec = machineByName(machine);
    OpCostModel cost(spec.fpga, size_t{1} << 16, spec.dnum);
    std::unique_ptr<NetworkModel> net = spec.makeNetwork();
    NetworkGraph graph = modelGraphByName(model);
    uint64_t units = 0, changes = 0;
    for (auto _ : state) {
        state.PauseTiming();
        ProgramCache::global().clear();
        state.ResumeTiming();
        ExecPlan plan =
            compilePlan(spec, cost, *net, graph, OptLevel::Aggressive);
        units = plan.size();
        changes = plan.report.totalChanges();
        benchmark::DoNotOptimize(plan.units.data());
    }
    state.counters["layers"] = static_cast<double>(graph.nodes.size());
    state.counters["units"] = static_cast<double>(units);
    state.counters["pass_changes"] = static_cast<double>(changes);
}

/** Graph runner end to end; exports the Safe and Aggressive makespans
 *  so BENCH_compile.json records the cross-step passes' win. */
void
BM_NetMakespan(benchmark::State& state, const char* machine,
               const char* model)
{
    InferenceRunner runner(machineByName(machine));
    NetworkGraph graph = modelGraphByName(model);
    auto makespan = [&](OptLevel level) {
        return runner
            .runPlan(compilePlan(runner.spec(), runner.costModel(),
                                 runner.network(), graph, level))
            .total.makespan;
    };
    Tick safe = 0, aggressive = 0;
    for (auto _ : state) {
        safe = makespan(OptLevel::Safe);
        aggressive = makespan(OptLevel::Aggressive);
        benchmark::DoNotOptimize(safe);
        benchmark::DoNotOptimize(aggressive);
    }
    state.counters["makespan_safe_s"] = ticksToSeconds(safe);
    state.counters["makespan_aggressive_s"] = ticksToSeconds(aggressive);
    state.counters["speedup"] =
        aggressive ? static_cast<double>(safe) /
                         static_cast<double>(aggressive)
                   : 0.0;
}

/** Executor host time per task over one machine's precompiled Safe
 *  resnet50 plan (compile cost excluded). */
void
BM_ExecuteUnits(benchmark::State& state, const char* machine)
{
    InferenceRunner runner(machineByName(machine));
    ExecPlan plan = compilePlan(runner.spec(), runner.costModel(),
                                runner.network(),
                                modelGraphByName("resnet50"),
                                OptLevel::Safe);
    ClusterExecutor ex(runner.spec().cluster, runner.network());
    uint64_t tasks = 0;
    for (const ExecUnit& u : plan.units)
        for (const CardProgram& c : u.compiled->program.cards)
            tasks += c.compute.size() + c.comm.size();
    CoreMeter meter;
    for (auto _ : state) {
        for (const ExecUnit& u : plan.units) {
            RunResult rr = ex.tryRun(u.compiled->program);
            if (!rr.ok())
                state.SkipWithError(rr.error.message.c_str());
            benchmark::DoNotOptimize(rr.stats.makespan);
        }
    }
    double wall = meter.wallSeconds();
    double runs = static_cast<double>(state.iterations());
    state.counters["tasks"] = static_cast<double>(tasks);
    state.counters["ns_per_task"] =
        tasks && runs ? wall * 1e9 / (runs * static_cast<double>(tasks))
                      : 0.0;
    state.counters["effective_cores"] = meter.effectiveCores();
}

void
BM_MapM(benchmark::State& state)
{
    BM_Map(state, "hydra-m", "resnet18");
}
BENCHMARK(BM_MapM)->Unit(benchmark::kMicrosecond);

void
BM_MapFabM(benchmark::State& state)
{
    BM_Map(state, "fab-m", "resnet18");
}
BENCHMARK(BM_MapFabM)->Unit(benchmark::kMicrosecond);

void
BM_OptimizeM(benchmark::State& state)
{
    BM_Optimize(state, "hydra-m", "resnet18");
}
BENCHMARK(BM_OptimizeM)->Unit(benchmark::kMicrosecond);

void
BM_CompileCold(benchmark::State& state)
{
    compileCached(state, "hydra-m", "resnet18", false);
}
BENCHMARK(BM_CompileCold)->Unit(benchmark::kMicrosecond);

void
BM_CompileWarm(benchmark::State& state)
{
    compileCached(state, "hydra-m", "resnet18", true);
}
BENCHMARK(BM_CompileWarm)->Unit(benchmark::kMicrosecond);

void
BM_GraphCompileResNet50(benchmark::State& state)
{
    BM_GraphCompile(state, "hydra-m", "resnet50");
}
BENCHMARK(BM_GraphCompileResNet50)->Unit(benchmark::kMicrosecond);

void
BM_GraphCompileBert(benchmark::State& state)
{
    BM_GraphCompile(state, "hydra-m", "bert");
}
BENCHMARK(BM_GraphCompileBert)->Unit(benchmark::kMicrosecond);

void
BM_NetMakespanResNet50(benchmark::State& state)
{
    BM_NetMakespan(state, "hydra-m", "resnet50");
}
BENCHMARK(BM_NetMakespanResNet50)->Unit(benchmark::kMillisecond);

void
BM_NetMakespanBert(benchmark::State& state)
{
    BM_NetMakespan(state, "hydra-m", "bert");
}
BENCHMARK(BM_NetMakespanBert)->Unit(benchmark::kMillisecond);

void
BM_NetMakespanOpt(benchmark::State& state)
{
    BM_NetMakespan(state, "fab-m", "opt");
}
BENCHMARK(BM_NetMakespanOpt)->Unit(benchmark::kMillisecond);

void
BM_ExecuteUnitsHydraL(benchmark::State& state)
{
    BM_ExecuteUnits(state, "hydra-l");
}
BENCHMARK(BM_ExecuteUnitsHydraL)->Unit(benchmark::kMillisecond);

void
BM_ExecuteUnitsFabL(benchmark::State& state)
{
    BM_ExecuteUnits(state, "fab-l");
}
BENCHMARK(BM_ExecuteUnitsFabL)->Unit(benchmark::kMillisecond);

} // namespace
} // namespace hydra

HYDRA_BENCH_MAIN("compile")
