/**
 * @file
 * sim_design_sweep: compile and simulate every machine x model pair of
 * the registries (machineNames() x modelSpecNames()) at Safe and
 * Aggressive.  Every job starts from an empty ProgramCache, as a new
 * design point would, so the sched compile pipeline runs cold and the
 * sync executor runs every program: no serving and no FHE.
 *
 * The seed draws the design points: each machine runs at a technology
 * speed factor in [0.95, 1.05] (scaleTiming), so modelled makespans
 * move with the seed while program shapes and event order do not.
 */

#include <iterator>

#include "baselines/prototypes.hh"
#include "bench.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "sched/execplan.hh"
#include "sched/graph/modelspec.hh"
#include "sched/progcache.hh"

namespace perfbench {

using namespace hydra;

namespace {

struct DesignPoint
{
    std::string machine;
    PrototypeSpec spec;
    std::unique_ptr<InferenceRunner> runner;
};

struct SweepSet
{
    std::vector<DesignPoint> machines;
    std::vector<std::pair<std::string, NetworkGraph>> models;
};

/** Speed every clock, bandwidth and latency of `spec` up by `f`
 *  together: modelled durations shrink by ~1/f while the executor sees
 *  the same event order, so host work does not depend on the seed. */
void
scaleTiming(PrototypeSpec& spec, double f)
{
    auto shorter = [f](Tick t) {
        return static_cast<Tick>(static_cast<double>(t) / f);
    };
    spec.fpga.clockHz *= f;
    spec.fpga.hbmBytesPerSec *= f;
    spec.net.linkBytesPerSec *= f;
    spec.net.switchLatency = shorter(spec.net.switchLatency);
    spec.net.dmaConfigLatency = shorter(spec.net.dmaConfigLatency);
    spec.hostNet.pcieBytesPerSec *= f;
    spec.hostNet.lanBytesPerSec *= f;
    spec.hostNet.hostLatency = shorter(spec.hostNet.hostLatency);
}

std::unique_ptr<SweepSet>
buildSweep(uint64_t seed)
{
    auto set = std::make_unique<SweepSet>();
    Rng rng(seed * 0x9E3779B97F4A7C15ULL + 5);
    for (const std::string& m : machineNames()) {
        DesignPoint dp;
        dp.machine = m;
        dp.spec = machineByName(m);
        scaleTiming(dp.spec, rng.uniformReal(0.95, 1.05));
        dp.runner = std::make_unique<InferenceRunner>(dp.spec);
        set->machines.push_back(std::move(dp));
    }
    for (const std::string& name : modelSpecNames()) {
        NetworkGraph g;
        SpecError err;
        if (!tryModelGraphByName(name, g, err))
            fatal("model %s: %s", name.c_str(), err.describe().c_str());
        set->models.emplace_back(name, std::move(g));
    }
    return set;
}

/** Set-up repetitions, and set-ups per repetition: one takes ~3 ms. */
constexpr int kSetupReps = 7;
constexpr int kSetupBatch = 80;

constexpr double kJobBatchMs = 50.0;
constexpr int kJobBatchMax = 8;

uint64_t
taskCount(const ExecPlan& plan)
{
    uint64_t n = 0;
    for (const ExecUnit& u : plan.units)
        if (u.compiled)
            for (const CardProgram& c : u.compiled->program.cards)
                n += c.compute.size() + c.comm.size();
    return n;
}

} // namespace

void
runSimSweep(const Args& args, Report& rep)
{
    bool tracing = !args.tracePath.empty();
    std::unique_ptr<SweepSet> set;
    timeSetup(rep, tracing, kSetupReps, kSetupBatch, [&] {
        set.reset();
        set = buildSweep(args.seed);
    });

    const OptLevel levels[] = {OptLevel::Safe, OptLevel::Aggressive};
    size_t jobsPerPass =
        set->machines.size() * set->models.size() * std::size(levels);

    std::vector<double> makespan; // first pass, seconds
    std::map<std::string, uint64_t> firstFp;
    uint64_t units = 0, tasks = 0, bootsElided = 0, netBytes = 0;
    Tick commOverhead = 0, makespanTicks = 0;
    int64_t runPlanNs = 0;
    ProgramCache::Stats cache{};

    int64_t m0 = nowNs();
    for (uint64_t item = 0;; ++item) {
        if (cycleDone(args, rep, item, jobsPerPass, m0))
            break;
        // A fixed stride walk (37 is coprime with the 84 jobs) spreads
        // each machine family over the pass, so a burst of host noise
        // does not land on one family.
        size_t pass = item / jobsPerPass;
        size_t j = (item % jobsPerPass) * 37 % jobsPerPass;
        size_t lv = j % 2;
        size_t wi = (j / 2) % set->models.size();
        size_t mi = j / (2 * set->models.size());
        DesignPoint& dp = set->machines[mi];
        const auto& [model, graph] = set->models[wi];
        std::string name =
            dp.machine + "/" + model + "/" + optLevelName(levels[lv]);

        // A job runs back to back from an empty ProgramCache until
        // kJobBatchMs of host time (at most kJobBatchMax runs); its
        // item time is the batch mean, since single runs of the
        // millisecond-scale jobs are below host timing noise.
        bool trace_item = tracing && pass % 2 == 1;
        tracer().setOn(trace_item);
        tracer().setItem(item + 1);
        int64_t t0 = nowNs();
        int runs = 0;
        bool ok = true;
        std::string why;
        while (runs < kJobBatchMax &&
               (runs == 0 ||
                static_cast<double>(nowNs() - t0) / 1e6 < kJobBatchMs)) {
            ProgramCache::global().clear();
            ProgramCache::Stats c0 = ProgramCache::global().stats();
            InferenceResult res;
            ExecPlan plan;
            Tracer::Scope sp(tracer(), "item");
            {
                Tracer::Scope s(tracer(), "sched.compile_plan");
                plan = compilePlan(dp.spec, dp.runner->costModel(),
                                   dp.runner->network(), graph,
                                   levels[lv]);
            }
            Tracer::Scope s(tracer(), "sched.run_plan");
            int64_t r0 = nowNs();
            res = dp.runner->runPlan(plan);
            int64_t r1 = nowNs();

            uint64_t fp = res.total.fingerprint();
            if (!res.ok()) {
                ok = false;
                why = res.error.message;
            } else if (pass == 0 && runs == 0) {
                firstFp[name] = fp;
                rep.hashes[name] = hex64(fp);
                makespan.push_back(res.seconds());
                units += plan.size();
                tasks += taskCount(plan);
                bootsElided += plan.report.bootsElided;
                netBytes += res.total.netBytes;
                commOverhead += res.total.commOverhead();
                makespanTicks += res.total.makespan;
                runPlanNs += r1 - r0;
                ProgramCache::Stats c1 = ProgramCache::global().stats();
                cache.hits += c1.hits - c0.hits;
                cache.misses += c1.misses - c0.misses;
                cache.evictions += c1.evictions - c0.evictions;
            } else if (firstFp[name] != fp) {
                ok = false;
                why = "fingerprint changed on rerun";
            }
            ++runs;
        }
        double ms = static_cast<double>(nowNs() - t0) / 1e6 / runs;
        tracer().setOn(false);
        rep.items.push_back({name, ms, runs, 1, trace_item});
        rep.check(ok, name + ": " + why);
    }
    rep.measuredS = static_cast<double>(nowNs() - m0) / 1e9;

    // Per-pass counters (first run of each job of the first pass).
    rep.layer["sched.progcache.hits"] = static_cast<double>(cache.hits);
    rep.layer["sched.progcache.misses"] =
        static_cast<double>(cache.misses);
    rep.layer["sched.progcache.hit_rate"] = cache.hitRate();
    rep.layer["sched.progcache.evictions"] =
        static_cast<double>(cache.evictions);
    rep.layer["sched.plan.units"] = static_cast<double>(units);
    rep.layer["sync.tasks"] = static_cast<double>(tasks);
    rep.layer["sched.netopt.boots_elided"] =
        static_cast<double>(bootsElided);
    rep.layer["sync.host_ns_per_task"] =
        static_cast<double>(runPlanNs) / static_cast<double>(tasks);
    rep.layer["sync.net_bytes"] = static_cast<double>(netBytes);
    rep.layer["sync.model.comm_overhead_frac"] =
        static_cast<double>(commOverhead) /
        static_cast<double>(makespanTicks);

    reportModelItems(rep, makespan);
    rep.notes["jobs_per_pass"] = std::to_string(jobsPerPass);
}

} // namespace perfbench
