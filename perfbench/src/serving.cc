/**
 * @file
 * The two serving workloads, both on hydra-m clusters through
 * Federation::run:
 *
 *  serve_fifo_open: sched=fifo, one cluster, fault-free.  Open-loop
 *    Poisson resnet20 short jobs plus resnet18 long jobs at ~0.8 group
 *    utilisation of the short-job groups (the long-job group is lightly
 *    loaded, so the tail is the short-job queue's).  The seed draws ten
 *    600-virtual-second episodes (6000 s of traffic); fifo executes
 *    every dispatch through the event-driven executor with no JobCache
 *    lookups.
 *
 *  serve_cake_chaos: sched=cake on a 4-cluster federation with the
 *    closed-loop 10k-tenant shape of scripts/gen_workload.py at a
 *    shorter horizon, plus a cluster-local fault plan: cluster 1 is
 *    partitioned and heals through a canary, cluster 3 is killed, and
 *    one card of cluster 2 straggles.  The fault-free cluster replays
 *    from the JobCache while the faulted ones execute for real.
 *
 * The measured phase replays the seed's episode set round-robin; every
 * replay must reproduce the episode's ServeStats hash.  Model metrics
 * come from one pass over the set, so they repeat exactly.
 * Federation::run is one opaque call: host time inside serving cannot
 * be split from outside, so its span is a single layer.
 */

#include <cmath>

#include "baselines/prototypes.hh"
#include "bench.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "sched/execplan.hh"
#include "sched/graph/modelspec.hh"
#include "sched/progcache.hh"
#include "serve/federation.hh"
#include "serve/workload_gen.hh"

namespace perfbench {

using namespace hydra;

namespace {

struct Episode
{
    ServeSpec serve;
    FaultPlan faults;
    std::string faultText;
};

/** Set-up repetitions, and set-ups per repetition (fifo: ~5 ms each,
 *  cake: ~140 ms): a repetition lasts ~0.3-0.75 s, long enough to
 *  average over sub-second bursts of host noise. */
constexpr int kSetupReps = 5;
constexpr int kFifoSetupBatch = 150;
constexpr int kCakeSetupBatch = 2;

constexpr size_t kFifoEpisodes = 10;
constexpr double kFifoEpisodeS = 600.0;
constexpr double kCakeEpisodeS = 2000.0;
/** Goodput latency limits (virtual seconds); snapped down to a
 *  histogram bucket edge so the within-limit count is exact. */
constexpr double kFifoLimitS = 10.0;
constexpr double kCakeLimitS = 300.0;

std::string
fifoSpec(uint64_t seed)
{
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "seed=%llu,duration=%g,"
                  "group=resnet20:2,group=resnet20:2,group=resnet20:2,"
                  "group=resnet18:2,"
                  "tenant=vision:open:resnet20:1.7,"
                  "tenant=nlp:open:resnet18:0.005",
                  static_cast<unsigned long long>(seed), kFifoEpisodeS);
    return buf;
}

/**
 * scripts/gen_workload.py's default shape at a shorter duration, with
 * the closed-loop think times drawn from the seed around the
 * generator's (base in [900, 980] s for its 940 s, step per block in
 * [15, 19] s for its 17 s) so arrival phases vary.
 */
std::string
cakeSpec(uint64_t seed)
{
    Rng rng(seed * 0xD1B54A32D192ED03ULL + 11);
    int base = 900 + static_cast<int>(rng.uniformU64(81));
    int step = 15 + static_cast<int>(rng.uniformU64(5));
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "sched=cake,seed=%llu,clusters=4,duration=%g,"
                  "queue=2048,requests=3000000",
                  static_cast<unsigned long long>(seed), kCakeEpisodeS);
    std::string s = buf;
    for (int i = 0; i < 25; ++i) {
        std::snprintf(buf, sizeof(buf),
                      ",tenants=400:sp%d:closed:resnet20:1:%d", i,
                      base + step * i);
        s += buf;
    }
    s += ",tenants=8:lp:closed:resnet18:1:40";
    s += ",group=resnet20:2,group=resnet20:2,group=resnet18:4";
    return s;
}

/**
 * Cluster-local faults at fixed places and times (they decide which
 * groups bypass the JobCache and for how long, so host work does not
 * move with the seed); the seed draws the straggler's slowdown.  The
 * straggling card is the first card of cluster 2's second resnet20
 * group.
 */
std::string
cakeFaults(uint64_t seed, size_t cards_per_cluster)
{
    Rng rng(seed * 0x9E3779B97F4A7C15ULL + 13);
    double factor = rng.uniformReal(2.5, 3.5);
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "seed=%llu,cpart=1@%g:%g,ckill=3@%g,straggle=%zu:%.3f",
                  static_cast<unsigned long long>(seed),
                  0.2 * kCakeEpisodeS, 0.1 * kCakeEpisodeS,
                  0.5 * kCakeEpisodeS, 2 * cards_per_cluster + 2, factor);
    return buf;
}

std::vector<Episode>
episodes(uint64_t seed, bool chaos, size_t cards_per_cluster)
{
    std::vector<Episode> eps;
    if (chaos) {
        Episode e;
        e.serve = ServeSpec::parse(cakeSpec(seed));
        e.faultText = cakeFaults(seed, cards_per_cluster);
        e.faults = FaultPlan::parse(e.faultText);
        eps.push_back(std::move(e));
        return eps;
    }
    for (size_t k = 0; k < kFifoEpisodes; ++k) {
        Episode e;
        e.serve = ServeSpec::parse(fifoSpec(seed * 1000 + k));
        eps.push_back(std::move(e));
    }
    return eps;
}

/** Warm the ProgramCache as a server would before taking traffic:
 *  compile every group's plan for its card group; returns the units. */
size_t
compileGroupPlans(const PrototypeSpec& spec, const ServeSpec& serve)
{
    size_t base = 0, units = 0;
    for (const GroupPlan& g : serve.groups) {
        WorkloadModel wl;
        SpecError err;
        if (!tryResolveWorkloadModel(g.workload, wl, err))
            fatal("workload %s: %s", g.workload.c_str(),
                  err.describe().c_str());
        PrototypeSpec sub =
            groupSubSpec(spec, CardGroup::contiguous(base, g.cards));
        InferenceRunner sr(sub);
        units += compilePlan(sub, sr.costModel(), sr.network(), wl,
                             OptLevel::Safe)
                     .size();
        base += g.cards;
    }
    return units;
}

/** Linear interpolation inside the histogram bucket holding the
 *  p-quantile, in milliseconds (bucket edges alone are ~19% apart). */
double
percentileMs(const std::array<uint64_t, LatencyHistogram::kBuckets>& b,
             double p)
{
    uint64_t total = 0;
    for (uint64_t c : b)
        total += c;
    if (!total)
        return 0.0;
    double target = p * static_cast<double>(total);
    double seen = 0.0;
    for (size_t i = 0; i < b.size(); ++i) {
        if (!b[i])
            continue;
        double next = seen + static_cast<double>(b[i]);
        if (next >= target) {
            double lo = i ? static_cast<double>(
                                LatencyHistogram::bucketUpper(i - 1))
                          : 0.0;
            double hi =
                static_cast<double>(LatencyHistogram::bucketUpper(i));
            double frac = (target - seen) / static_cast<double>(b[i]);
            return ticksToSeconds(static_cast<Tick>(lo + (hi - lo) * frac)) *
                   1e3;
        }
        seen = next;
    }
    return ticksToSeconds(LatencyHistogram::bucketUpper(b.size() - 1)) *
           1e3;
}

/** Largest bucket index whose upper edge is within `limit_s`. */
size_t
limitBucket(double limit_s)
{
    size_t best = 0;
    for (size_t i = 0; i < LatencyHistogram::kBuckets; ++i)
        if (LatencyHistogram::bucketUpper(i) <= secondsToTicks(limit_s))
            best = i;
    return best;
}

/**
 * Host milliseconds of one fault-free InferenceRunner::runJob per
 * group workload class (median of a few calls, warm cache), weighted
 * by each class's share of completions.  Feeds the labelled estimate
 * serve.est_executor_share: Federation::run cannot be split from
 * outside, so executed jobs x this cost stands in for executor time.
 */
double
runJobMs(const PrototypeSpec& spec, const ServeSpec& serve,
         const std::vector<ServeStats>& pass)
{
    std::map<std::string, uint64_t> done;
    uint64_t total = 0;
    for (const ServeStats& st : pass)
        for (size_t t = 0; t < st.tenants.size(); ++t) {
            done[serve.tenants[t].workload] += st.tenants[t].completed;
            total += st.tenants[t].completed;
        }
    InferenceRunner runner(spec);
    double ms = 0.0;
    size_t base = 0;
    std::map<std::string, bool> seen;
    for (const GroupPlan& g : serve.groups) {
        CardGroup group = CardGroup::contiguous(base, g.cards);
        base += g.cards;
        if (seen[g.workload] || !total)
            continue;
        seen[g.workload] = true;
        WorkloadModel wl;
        SpecError err;
        if (!tryResolveWorkloadModel(g.workload, wl, err))
            fatal("workload %s: %s", g.workload.c_str(),
                  err.describe().c_str());
        auto plan = runner.planForJob(wl, group);
        std::vector<double> t;
        for (int r = 0; r < 5; ++r) {
            Tracer::Scope s(tracer(), "sched.run_job");
            int64_t t0 = nowNs();
            runner.runJob(*plan, group, 0);
            t.push_back(static_cast<double>(nowNs() - t0) / 1e6);
        }
        ms += quantile(t, 0.5) * static_cast<double>(done[g.workload]) /
              static_cast<double>(total);
    }
    return ms;
}

bool
accountingHolds(const ServeStats& st)
{
    return st.offered == st.completed + st.shed &&
           st.admitted == st.completed + st.shedAfterAdmit &&
           !st.stalled;
}

} // namespace

void
runServing(const Args& args, Report& rep, bool chaos)
{
    bool tracing = !args.tracePath.empty();
    PrototypeSpec spec = machineByName("hydra-m");
    std::vector<Episode> eps;
    std::vector<double> genMs;
    size_t units = 0;
    ProgramCache::Stats cache{};
    timeSetup(rep, tracing, kSetupReps, chaos ? kCakeSetupBatch
                                              : kFifoSetupBatch, [&] {
        ProgramCache::global().clear();
        eps = episodes(args.seed, chaos, spec.cluster.totalCards());
        int64_t g0 = nowNs();
        {
            Tracer::Scope s(tracer(), "serve.workload_gen");
            for (const Episode& e : eps) {
                WorkloadGen gen(e.serve, e.serve.workloadTable());
                gen.initialArrivals();
            }
        }
        genMs.push_back(static_cast<double>(nowNs() - g0) / 1e6);
        ProgramCache::global().resetStats();
        {
            Tracer::Scope s(tracer(), "sched.compile_plan");
            units = compileGroupPlans(spec, eps.front().serve);
        }
        cache = ProgramCache::global().stats();
    });
    rep.layer["serve.workload_gen_ms"] = quantile(genMs, 0.5);
    // Set-up compile of the group plans, cold cache (last repetition).
    rep.layer["sched.plan.units"] = static_cast<double>(units);
    rep.layer["sched.progcache.hits"] = static_cast<double>(cache.hits);
    rep.layer["sched.progcache.misses"] =
        static_cast<double>(cache.misses);
    rep.layer["sched.progcache.hit_rate"] = cache.hitRate();
    rep.layer["sched.progcache.evictions"] =
        static_cast<double>(cache.evictions);

    std::vector<ServeStats> first(eps.size());
    std::vector<uint64_t> firstHash(eps.size(), 0);
    std::vector<double> runS;
    int64_t m0 = nowNs();
    for (uint64_t i = 0;; ++i) {
        size_t k = i % eps.size();
        if (cycleDone(args, rep, i, eps.size(), m0))
            break;
        bool trace_item = tracing && (i / eps.size()) % 2 == 1;
        tracer().setOn(trace_item);
        tracer().setItem(i + 1);
        int64_t t0 = nowNs();
        ServeStats st;
        {
            Tracer::Scope sp(tracer(), "item");
            Tracer::Scope s(tracer(), "serve.run");
            Federation fed(spec, eps[k].serve, eps[k].faults);
            st = fed.run();
        }
        double ms = static_cast<double>(nowNs() - t0) / 1e6;
        tracer().setOn(false);
        runS.push_back(ms / 1e3);
        std::string name = "episode" + std::to_string(k);
        rep.items.push_back({name, ms, 1, st.completed, trace_item});
        uint64_t h = st.hash();
        if (i < eps.size()) {
            first[k] = st;
            firstHash[k] = h;
            rep.hashes[name] = hex64(h);
        }
        rep.check(accountingHolds(st) && h == firstHash[k],
                  name + (accountingHolds(st)
                              ? ": hash changed on replay"
                              : ": accounting broken or stalled"));
    }
    rep.measuredS = static_cast<double>(nowNs() - m0) / 1e9;

    // Model surface over one pass of the episode set.
    std::array<uint64_t, LatencyHistogram::kBuckets> lat{}, wait{};
    uint64_t offered = 0, completed = 0, shed = 0, jcHits = 0,
             jcMisses = 0, pcHits = 0;
    double horizonS = 0.0, utilSum = 0.0, meanDepth = 0.0;
    size_t groups = 0, maxDepth = 0;
    std::vector<double> horizons;
    ServeStats sum;
    for (const ServeStats& st : first) {
        for (size_t b = 0; b < lat.size(); ++b) {
            lat[b] += st.latency.buckets()[b];
            wait[b] += st.queueWait.buckets()[b];
        }
        offered += st.offered;
        completed += st.completed;
        shed += st.shed;
        jcHits += st.jobCacheHits;
        jcMisses += st.jobCacheMisses;
        pcHits += st.progCacheHits;
        double h = ticksToSeconds(st.horizon);
        horizonS += h;
        horizons.push_back(h);
        for (const GroupStats& g : st.groups) {
            utilSum += g.utilization(st.horizon);
            ++groups;
        }
        maxDepth = std::max(maxDepth, st.maxQueueDepth);
        meanDepth += st.meanQueueDepth / static_cast<double>(first.size());
        sum.preemptions += st.preemptions;
        sum.preemptResumes += st.preemptResumes;
        sum.steals += st.steals;
        sum.stealsCross += st.stealsCross;
        sum.demotions += st.demotions;
        sum.kicks += st.kicks;
        sum.maxWaitTicks = std::max(sum.maxWaitTicks, st.maxWaitTicks);
        sum.failovers += st.failovers;
        sum.spilled += st.spilled;
        sum.recoveredSteps += st.recoveredSteps;
        sum.replayedSteps += st.replayedSteps;
        sum.healthTransitions += st.healthTransitions;
        sum.canaryProbes += st.canaryProbes;
    }
    double limitS = chaos ? kCakeLimitS : kFifoLimitS;
    size_t lb = limitBucket(limitS);
    uint64_t good = 0;
    for (size_t b = 0; b <= lb; ++b)
        good += lat[b];
    rep.model["model_makespan_s"] = geomean(horizons);
    rep.model["model_p50_ms"] = percentileMs(lat, 0.50);
    rep.model["model_p99_ms"] = percentileMs(lat, 0.99);
    rep.model["model_goodput_rps"] = static_cast<double>(good) / horizonS;
    rep.model["model_shed_rate"] =
        static_cast<double>(shed) / static_cast<double>(offered);
    rep.notes["goodput_limit_s"] =
        std::to_string(ticksToSeconds(LatencyHistogram::bucketUpper(lb)));
    rep.notes["episodes"] = std::to_string(eps.size());
    rep.notes["faults"] = eps.front().faultText;

    // Per-layer counters, summed over one pass of the episode set.
    // Windows run through the executor: completions plus resumed
    // slices and failovers, less the windows the JobCache replayed.
    double executed = static_cast<double>(completed + sum.preemptResumes +
                                          sum.failovers) -
                      static_cast<double>(jcHits);
    rep.layer["serve.jobcache.hits"] = static_cast<double>(jcHits);
    rep.layer["serve.jobcache.misses"] = static_cast<double>(jcMisses);
    rep.layer["serve.jobcache.hit_rate"] =
        jcHits + jcMisses ? static_cast<double>(jcHits) /
                                static_cast<double>(jcHits + jcMisses)
                          : 0.0;
    rep.layer["serve.progcache.run_hits"] = static_cast<double>(pcHits);
    rep.layer["serve.queue.max_depth"] = static_cast<double>(maxDepth);
    rep.layer["serve.queue.mean_depth"] = meanDepth;
    rep.layer["serve.queue_wait_ms_p50"] = percentileMs(wait, 0.50);
    rep.layer["serve.queue_wait_ms_p99"] = percentileMs(wait, 0.99);
    rep.layer["serve.group_util_mean"] =
        groups ? utilSum / static_cast<double>(groups) : 0.0;
    rep.layer["serve.cake.preemptions"] =
        static_cast<double>(sum.preemptions);
    rep.layer["serve.cake.steals"] = static_cast<double>(sum.steals);
    rep.layer["serve.cake.steals_cross"] =
        static_cast<double>(sum.stealsCross);
    rep.layer["serve.cake.demotions"] = static_cast<double>(sum.demotions);
    rep.layer["serve.cake.kicks"] = static_cast<double>(sum.kicks);
    rep.layer["serve.cake.max_wait_s"] = ticksToSeconds(sum.maxWaitTicks);
    rep.layer["serve.federation.failovers"] =
        static_cast<double>(sum.failovers);
    rep.layer["serve.federation.spilled"] =
        static_cast<double>(sum.spilled);
    rep.layer["serve.federation.recovered_steps"] =
        static_cast<double>(sum.recoveredSteps);
    rep.layer["serve.federation.replayed_steps"] =
        static_cast<double>(sum.replayedSteps);
    rep.layer["serve.health.transitions"] =
        static_cast<double>(sum.healthTransitions);
    rep.layer["serve.health.canary_probes"] =
        static_cast<double>(sum.canaryProbes);
    rep.layer["serve.jobs_executed"] = std::max(executed, 0.0);
    if (tracing) {
        tracer().setOn(true);
        tracer().setItem(0);
        double passS = 0.0;
        for (size_t k = 0; k < eps.size(); ++k)
            passS += runS[k];
        rep.layer["serve.est_executor_share"] =
            std::max(executed, 0.0) *
            runJobMs(spec, eps.front().serve, first) / 1e3 / passS;
        tracer().setOn(false);
    }
}

} // namespace perfbench
