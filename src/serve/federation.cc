#include "serve/federation.hh"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>

#include "common/logging.hh"
#include "sched/execplan.hh"
#include "sched/progcache.hh"
#include "serve/cake.hh"
#include "serve/jobcache.hh"
#include "serve/workload_gen.hh"
#include "workloads/model.hh"

namespace hydra {

namespace {

/** Failover budget per request: re-queue attempts before shedding. */
constexpr uint32_t kFailoverBudget = 3;

/**
 * The fault plan one cluster's jobs see: card-granularity entries
 * re-keyed from federation-global to cluster-local indices, cluster
 * entries stripped (the routing tier interprets those), and the seed
 * decorrelated per cluster so identical clusters don't fail in
 * lockstep.  Cluster 0 keeps the plan's own seed, so a single-cluster
 * federation runs exactly the plan it was given.
 */
FaultPlan
clusterLocalPlan(const FaultPlan& f, size_t c, size_t cards_per)
{
    FaultPlan out = f;
    out.cardFailAt.clear();
    out.stragglers.clear();
    out.clusterKillAt.clear();
    out.clusterPartitionAt.clear();
    if (c)
        out.seed =
            f.seed + 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(c);
    for (const auto& [card, tick] : f.cardFailAt)
        if (card / cards_per == c)
            out.cardFailAt[card % cards_per] = tick;
    for (const auto& [card, factor] : f.stragglers)
        if (card / cards_per == c)
            out.stragglers[card % cards_per] = factor;
    return out;
}

/** What one executed unit window did, carried into its completion
 *  event. */
struct JobOutcome
{
    bool ok = true;
    Tick span = 0;
    std::vector<size_t> failedCards; // cluster-local indices
    uint64_t redispatches = 0;
    Tick recoveryPenalty = 0;
    uint64_t timedOut = 0;
    /** Absolute serve-clock ticks of completed step boundaries. */
    std::vector<Tick> stepEnds;
};

/** An in-flight job; erased on completion, cluster-kill abort, or a
 *  step-boundary preemption. */
struct JobRecord
{
    Request req;
    size_t cluster = 0;
    size_t group = 0; // cluster-local group id
    Tick start = 0;
    JobOutcome out;
    /** Charge weight of this dispatch: 2 for spillover, else 1. */
    uint64_t weight = 1;
    /** Absolute tick of the next armed slice check (0 = none). */
    Tick sliceEnd = 0;
    /** Steps of this dispatch's window complete at sliceEnd. */
    size_t sliceSteps = 0;
};

/** An in-flight half-open canary probe. */
struct ProbeRecord
{
    size_t cluster = 0;
    size_t group = 0;
    Tick span = 0;
    bool ok = false;
};

/** Runtime state of one cluster of the federation. */
struct ClusterRt
{
    size_t id = 0;
    FleetPartition fleet;
    std::vector<bool> cardDead;
    /** Card-granularity plan re-keyed to this cluster's local cards. */
    FaultPlan faults;
    bool killed = false;
    /** A probe wants to launch but every live group was busy; the next
     *  completion on this cluster launches it. */
    bool probePending = false;
    uint64_t completed = 0;
    /** In-flight jobs this cluster lost to its cluster_kill. */
    uint64_t lostJobs = 0;
    uint64_t canaries = 0;

    ClusterRt(size_t id_, const PrototypeSpec& spec,
              const ServeSpec& serve,
              const std::vector<std::string>& wl_names, FaultPlan local)
        : id(id_), fleet(spec, serve, wl_names), faults(std::move(local))
    {
        cardDead.assign(spec.cluster.totalCards(), false);
    }
};

/**
 * The queue discipline: the one axis on which `sched=fifo` and
 * `sched=cake` differ.  It holds the admitted work and decides which
 * request an idle group runs next; cake also charges and refunds the
 * deficit ledger and arms step-boundary slices (DESIGN.md §14).  Fifo
 * is the discipline that never charges, steals or slices.  Queue-wait
 * and service accounting stay per discipline: both formulas are
 * folded into the stats hash.
 */
class Discipline
{
  public:
    Discipline() = default;
    Discipline(const Discipline&) = delete;
    Discipline& operator=(const Discipline&) = delete;
    virtual ~Discipline() = default;

    virtual size_t depth() const = 0;
    /** Queued requests of one workload class (stall diagnostics). */
    virtual size_t depthFor(size_t wl) const = 0;
    /** Earliest queued request (stall diagnostics). */
    virtual const Request* oldest() const = 0;
    /** New admissions shed on a full queue. */
    virtual bool full() const = 0;
    virtual std::vector<Request> drainAll() = 0;
    /** Queue admitted work.  Re-admissions (failovers, preempted
     *  remainders) held no queue slot while running, so they bypass
     *  the capacity gate. */
    virtual void push(const Request& r) = 0;

    /** Whether any route can still serve workload class `wl`. */
    virtual bool servable(size_t wl) const = 0;
    /** Shed (or re-route) queued work that lost its last route. */
    virtual void flushUnservable() = 0;
    /** A card of a group serving class `wl` died. */
    virtual void cardLost(size_t wl) = 0;

    /** Start of a dispatch round. */
    virtual void beginRound() {}
    /** The request idle group `g` of `cl` runs next, or nullopt. */
    virtual std::optional<Request> next(const ClusterRt& cl,
                                        const ServeGroup& g) = 0;
    /** Job `id` started; its outcome is known.  `sliceable` is false
     *  on clusters with local fault injection. */
    virtual void started(uint64_t, JobRecord&, bool) {}
    /** The job stopped early (abort or preemption) after `ran` ticks. */
    virtual void stopped(JobRecord&, Tick) {}
    /** The job ran its whole window; records queue wait and service
     *  when it succeeded. */
    virtual void finished(const JobRecord& jr, Tick now) = 0;
    /** Fold the discipline's counters into the run's stats. */
    virtual void report(ServeStats&) const {}
};

/** One federated run's mutable state; lives for the duration of run(). */
struct Engine
{
    const PrototypeSpec& spec;
    const ServeSpec& serve;
    const FaultPlan& faults;
    const RetryPolicy& retry;

    InferenceRunner runner; // shared: clusters are identical machines
    std::vector<std::string> wlNames;
    std::vector<WorkloadModel> models;

    EventQueue eq;
    WorkloadGen gen;
    std::vector<ClusterRt> clusters;
    HealthMonitor health;
    size_t cardsPer = 0;

    /** In-flight jobs and probes, keyed by a shared token counter; a
     *  std::map so cluster-kill iteration is in dispatch order. */
    std::map<uint64_t, JobRecord> inflight;
    std::map<uint64_t, ProbeRecord> probes;
    uint64_t nextToken = 1;

    std::unique_ptr<Discipline> disc;
    JobCache jobCache;

    // Unified ExecPlan dispatch: every tenant's jobs execute a
    // compiled plan at the tenant's `opt=` level.  Plans are skeletons
    // shared per (workload, level, group shape) — their Programs
    // resolve through the process-wide ProgramCache per executed unit,
    // so identical jobs keep the serving layer's compile reuse.
    std::vector<OptLevel> tenantOpt;
    std::map<std::tuple<size_t, uint8_t, size_t, size_t>,
             std::shared_ptr<const ExecPlan>>
        planTable;
    /** Memoized machine-scoped unit counts per (workload, level); the
     *  Aggressive partition is shape-invariant, so these also hold for
     *  every card group's plan. */
    std::map<std::pair<size_t, uint8_t>, size_t> unitTotals;
    /** ProgramCache snapshot at construction: go() reports this run's
     *  deltas (the cache is process-wide and outlives the run). */
    ProgramCache::Stats progBase;

    ServeStats stats;
    Tick lastActivity = 0;
    Tick lastDepthTick = 0;
    double depthAcc = 0.0;

    Engine(const PrototypeSpec& spec_, const ServeSpec& serve_,
           const FaultPlan& faults_, const RetryPolicy& retry_,
           const HealthPolicy& health_);

    TenantStats& tenant(const Request& r) { return stats.tenants[r.tenant]; }

    /** The shared ExecPlan `wl` executes at `lv` on a group shaped
     *  like `g`.  Shape-keyed: every group with the same sub-machine
     *  topology shares one skeleton plan (plan content only depends
     *  on the shape, never on which cards compose the group). */
    const ExecPlan&
    planOf(size_t wl, OptLevel lv, const CardGroup& g)
    {
        ClusterConfig shape = groupSubSpec(spec, g).cluster;
        auto key = std::make_tuple(wl, static_cast<uint8_t>(lv),
                                   shape.servers, shape.cardsPerServer);
        auto it = planTable.find(key);
        if (it == planTable.end())
            it = planTable
                     .emplace(key,
                              runner.planForJob(models[wl], g, lv))
                     .first;
        return *it->second;
    }

    /** Total unit count of `wl` at `lv` — the bound for resumable
     *  firstStep indices (which count plan units). */
    size_t
    unitTotal(size_t wl, OptLevel lv)
    {
        auto key = std::make_pair(wl, static_cast<uint8_t>(lv));
        auto it = unitTotals.find(key);
        if (it == unitTotals.end())
            it = unitTotals
                     .emplace(key,
                              runner.planUnitCount(models[wl], lv))
                     .first;
        return it->second;
    }

    /** Fold queue depth into the time-weighted integral; call before
     *  any mutation of the queue at the current tick. */
    void
    noteDepth()
    {
        Tick now = eq.now();
        depthAcc += static_cast<double>(disc->depth()) *
                    static_cast<double>(now - lastDepthTick);
        lastDepthTick = now;
    }

    /** Routable cluster: can hold queued work / accept admissions
     *  (quarantined clusters count — probes may heal them). */
    bool
    clusterAlive(const ClusterRt& cl) const
    {
        return !cl.killed && !health.dead(cl.id);
    }

    void
    shedNew(const Request& r, RejectReason why)
    {
        ++stats.shed;
        ++tenant(r).shed;
        if (why == RejectReason::QueueFull)
            ++stats.shedQueueFull;
        else
            ++stats.shedNoCapacity;
    }

    /** Shed a request that was already admitted (capacity-loss flush,
     *  terminal job failure, exhausted failover budget, stall flush). */
    void
    shedAdmitted(const Request& r, bool respawn = true)
    {
        ++stats.shed;
        ++stats.shedNoCapacity;
        ++stats.shedAfterAdmit;
        ++tenant(r).shed;
        if (respawn)
            respawnClosed(r);
    }

    /** Closed-loop clients react to any terminal outcome of their
     *  request (completed or shed) by thinking and trying again. */
    void
    respawnClosed(const Request& r)
    {
        if (auto nr = gen.closedArrival(r.tenant, eq.now()))
            scheduleArrival(*nr);
    }

    void
    scheduleArrival(const Request& r)
    {
        eq.schedule(r.arrival, [this, r] { onArrival(r); });
    }

    /** Queue admitted work (new or re-admitted) and track the queue
     *  high mark. */
    void
    enqueue(const Request& r)
    {
        noteDepth();
        disc->push(r);
        stats.maxQueueDepth = std::max(stats.maxQueueDepth, disc->depth());
    }

    /** Kill a card (cluster-local index): record it, repair that
     *  cluster's partition, and let the discipline flush or re-route
     *  the work that lost its route. */
    void
    applyDeath(ClusterRt& cl, size_t local)
    {
        if (cl.cardDead[local])
            return;
        cl.cardDead[local] = true;
        stats.failedCards.push_back(cl.id * cardsPer + local);
        ServeGroup* g = cl.fleet.groupOf(local);
        if (!g)
            return;
        size_t wl = g->workload;
        auto action = cl.fleet.onCardDeath(local);
        if (action == FleetPartition::DeathAction::Dissolved ||
            action == FleetPartition::DeathAction::Donated)
            ++stats.repartitions;
        disc->cardLost(wl);
    }

    /** Apply kills dated at or before `now` on `g`'s cards that the
     *  in-flight job did not consume (e.g. dated exactly at its end,
     *  or falling in the post-step synchronization window). */
    void
    applyPendingKills(ClusterRt& cl, ServeGroup& g, Tick now)
    {
        if (!g.live())
            return;
        std::vector<size_t> snapshot = g.cards.cards;
        for (size_t c : snapshot) {
            auto it = cl.faults.cardFailAt.find(c);
            if (it != cl.faults.cardFailAt.end() && it->second <= now)
                applyDeath(cl, c);
        }
    }

    void
    onArrival(const Request& r)
    {
        Tick now = eq.now();
        lastActivity = std::max(lastActivity, now);
        ++stats.offered;
        ++tenant(r).offered;
        if (!disc->servable(r.workload)) {
            shedNew(r, RejectReason::NoCapacity);
            respawnClosed(r);
            return;
        }
        if (disc->full()) {
            shedNew(r, RejectReason::QueueFull);
            respawnClosed(r);
            return;
        }
        ++stats.admitted;
        ++tenant(r).admitted;
        enqueue(r);
        dispatchIdle();
    }

    /** The one dispatch loop.  Health-gated routing: healthy clusters
     *  pull first, degraded ones take what's left, quarantined/dead
     *  receive nothing; the discipline picks each idle group's next
     *  request. */
    void
    dispatchIdle()
    {
        disc->beginRound();
        for (bool progress = true; progress;) {
            progress = false;
            for (ClusterHealth rank :
                 {ClusterHealth::Healthy, ClusterHealth::Degraded}) {
                for (auto& cl : clusters) {
                    if (health.state(cl.id) != rank)
                        continue;
                    for (auto& g : cl.fleet.groups()) {
                        if (!g.live() || g.busy)
                            continue;
                        noteDepth();
                        auto r = disc->next(cl, g);
                        if (!r)
                            continue;
                        startJob(cl, g, *r);
                        progress = true;
                    }
                }
            }
        }
    }

    /**
     * Execute units [first, first + count) of `plan` on `cards` from
     * now.  With `memo` the window replays from the JobCache when the
     * replay is pure (no kill on the group's cards reaches it; serve/
     * jobcache.hh), and an executed window is memoized when it was
     * pure, so every kill lands in a real execution.  Canary probes
     * pass memo = false: a replay would observe nothing.
     */
    JobOutcome
    runWindow(const ClusterRt& cl, const ExecPlan& plan,
              const CardGroup& cards, size_t first, size_t count,
              bool memo)
    {
        Tick now = eq.now();
        JobOutcome out;
        WindowFaults wf =
            memo ? WindowFaults::of(cl.faults, cards.cards) : WindowFaults{};
        const CachedJob* job =
            memo ? jobCache.lookup(plan.key, cards.cards, first, count, wf,
                                   now)
                 : nullptr;
        CachedJob ran;
        if (!job) {
            InferenceResult res = runner.runJob(plan, cards, now, cl.faults,
                                                retry, first, count);
            ran = CachedJob::of(res, now);
            out.failedCards = std::move(res.failedCards);
            if (memo)
                jobCache.insert(plan.key, cards.cards, first, count, wf,
                                now, ran);
            job = &ran;
        }
        out.ok = job->ok;
        out.span = job->span;
        out.redispatches = job->redispatches;
        out.recoveryPenalty = job->recoveryPenalty;
        out.timedOut = job->timedOut;
        out.stepEnds.reserve(job->stepEnds.size());
        for (Tick t : job->stepEnds)
            out.stepEnds.push_back(now + t);
        return out;
    }

    /**
     * The one job-start body: run request `r` on idle group `g` from
     * its checkpointed unit onward.  The job executes the REQUEST's
     * model on the group's cards (fifo only ever pairs a request with
     * a group of its own class; cake serves any class anywhere).
     */
    void
    startJob(ClusterRt& cl, ServeGroup& g, Request r)
    {
        Tick now = eq.now();
        r.dispatched = now;
        if (r.spilled)
            ++stats.spilled;
        g.busy = true;
        const ExecPlan& plan =
            planOf(r.workload, tenantOpt[r.tenant], g.cards);
        size_t total = plan.size();
        size_t first = std::min(r.firstStep, total);

        uint64_t id = nextToken++;
        JobRecord& jr = inflight[id];
        jr.req = r;
        jr.cluster = cl.id;
        jr.group = g.id;
        jr.start = now;
        jr.weight = r.spilled ? 2 : 1;
        // Every cluster memoizes its pure windows, but only fault-free
        // clusters slice them: a slice discards the tail of the
        // dispatched window, which would silently discard tail-resident
        // fault effects.
        jr.out = runWindow(cl, plan, g.cards, first, total - first,
                           /*memo=*/true);
        disc->started(id, jr, cl.faults.empty());
        eq.schedule(now + jr.out.span, [this, id] { onComplete(id); });
    }

    /** A job left its group early or on time: launch a pending probe
     *  and refill the idle groups. */
    void
    afterRelease(ClusterRt& cl)
    {
        if (cl.probePending) {
            cl.probePending = false;
            launchProbe(cl.id);
        }
        dispatchIdle();
    }

    /**
     * Re-queue already-admitted work that lost its job (cluster kill
     * or terminal failure), resuming from its checkpoint: `done` steps
     * completed since `req.firstStep` are conserved.  Sheds instead
     * when the failover budget is spent or no route remains.
     */
    void
    failoverOrShed(const Request& req, size_t done)
    {
        Request r = req;
        size_t total = unitTotal(r.workload, tenantOpt[r.tenant]);
        r.firstStep = std::min(r.firstStep + done, total);
        if (r.failovers >= kFailoverBudget ||
            !disc->servable(r.workload)) {
            shedAdmitted(r);
            return;
        }
        ++r.failovers;
        r.spilled = true;
        ++stats.failovers;
        stats.recoveredSteps += done;
        if (r.firstStep < total)
            ++stats.replayedSteps; // the interrupted step re-runs
        enqueue(r);
    }

    void
    onComplete(uint64_t id)
    {
        auto it = inflight.find(id);
        if (it == inflight.end())
            return; // aborted by a cluster kill; superseded
        JobRecord jr = std::move(it->second);
        inflight.erase(it);
        Tick now = eq.now();
        lastActivity = std::max(lastActivity, now);
        ClusterRt& cl = clusters[jr.cluster];
        ServeGroup& g = cl.fleet.groups()[jr.group];
        g.busy = false;
        g.busyTicks += jr.out.span;
        stats.redispatches += jr.out.redispatches;
        stats.recoveryPenalty += jr.out.recoveryPenalty;
        for (size_t c : jr.out.failedCards)
            applyDeath(cl, c);
        applyPendingKills(cl, g, now);
        bool strained = jr.out.redispatches > 0 || jr.out.timedOut > 0 ||
                        !jr.out.failedCards.empty();
        if (health.recordOutcome(cl.id, jr.out.ok, strained, now))
            scheduleBreakerProbe(cl.id);
        disc->finished(jr, now);
        if (jr.out.ok) {
            ++g.completed;
            ++cl.completed;
            ++stats.completed;
            ++tenant(jr.req).completed;
            stats.latency.add(now - jr.req.arrival);
            respawnClosed(jr.req);
        } else {
            // Terminal job failure: conserve the steps this attempt
            // finished and fail the request over to another route.
            failoverOrShed(jr.req, jr.out.stepEnds.size());
        }
        afterRelease(cl);
    }

    /** Card-granularity kill event (federation-global index). */
    void
    onKillCard(size_t card)
    {
        ClusterRt& cl = clusters[card / cardsPer];
        size_t local = card % cardsPer;
        if (cl.killed || cl.cardDead[local])
            return;
        ServeGroup* g = cl.fleet.groupOf(local);
        if (g && g->busy)
            return; // the in-flight job's fault plan owns this kill;
                    // reconciled in onComplete via applyPendingKills
        applyDeath(cl, local);
        dispatchIdle();
    }

    /** cluster_kill: the whole cluster dies.  In-flight jobs abort and
     *  resume from their last completed step boundary on survivors. */
    void
    onClusterKill(size_t c)
    {
        ClusterRt& cl = clusters[c];
        if (cl.killed)
            return;
        Tick now = eq.now();
        lastActivity = std::max(lastActivity, now);
        cl.killed = true;
        ++stats.clusterKills;
        health.onClusterKill(c, now);
        for (auto& g : cl.fleet.groups()) {
            g.retired = true;
            g.busy = false;
        }
        cl.cardDead.assign(cl.cardDead.size(), true);
        cl.probePending = false;

        std::vector<uint64_t> doomedJobs, doomedProbes;
        for (const auto& [id, jr] : inflight)
            if (jr.cluster == c)
                doomedJobs.push_back(id);
        for (const auto& [id, pr] : probes)
            if (pr.cluster == c)
                doomedProbes.push_back(id);
        for (uint64_t id : doomedProbes)
            probes.erase(id);
        for (uint64_t id : doomedJobs) {
            JobRecord jr = std::move(inflight[id]);
            inflight.erase(id);
            ++cl.lostJobs;
            // Checkpoint: step boundaries at or before the kill are
            // conserved; the partially executed step (if any) is the
            // one replayed step this job pays.
            size_t k = 0;
            while (k < jr.out.stepEnds.size() &&
                   jr.out.stepEnds[k] <= now)
                ++k;
            Tick lastEnd = k ? jr.out.stepEnds[k - 1] : jr.start;
            stats.recoveryPenalty += now - lastEnd;
            cl.fleet.groups()[jr.group].busyTicks += now - jr.start;
            disc->stopped(jr, now - jr.start);
            failoverOrShed(jr.req, k);
        }
        disc->flushUnservable();
        dispatchIdle();
    }

    void
    onPartitionStart(size_t c)
    {
        ClusterRt& cl = clusters[c];
        if (cl.killed || health.dead(c))
            return;
        ++stats.clusterPartitions;
        health.onPartitionStart(c, eq.now());
        // In-flight jobs keep running (the cluster is cut off, not
        // down); only new routing is gated.
    }

    void
    onPartitionHeal(size_t c)
    {
        if (health.onPartitionHeal(c, eq.now()))
            launchProbe(c); // half-open: canary decides re-admission
    }

    /** Breaker opened on error rate: schedule the half-open probe.
     *  maxProbes == 0 disables probing entirely (sticky quarantine —
     *  operator intervention assumed; the stall watchdog reports any
     *  work this strands). */
    void
    scheduleBreakerProbe(size_t c)
    {
        if (health.policy().maxProbes == 0)
            return;
        eq.schedule(eq.now() + health.policy().probeDelay(),
                    [this, c] { breakerProbe(c); });
    }

    void
    breakerProbe(size_t c)
    {
        if (health.partitioned(c))
            return; // the partition's heal event owns re-admission
        launchProbe(c);
    }

    void
    launchProbe(size_t c)
    {
        ClusterRt& cl = clusters[c];
        if (cl.killed || health.partitioned(c) ||
            health.state(c) != ClusterHealth::Quarantined ||
            health.policy().maxProbes == 0)
            return;
        ServeGroup* pick = nullptr;
        for (auto& g : cl.fleet.groups())
            if (g.live() && !g.busy) {
                pick = &g;
                break;
            }
        if (!pick) {
            // No idle group: stragglers from before the quarantine are
            // still draining; probe when the next one completes.
            cl.probePending = true;
            return;
        }
        Tick now = eq.now();
        ++stats.canaryProbes;
        ++cl.canaries;
        pick->busy = true;
        // Cheap canary: the first unit of the group's own workload at
        // Safe.  It always executes: a memoized replay would observe
        // nothing about the cluster.
        JobOutcome res = runWindow(
            cl, planOf(pick->workload, OptLevel::Safe, pick->cards),
            pick->cards, 0, 1, /*memo=*/false);
        uint64_t id = nextToken++;
        ProbeRecord& pr = probes[id];
        pr.cluster = c;
        pr.group = pick->id;
        pr.span = res.span;
        pr.ok = res.ok;
        eq.schedule(now + pr.span, [this, id] { onProbeDone(id); });
    }

    void
    onProbeDone(uint64_t id)
    {
        auto it = probes.find(id);
        if (it == probes.end())
            return; // cluster died while the probe was in flight
        ProbeRecord pr = it->second;
        probes.erase(it);
        Tick now = eq.now();
        lastActivity = std::max(lastActivity, now);
        ClusterRt& cl = clusters[pr.cluster];
        ServeGroup& g = cl.fleet.groups()[pr.group];
        g.busy = false;
        g.busyTicks += pr.span;
        bool again = health.onProbeResult(pr.cluster, pr.ok, now);
        if (pr.ok) {
            dispatchIdle(); // breaker closed: back in the rotation
        } else if (again) {
            eq.schedule(now + health.policy().probeDelay(),
                        [this, c = pr.cluster] { breakerProbe(c); });
        } else {
            // Probe budget exhausted: written off as dead.  Queued
            // work whose last route this was sheds now.
            disc->flushUnservable();
        }
        if (cl.probePending) {
            cl.probePending = false;
            launchProbe(pr.cluster);
        }
    }

    StallReport
    buildStallReport() const
    {
        StallReport rep;
        rep.tick = eq.now();
        rep.queuedRequests = disc->depth();
        for (size_t wl = 0; wl < wlNames.size(); ++wl)
            if (size_t d = disc->depthFor(wl))
                rep.depths.push_back({wlNames[wl], d});
        for (const auto& cl : clusters) {
            StallReport::ClusterLine line;
            line.cluster = cl.id;
            line.health = health.state(cl.id);
            for (const auto& g : cl.fleet.groups()) {
                line.liveGroups += g.live();
                line.busyGroups += g.live() && g.busy;
            }
            rep.clusters.push_back(line);
        }
        if (const Request* o = disc->oldest()) {
            rep.oldestRequestId = o->id;
            rep.oldestTenant = serve.tenants[o->tenant].name;
            rep.oldestAge = rep.tick - o->arrival;
        }
        return rep;
    }

    ServeStats
    go()
    {
        for (const auto& r : gen.initialArrivals())
            scheduleArrival(r);
        for (const auto& [card, tick] : faults.cardFailAt)
            if (card < cardsPer * clusters.size())
                eq.schedule(tick,
                            [this, c = card] { onKillCard(c); });
        for (const auto& [c, tick] : faults.clusterKillAt)
            if (c < clusters.size())
                eq.schedule(tick, [this, c] { onClusterKill(c); });
        for (const auto& [c, p] : faults.clusterPartitionAt) {
            if (c >= clusters.size())
                continue;
            eq.schedule(p.start, [this, c] { onPartitionStart(c); });
            eq.schedule(p.heal, [this, c] { onPartitionHeal(c); });
        }
        eq.run();

        // No-progress watchdog: the event queue drained but admitted
        // requests are still queued — every route is quarantined (with
        // probing disabled) or gone.  Report and shed rather than
        // wedge; no respawn (the run is over).
        if (disc->depth() > 0) {
            StallReport rep = buildStallReport();
            stats.stalled = true;
            stats.stallReport = rep.describe();
            noteDepth();
            for (const auto& r : disc->drainAll())
                shedAdmitted(r, /*respawn=*/false);
        }

        stats.horizon = std::max(serve.durationTicks(), lastActivity);
        if (stats.horizon > lastDepthTick)
            depthAcc += static_cast<double>(disc->depth()) *
                        static_cast<double>(stats.horizon -
                                            lastDepthTick);
        stats.meanQueueDepth =
            stats.horizon
                ? depthAcc / static_cast<double>(stats.horizon)
                : 0.0;
        stats.healthTransitions = health.transitions();
        ProgramCache::Stats pc = ProgramCache::global().stats();
        stats.progCacheHits = pc.hits - progBase.hits;
        stats.progCacheMisses = pc.misses - progBase.misses;
        stats.progCacheEvictions = pc.evictions - progBase.evictions;
        stats.progCacheEntries = pc.entries;
        stats.jobCacheHits = jobCache.hits();
        stats.jobCacheMisses = jobCache.misses();
        stats.jobCacheFaultedHits = jobCache.faultedHits();
        stats.jobCacheFaultedMisses = jobCache.faultedMisses();
        disc->report(stats);
        for (const auto& cl : clusters) {
            for (const auto& g : cl.fleet.groups()) {
                GroupStats gs;
                gs.id = g.id;
                gs.cluster = cl.id;
                gs.workload = wlNames[g.workload];
                gs.cards = g.cards.size();
                gs.completed = g.completed;
                gs.busyTicks = g.busyTicks;
                gs.retired = g.retired;
                stats.groups.push_back(gs);
            }
            ClusterStats cs;
            cs.id = cl.id;
            cs.health = clusterHealthName(health.state(cl.id));
            cs.completed = cl.completed;
            cs.failovers = cl.lostJobs;
            cs.canaryProbes = cl.canaries;
            cs.deadCards = static_cast<size_t>(std::count(
                cl.cardDead.begin(), cl.cardDead.end(), true));
            cs.killed = cl.killed;
            stats.clusters.push_back(cs);
        }
        return std::move(stats);
    }
};

/**
 * `sched=fifo`: one federation-wide AdmissionQueue (priority tier,
 * least-served tenant, then arrival order); an idle group only takes
 * requests of its own workload class.  Queue wait runs to the last
 * dispatch, service from it to completion.
 */
class FifoDiscipline final : public Discipline
{
  public:
    explicit FifoDiscipline(Engine& e)
        : e_(e), q_(e.serve.queueCapacity), served_(e.serve.tenants.size())
    {
    }

    size_t depth() const override { return q_.depth(); }
    size_t depthFor(size_t wl) const override { return q_.depthFor(wl); }
    const Request* oldest() const override { return q_.oldest(); }
    bool full() const override { return q_.full(); }
    std::vector<Request> drainAll() override { return q_.drainAll(); }
    /** New admissions were already gated on full(), so both kinds
     *  take the uncapped requeue. */
    void push(const Request& r) override { q_.requeue(r); }

    /** A class needs a native group on a cluster that is (or may heal
     *  back to) routable. */
    bool
    servable(size_t wl) const override
    {
        for (const auto& cl : e_.clusters)
            if (e_.clusterAlive(cl) && cl.fleet.servable(wl))
                return true;
        return false;
    }

    void
    flushUnservable() override
    {
        for (size_t wl = 0; wl < e_.wlNames.size(); ++wl)
            if (q_.depthFor(wl) && !servable(wl))
                shedClass(wl);
    }

    void
    cardLost(size_t wl) override
    {
        if (!servable(wl))
            shedClass(wl);
    }

    std::optional<Request>
    next(const ClusterRt&, const ServeGroup& g) override
    {
        return q_.popFor(g.workload, served_);
    }

    /** Deficit charge: spillover traffic counts double in the
     *  least-served fairness ledger, so a tenant riding failover
     *  capacity loses dequeue ties to native tenants. */
    void
    started(uint64_t, JobRecord& jr, bool) override
    {
        served_[jr.req.tenant] += jr.weight;
    }

    void
    finished(const JobRecord& jr, Tick now) override
    {
        if (!jr.out.ok)
            return;
        e_.stats.queueWait.add(jr.req.dispatched - jr.req.arrival);
        e_.stats.service.add(now - jr.req.dispatched);
    }

  private:
    void
    shedClass(size_t wl)
    {
        e_.noteDepth();
        for (const auto& r : q_.drainWorkload(wl))
            e_.shedAdmitted(r);
    }

    Engine& e_;
    AdmissionQueue q_;
    /** Dispatches per tenant, spillover counted double. */
    std::vector<uint64_t> served_;
};

/**
 * `sched=cake` (serve/cake.hh): per-(cluster, group) run-queue shards
 * ranked by the deficit ledger, work stealing across classes and
 * clusters, a starvation kick, and step-boundary preemption on
 * fault-free clusters with the unrun tail refunded.  Queue wait runs
 * to the first dispatch; service sums every executed slice.
 */
class CakeDiscipline final : public Discipline
{
  public:
    explicit CakeDiscipline(Engine& e)
        : e_(e), groupsPer_(e.clusters.front().fleet.groups().size()),
          ledger_(e.serve),
          q_(e.clusters.size() * groupsPer_, e.serve.queueCapacity)
    {
    }

    size_t depth() const override { return q_.depth(); }
    size_t depthFor(size_t wl) const override { return q_.depthFor(wl); }
    const Request* oldest() const override { return q_.oldest(); }
    bool full() const override { return q_.full(); }
    std::vector<Request> drainAll() override { return q_.drainAll(); }

    void
    push(const Request& r) override
    {
        q_.push(pickShard(r), r);
        minArrivalBound_ = std::min(minArrivalBound_, r.arrival);
    }

    bool servable(size_t) const override { return anyLiveGroup(); }

    /** Re-route stranded shards first; work sheds only when the whole
     *  federation has no live group. */
    void
    flushUnservable() override
    {
        rerouteDeadShards();
        if (!anyLiveGroup() && q_.depth()) {
            e_.noteDepth();
            for (const auto& r : q_.drainAll())
                e_.shedAdmitted(r);
        }
    }

    /** A dissolved group strands its shard; its work re-routes (or
     *  sheds, if the federation has no live group left). */
    void cardLost(size_t) override { rerouteDeadShards(); }

    void beginRound() override { markKicks(); }

    /** Pop the best-ranked request of the group's own shard, else
     *  steal from the deepest shard anywhere in the federation. */
    std::optional<Request>
    next(const ClusterRt& cl, const ServeGroup& g) override
    {
        size_t s = sid(cl.id, g.id);
        size_t victim = s;
        auto r = q_.popBest(s, ledger_);
        if (!r)
            r = q_.steal(s, ledger_, &victim);
        if (!r)
            return r;
        if (victim != s) {
            ++e_.stats.steals;
            ++e_.tenant(*r).steals;
            if (victim / groupsPer_ != cl.id)
                ++e_.stats.stealsCross;
        }
        Tick now = e_.eq.now();
        if (r->executed == 0) {
            r->firstDispatch = now;
            e_.stats.maxWaitTicks =
                std::max(e_.stats.maxWaitTicks, now - r->arrival);
        } else {
            ++e_.stats.preemptResumes;
        }
        return r;
    }

    void
    started(uint64_t id, JobRecord& jr, bool sliceable) override
    {
        ledger_.charge(jr.req.tenant, jr.out.span, jr.weight);
        if (sliceable)
            armSlice(id, jr.start);
    }

    /** Settle the dispatch's charge: the ticks it ran are executed,
     *  the unrun tail refunds (the next dispatch recharges it). */
    void
    stopped(JobRecord& jr, Tick ran) override
    {
        executedTicks_ += ran * jr.weight;
        ledger_.refund(jr.req.tenant, jr.out.span - ran, jr.weight);
        jr.req.executed += ran;
    }

    void
    finished(const JobRecord& jr, Tick) override
    {
        executedTicks_ += jr.out.span * jr.weight;
        if (!jr.out.ok)
            return;
        e_.stats.queueWait.add(jr.req.firstDispatch - jr.req.arrival);
        e_.stats.service.add(jr.req.executed + jr.out.span);
    }

    void
    report(ServeStats& st) const override
    {
        st.demotions = ledger_.demotions();
        st.promotions = ledger_.promotions();
        st.chargedTicks = ledger_.chargedTicks();
        st.refundedTicks = ledger_.refundedTicks();
        st.executedTicks = executedTicks_;
        for (size_t t = 0; t < st.tenants.size(); ++t) {
            st.tenants[t].deficitTicks = ledger_.deficit(t);
            st.tenants[t].demotions = ledger_.demotionsOf(t);
        }
    }

  private:
    /** Any live group of any alive cluster can run any workload, so a
     *  class loses its route only when the whole federation has none. */
    bool
    anyLiveGroup() const
    {
        for (const auto& cl : e_.clusters) {
            if (!e_.clusterAlive(cl))
                continue;
            for (const auto& g : cl.fleet.groups())
                if (g.live())
                    return true;
        }
        return false;
    }

    /** Shard id of a (cluster, cluster-local group) pair. */
    size_t sid(size_t cluster, size_t group) const
    {
        return cluster * groupsPer_ + group;
    }

    size_t shardCount() const { return e_.clusters.size() * groupsPer_; }

    /**
     * Admission routing: shallowest shard among the live groups that
     * natively serve `r`'s class, falling back to any live group when
     * the class has no native group left (cross-class serving).
     * Returns shardCount() when nothing is routable.
     */
    size_t
    pickShard(const Request& r) const
    {
        size_t best = shardCount();
        size_t bestDepth = 0;
        for (int pass = 0; pass < 2; ++pass) {
            for (const auto& cl : e_.clusters) {
                if (!e_.clusterAlive(cl))
                    continue;
                for (const auto& g : cl.fleet.groups()) {
                    if (!g.live())
                        continue;
                    if (pass == 0 && g.workload != r.workload)
                        continue;
                    size_t s = sid(cl.id, g.id);
                    size_t d = q_.shardDepth(s);
                    if (best == shardCount() || d < bestDepth) {
                        best = s;
                        bestDepth = d;
                    }
                }
            }
            if (best != shardCount())
                break; // native pass found a home
        }
        return best;
    }

    /** Re-route queued work stranded on the shard of a dissolved
     *  group or a dead/killed cluster; sheds only when the whole
     *  federation has no live group left. */
    void
    rerouteDeadShards()
    {
        for (auto& cl : e_.clusters) {
            bool clusterOk = e_.clusterAlive(cl);
            for (auto& g : cl.fleet.groups()) {
                size_t s = sid(cl.id, g.id);
                if ((clusterOk && g.live()) || !q_.shardDepth(s))
                    continue;
                e_.noteDepth();
                for (const auto& r : q_.drainShard(s)) {
                    size_t to = pickShard(r);
                    if (to == shardCount())
                        e_.shedAdmitted(r);
                    else
                        q_.push(to, r);
                }
            }
        }
    }

    /** Starvation sweep: mark queued requests older than the kick cap
     *  so they outrank every tier and deficit at the next dispatch.
     *  Gated on a lower arrival bound, so runs where work is served
     *  within its budget never pay for the scan. */
    void
    markKicks()
    {
        Tick now = e_.eq.now();
        Tick kick = e_.serve.kickTicks();
        if (!q_.depth() || minArrivalBound_ > now ||
            now - minArrivalBound_ < kick)
            return;
        minArrivalBound_ =
            q_.kickStarved(now, kick, [this](const Request& r) {
                ++e_.stats.kicks;
                ++e_.tenant(r).kicks;
            });
    }

    /** Arm the next slice check of job `id`: the first step boundary
     *  at least one wait budget past `from` that still leaves a step
     *  after it.  No-op when no such boundary exists (short jobs run
     *  whole). */
    void
    armSlice(uint64_t id, Tick from)
    {
        JobRecord& jr = e_.inflight[id];
        // Per-tier quantum: hog-prone low tiers can be sliced finer
        // than latency-tier jobs (spec quanta; legacy = tier-0 wait
        // budget for everyone).  The AQM-demoted tier is used, so a
        // demoted hog inherits the deeper tier's (usually shorter)
        // slice.
        Tick quantum =
            e_.serve.quantumTicks(ledger_.effectiveTier(jr.req.tenant));
        const auto& ends = jr.out.stepEnds;
        for (size_t k = 0; k + 1 < ends.size(); ++k) {
            if (ends[k] < from + quantum)
                continue;
            jr.sliceEnd = ends[k];
            jr.sliceSteps = k + 1;
            e_.eq.schedule(ends[k], [this, id] { onSliceCheck(id); });
            return;
        }
        jr.sliceEnd = 0;
    }

    /** Slice checkpoint: with work queued, preempt here — the group
     *  frees, the remainder requeues from this step boundary with its
     *  unrun span refunded; with nothing queued, re-arm one budget
     *  further out and let the job run. */
    void
    onSliceCheck(uint64_t id)
    {
        auto it = e_.inflight.find(id);
        if (it == e_.inflight.end() || it->second.sliceEnd != e_.eq.now())
            return; // completed, aborted, or stale
        if (q_.depth() == 0) {
            armSlice(id, e_.eq.now());
            return;
        }
        JobRecord jr = std::move(it->second);
        e_.inflight.erase(it);
        Tick now = e_.eq.now();
        e_.lastActivity = std::max(e_.lastActivity, now);
        ClusterRt& cl = e_.clusters[jr.cluster];
        ServeGroup& g = cl.fleet.groups()[jr.group];
        g.busy = false;
        Tick ran = now - jr.start;
        g.busyTicks += ran;
        stopped(jr, ran);
        ++e_.stats.preemptions;
        ++e_.tenant(jr.req).preemptions;

        Request r = jr.req;
        size_t total = e_.unitTotal(r.workload, e_.tenantOpt[r.tenant]);
        r.firstStep = std::min(r.firstStep + jr.sliceSteps, total);
        e_.enqueue(r);
        e_.afterRelease(cl);
    }

    Engine& e_;
    size_t groupsPer_; // shards per cluster (identical machines)
    DeficitLedger ledger_;
    CakeQueue q_;
    /** Lower bound on the earliest queued arrival: the starvation
     *  sweep runs only once `now` passes bound + kick. */
    Tick minArrivalBound_ = ~Tick{0};
    /** Ticks actually executed, weighted like the ledger's charges:
     *  chargedTicks == refundedTicks + executedTicks, mod 2^64. */
    uint64_t executedTicks_ = 0;
};

Engine::Engine(const PrototypeSpec& spec_, const ServeSpec& serve_,
               const FaultPlan& faults_, const RetryPolicy& retry_,
               const HealthPolicy& health_)
    : spec(spec_), serve(serve_), faults(faults_), retry(retry_),
      runner(spec_), wlNames(serve_.workloadTable()), gen(serve_, wlNames),
      health(serve_.clusters ? serve_.clusters : 1, health_),
      cardsPer(spec_.cluster.totalCards())
{
    models.reserve(wlNames.size());
    for (const auto& n : wlNames)
        models.push_back(workloadByName(n));
    size_t n = serve.clusters ? serve.clusters : 1;
    clusters.reserve(n);
    for (size_t c = 0; c < n; ++c)
        clusters.emplace_back(c, spec, serve, wlNames,
                              clusterLocalPlan(faults, c, cardsPer));
    stats.sched = schedPolicyName(serve.sched);
    stats.tenants.resize(serve.tenants.size());
    for (size_t i = 0; i < serve.tenants.size(); ++i)
        stats.tenants[i].name = serve.tenants[i].name;
    tenantOpt.reserve(serve.tenants.size());
    for (const auto& t : serve.tenants)
        tenantOpt.push_back(t.opt);
    progBase = ProgramCache::global().stats();
    if (serve.sched == SchedPolicy::Cake)
        disc = std::make_unique<CakeDiscipline>(*this);
    else
        disc = std::make_unique<FifoDiscipline>(*this);
}

} // namespace

Federation::Federation(PrototypeSpec spec, ServeSpec serve,
                       FaultPlan faults, RetryPolicy retry,
                       HealthPolicy health)
    : spec_(std::move(spec)), serve_(std::move(serve)),
      faults_(std::move(faults)), retry_(retry), health_(health)
{
}

ServeStats
Federation::run()
{
    Engine eng(spec_, serve_, faults_, retry_, health_);
    return eng.go();
}

} // namespace hydra
