/**
 * @file
 * The serving engine: a multi-tenant discrete-event simulation that
 * turns one-shot inference into sustained throughput on a shared
 * virtual clock, over a federation of fault domains — the paper's
 * Procedure-2 host scheduler extended one level up (the ROADMAP's
 * "millions of users" shape).  A single machine is the federation
 * with `clusters=1`.
 *
 * Pipeline per request: workload generator -> bounded admission queue
 * (shed on full) -> the queue discipline picks the next request of an
 * idle card group -> InferenceRunner::runJob on the group's cards ->
 * ServeStats roll-up (throughput, utilization, p50/p95/p99 latency).
 *
 * A Federation owns N identical clusters (the machine replicated
 * `ServeSpec::clusters` times) on one shared virtual clock.  Every
 * cluster gets its own fleet partition (same group plan) and cards are
 * numbered federation-globally: cluster c owns [c*P, (c+1)*P).
 *
 * Clock composition: the serve clock is absolute virtual time.  Jobs
 * dispatched at t0 run with the cluster executor's time origin set to
 * t0, so FaultPlan::cardFailAt ticks are absolute serve-clock times
 * and a kill lands in whatever job (or idle period) covers it.  Every
 * cluster replays memoized unit windows from the JobCache
 * (serve/jobcache.hh), span-exact, as long as the window is pure: no
 * kill on the group's cards reaches it.  A window a kill can reach
 * executes for real.  Executed jobs resolve their compiled Programs
 * through the shared ProgramCache.  Both keep million-request
 * simulations fast and bit-deterministic.
 *
 * Card faults: transient faults (drop/corrupt/degrade) apply inside
 * every job; permanent card kills are consumed by the job in flight
 * (degraded completion via survivor re-dispatch) or by the serve loop
 * when the card is idle.  Either way the fleet partition repairs
 * itself: groups shrink in place until minCards, then dissolve and
 * donate survivors to a sibling; work that lost its last route sheds
 * with a structured no-capacity reason.
 *
 * Routing tier: idle groups of *routable* clusters (healthy first,
 * then degraded — see serve/health.hh) pull admitted work.
 * Quarantined and dead clusters receive nothing, so capacity loss
 * shows up as spillover onto the survivors, and failover traffic is
 * deficit-charged at dispatch (an extra least-served-fairness count
 * against its tenant) so it cannot starve native tenants.
 *
 * Cluster-granularity faults (FaultPlan):
 *  - cluster_kill (`ckill=C@S`): the cluster dies at tick S.  Its
 *    cards are gone, its in-flight jobs abort, and each aborted job is
 *    re-queued to resume *from its last completed unit boundary* on a
 *    survivor via InferenceRunner::runJob(plan, ..., first_unit) — the
 *    checkpointed-recovery path.  The accounting split proves work
 *    conservation: `recoveredSteps` counts boundaries conserved,
 *    `replayedSteps` the at-most-one partially-executed unit per
 *    in-flight job that must re-run.
 *  - cluster_partition (`cpart=C@S:W`): the cluster is unreachable for
 *    new work during [S, S+W).  Work already on it keeps running; at
 *    the healing window's end the breaker half-opens and a canary job
 *    probes the cluster back into service.
 *
 * Terminal job failures (exhausted retries, deadlock) also fail over:
 * the request re-queues with its completed steps conserved, bounded by
 * a per-request failover budget, then sheds with a structured reason.
 *
 * No-progress watchdog: when the event queue drains while admitted
 * requests are still queued (every possible route quarantined or dead
 * with probing disabled), the run does not wedge silently — it emits
 * a structured StallReport (queue depths, per-cluster health, oldest
 * pending request) and sheds the stuck work, keeping the accounting
 * identity admitted == completed + shedAfterAdmit exact.
 *
 * Scheduling policy (`sched=fifo|cake`, serve/cake.hh, DESIGN.md
 * §14): one dispatch loop and one job-start body serve both; the
 * policy only selects the queue discipline.  Fifo keeps one
 * federation-wide AdmissionQueue (priority, tenant fairness, arrival
 * order; a group takes only its own class) with bit-stable stats
 * hashes.  Cake swaps in per-tenant deficit accounting, step-boundary
 * preemption (fault-free clusters only, unrun tail deficit-refunded),
 * wait-budget AQM tier demotion plus a starvation kick, and
 * per-(cluster, group) run-queue shards with work stealing across
 * groups and clusters.
 */

#ifndef HYDRA_SERVE_FEDERATION_HH
#define HYDRA_SERVE_FEDERATION_HH

#include "serve/health.hh"
#include "serve/partition.hh"
#include "serve/queue.hh"
#include "serve/stats.hh"
#include "sync/fault.hh"

namespace hydra {

/** Runs one serving experiment over a federation of clusters. */
class Federation
{
  public:
    /**
     * @param spec machine description of ONE cluster (copied); the
     *        federation replicates it `serve.clusters` times
     * @param serve serving experiment (tenants, partition, queue,
     *        cluster count)
     * @param faults federation-global fault plan; card indices are
     *        federation-global, cluster faults name cluster indices,
     *        and all ticks are absolute serve-clock times
     * @param retry DTU retry policy forwarded to every job
     * @param health circuit-breaker thresholds of the routing tier
     */
    Federation(PrototypeSpec spec, ServeSpec serve, FaultPlan faults = {},
               RetryPolicy retry = {}, HealthPolicy health = {});

    /**
     * Run to completion: arrivals stop at the spec horizon, admitted
     * work drains (or is shed with a StallReport when it cannot).
     * Deterministic: same spec + seed + faults give a bit-identical
     * ServeStats (same hash()), independent of HYDRA_THREADS.
     */
    ServeStats run();

    const PrototypeSpec& spec() const { return spec_; }
    const ServeSpec& serveSpec() const { return serve_; }
    size_t clusterCount() const { return serve_.clusters; }

  private:
    PrototypeSpec spec_;
    ServeSpec serve_;
    FaultPlan faults_;
    RetryPolicy retry_;
    HealthPolicy health_;
};

} // namespace hydra

#endif // HYDRA_SERVE_FEDERATION_HH
