/**
 * @file
 * Tests for the serving engine.  Single-cluster serving: deterministic
 * replay, overload shedding, fault-triggered repartitioning, request
 * accounting and compile reuse.  Federated chaos: cluster kills with
 * checkpointed job recovery, partition healing via canary probes,
 * error-rate quarantine, the no-progress watchdog, and the accounting
 * + determinism invariants that must survive all of it.
 */

#include <gtest/gtest.h>

#include "baselines/prototypes.hh"
#include "common/parallel.hh"
#include "sched/execplan.hh"
#include "sched/progcache.hh"
#include "serve/federation.hh"
#include "serve/jobcache.hh"
#include "workloads/model.hh"

namespace hydra {
namespace {

ServeStats
runFed(const std::string& machine, const std::string& spec,
       const std::string& faults = "", HealthPolicy health = {})
{
    Federation fed(machineByName(machine), ServeSpec::parse(spec),
                   FaultPlan::parse(faults), RetryPolicy{}, health);
    return fed.run();
}

/**
 * The federation-wide accounting identities: every offered request is
 * completed or shed, and every admitted request is completed or shed
 * after admission (nothing is ever lost in flight, even across
 * failovers and stall flushes).
 */
void
expectAccounted(const ServeStats& st)
{
    EXPECT_EQ(st.offered, st.completed + st.shed);
    EXPECT_EQ(st.admitted, st.completed + st.shedAfterAdmit);
    EXPECT_EQ(st.shed, st.shedQueueFull + st.shedNoCapacity);
    uint64_t t_off = 0, t_done = 0, t_shed = 0;
    for (const auto& t : st.tenants) {
        t_off += t.offered;
        t_done += t.completed;
        t_shed += t.shed;
    }
    EXPECT_EQ(t_off, st.offered);
    EXPECT_EQ(t_done, st.completed);
    EXPECT_EQ(t_shed, st.shed);
    uint64_t c_done = 0;
    for (const auto& c : st.clusters)
        c_done += c.completed;
    EXPECT_EQ(c_done, st.completed);
}

// A closed-loop pool that keeps every cluster's group busy the whole
// run: deterministic pressure, so a mid-run cluster kill is guaranteed
// to catch in-flight jobs.
const char* kFedPool =
    "seed=9,duration=40,clusters=4,group=resnet18:8,"
    "tenant=pool:closed:resnet18:8:0";

// ---------------------------------------------------------------------
// Single-cluster serving (clusters=1, the default)
// ---------------------------------------------------------------------

const char* kMixed =
    "seed=5,duration=120,tenant=vision:open:resnet18:0.05,"
    "tenant=nlp:open:bert:0.005";

TEST(ServeSim, SameSeedIdenticalStats)
{
    ServeStats a = runFed("hydra-m", kMixed);
    ServeStats b = runFed("hydra-m", kMixed);
    ASSERT_GT(a.completed, 0u);
    EXPECT_EQ(a.hash(), b.hash());
    EXPECT_EQ(a.horizon, b.horizon);
    expectAccounted(a);
    ASSERT_EQ(a.clusters.size(), 1u);
    EXPECT_EQ(a.clusters[0].health, "healthy");
    EXPECT_FALSE(a.stalled);

    ServeStats c = runFed(
        "hydra-m",
        "seed=6,duration=120,tenant=vision:open:resnet18:0.05,"
        "tenant=nlp:open:bert:0.005");
    EXPECT_NE(a.hash(), c.hash());
}

TEST(ServeSim, JobsReuseCompiledPrograms)
{
    ProgramCache& cache = ProgramCache::global();
    cache.clear();
    cache.resetStats();
    // A straggler puts fault injection on the cluster: its windows
    // memoize in the faulted key space, counted apart from the
    // fault-free counters.  The windows that do execute share compiled
    // Programs: after the first job of each class every step lookup
    // hits.
    ServeStats st = runFed("hydra-m", kMixed, "straggle=0:1.5");
    ASSERT_GT(st.completed, 1u);
    EXPECT_EQ(st.jobCacheHits + st.jobCacheMisses, 0u);
    EXPECT_GT(st.jobCacheFaultedHits, 0u);
    EXPECT_GT(st.jobCacheFaultedMisses, 0u);
    ProgramCache::Stats cs = cache.stats();
    EXPECT_GT(cs.hits, 0u);
    EXPECT_GT(cs.hitRate(), 0.5);
    EXPECT_LT(cs.entries, cs.hits + cs.misses);

    // Fault-free, the same fifo run replays memoized windows instead.
    EXPECT_GT(runFed("hydra-m", kMixed).jobCacheHits, 0u);
}

TEST(ServeSim, ClosedLoopSustainsLoad)
{
    ServeStats st = runFed(
        "hydra-m",
        "seed=2,duration=100,tenant=pool:closed:resnet18:2:1");
    // Two clients on a ~13s service: each finishes several requests.
    EXPECT_GE(st.completed, 8u);
    EXPECT_EQ(st.shed, 0u);
    expectAccounted(st);
}

TEST(ServeSim, QueueOverflowSheds)
{
    // One slow 8-card BERT group (~60 s/job), queue bound 2, and an
    // aggressive open stream: most arrivals must shed on a full queue,
    // and everything admitted still drains.
    ServeStats st = runFed(
        "hydra-m",
        "seed=3,duration=120,queue=2,tenant=nlp:open:bert:0.5");
    EXPECT_GT(st.shedQueueFull, 0u);
    EXPECT_EQ(st.admitted, st.completed);
    EXPECT_LE(st.maxQueueDepth, 2u);
    expectAccounted(st);
}

TEST(ServeSim, KillBelowFloorDissolvesAndSheds)
{
    // The resnet18 group starts at its 2-card floor; the kill pushes
    // it below, there is no sibling to donate to, so the class loses
    // all capacity: queued and future vision requests shed.
    ServeStats st = runFed(
        "hydra-m",
        "seed=5,duration=120,tenant=vision:open:resnet18:0.05,"
        "tenant=nlp:open:bert:0.005,group=resnet18:2:2,group=bert:6",
        "kill=1@30");
    ASSERT_EQ(st.failedCards.size(), 1u);
    EXPECT_EQ(st.failedCards[0], 1u);
    EXPECT_EQ(st.repartitions, 1u);
    EXPECT_GT(st.shedNoCapacity, 0u);
    ASSERT_EQ(st.groups.size(), 2u);
    EXPECT_TRUE(st.groups[0].retired);
    EXPECT_FALSE(st.groups[1].retired);
    expectAccounted(st);

    // The nlp tenant's group is untouched: it sheds nothing.
    for (const auto& t : st.tenants) {
        if (t.name == "nlp") {
            EXPECT_EQ(t.shed, 0u);
        }
    }
}

TEST(ServeSim, KillWithSiblingDonatesAndCompletes)
{
    ServeStats st = runFed(
        "hydra-m",
        "seed=5,duration=120,tenant=vision:open:resnet18:0.05,"
        "group=resnet18:2:2,group=resnet18:6",
        "kill=1@30");
    EXPECT_EQ(st.repartitions, 1u);
    EXPECT_EQ(st.shed, 0u);
    EXPECT_EQ(st.offered, st.completed);
    ASSERT_EQ(st.groups.size(), 2u);
    EXPECT_TRUE(st.groups[0].retired);
    // The survivor joined the sibling group.
    EXPECT_EQ(st.groups[1].cards, 7u);
    expectAccounted(st);
}

TEST(ServeSim, FaultRunStaysDeterministic)
{
    const char* spec =
        "seed=5,duration=120,tenant=vision:open:resnet18:0.05,"
        "tenant=nlp:open:bert:0.005,group=resnet18:2:2,group=bert:6";
    ServeStats a = runFed("hydra-m", spec, "kill=1@30");
    ServeStats b = runFed("hydra-m", spec, "kill=1@30");
    EXPECT_EQ(a.hash(), b.hash());
}

TEST(ServeSim, TraceReplayArrivesOnSchedule)
{
    ServeStats st = runFed(
        "hydra-m",
        "seed=1,duration=60,at=0:r:resnet18,at=5:r:resnet18,"
        "at=10:r:resnet18,group=resnet18:8");
    EXPECT_EQ(st.offered, 3u);
    EXPECT_EQ(st.completed, 3u);
    expectAccounted(st);
}

TEST(ServeSim, JsonCarriesHeadlineFields)
{
    ServeStats st = runFed("hydra-m", kMixed);
    std::string js = st.toJson("Hydra-M", "test-spec");
    for (const char* key :
         {"\"machine\"", "\"throughput_rps\"", "\"p50\"", "\"p95\"",
          "\"p99\"", "\"shed\"", "\"tenants\"", "\"groups\"",
          "\"hash\""})
        EXPECT_NE(js.find(key), std::string::npos) << key;
}

// ---------------------------------------------------------------------
// Federated chaos
// ---------------------------------------------------------------------

TEST(Federation, GoldenFifoHashesUnderClusterFaults)
{
    // Fifo failover accounting pinned under cluster faults (captured
    // before fifo and cake shared one dispatch path): queue wait runs
    // to the LAST dispatch and service from it, unlike cake's
    // first-dispatch / executed-slices split.
    EXPECT_EQ(runFed("hydra-m", kFedPool, "ckill=1@30").hash(),
              0xbbc08f4466561766ull);
    EXPECT_EQ(runFed("hydra-m",
                     "seed=3,duration=60,clusters=2,group=resnet18:8,"
                     "tenant=pool:closed:resnet18:4:0",
                     "cpart=1@10:15")
                  .hash(),
              0xd8b0ce7e1c7d8f9bull);
}

TEST(Federation, ClusterKillFailsOverAndRecovers)
{
    ServeStats st = runFed("hydra-m", kFedPool, "ckill=1@30");

    EXPECT_EQ(st.clusterKills, 1u);
    // The killed cluster had a job in flight: it failed over and its
    // completed step boundaries were conserved.
    EXPECT_GE(st.failovers, 1u);
    EXPECT_GE(st.recoveredSteps, 1u);
    // At most the one partially-executed step per aborted job re-runs.
    EXPECT_LE(st.replayedSteps, st.failovers);
    // The failed-over request was re-dispatched on a survivor.
    EXPECT_GE(st.spilled, 1u);
    EXPECT_GE(st.healthTransitions, 1u);

    // Every non-shed request completed on the survivors; a kill with
    // three healthy clusters left sheds nothing.
    EXPECT_EQ(st.shedAfterAdmit, 0u);
    EXPECT_GT(st.completed, 0u);
    EXPECT_FALSE(st.stalled);
    expectAccounted(st);

    ASSERT_EQ(st.clusters.size(), 4u);
    EXPECT_TRUE(st.clusters[1].killed);
    EXPECT_EQ(st.clusters[1].health, "dead");
    EXPECT_EQ(st.clusters[1].deadCards, 8u);
    EXPECT_EQ(st.clusters[1].failovers, st.failovers);
    for (size_t c : {0u, 2u, 3u}) {
        EXPECT_FALSE(st.clusters[c].killed);
        EXPECT_EQ(st.clusters[c].health, "healthy");
        EXPECT_GT(st.clusters[c].completed, 0u);
    }
    ASSERT_EQ(st.groups.size(), 4u);
    for (size_t c = 0; c < 4; ++c)
        EXPECT_EQ(st.groups[c].cluster, c);
    EXPECT_TRUE(st.groups[1].retired);
}

TEST(Federation, ChaosRunsAreBitIdentical)
{
    ServeStats a = runFed("hydra-m", kFedPool, "ckill=1@30");
    ServeStats b = runFed("hydra-m", kFedPool, "ckill=1@30");
    EXPECT_EQ(a.hash(), b.hash());

    // ... and independent of the host thread count.
    size_t saved = ThreadPool::instance().threadCount();
    ThreadPool::instance().setThreadCount(1);
    ServeStats c = runFed("hydra-m", kFedPool, "ckill=1@30");
    ThreadPool::instance().setThreadCount(4);
    ServeStats d = runFed("hydra-m", kFedPool, "ckill=1@30");
    ThreadPool::instance().setThreadCount(saved);
    EXPECT_EQ(a.hash(), c.hash());
    EXPECT_EQ(a.hash(), d.hash());
}

TEST(Federation, CheckpointResumeIsExact)
{
    // The serving layer's recovery contract, at the runner level: a
    // job split at any step boundary replays to exactly the same
    // clock as the uninterrupted run.
    InferenceRunner runner(machineByName("hydra-m"));
    WorkloadModel m = workloadByName("resnet18");
    CardGroup g = CardGroup::contiguous(0, 8);
    std::shared_ptr<const ExecPlan> plan = runner.planForJob(m, g);
    InferenceResult full = runner.runJob(*plan, g, 0);
    ASSERT_TRUE(full.ok());
    ASSERT_EQ(full.stepEnds.size(), m.steps.size());

    size_t k = m.steps.size() / 2;
    ASSERT_GT(k, 0u);
    InferenceResult head =
        runner.runJob(*plan, g, 0, FaultPlan{}, RetryPolicy{}, 0, k);
    ASSERT_TRUE(head.ok());
    ASSERT_EQ(head.stepEnds.size(), k);
    EXPECT_EQ(head.stepEnds.back(), full.stepEnds[k - 1]);
    // Resume from the checkpoint boundary, on the shared clock.
    InferenceResult tail = runner.runJob(*plan, g, head.total.makespan,
                                         FaultPlan{}, RetryPolicy{}, k);
    ASSERT_TRUE(tail.ok());
    EXPECT_EQ(head.total.makespan + tail.total.makespan,
              full.total.makespan);
    EXPECT_EQ(head.stepEnds.size() + tail.stepEnds.size(),
              full.stepEnds.size());
}

TEST(Federation, CheckpointResumeIsExactOnAggressivePlans)
{
    // The same recovery contract over an Aggressive ExecPlan: windows
    // index multi-layer units, and a job split at any *unit* boundary
    // replays to exactly the clock of the uninterrupted run.
    PrototypeSpec spec = machineByName("hydra-m");
    InferenceRunner runner(spec);
    WorkloadModel m = workloadByName("bert");
    CardGroup g = CardGroup::contiguous(0, 8);
    std::shared_ptr<const ExecPlan> plan =
        runner.planForJob(m, g, OptLevel::Aggressive);
    ASSERT_LT(plan->size(), m.steps.size()); // passes really fused
    size_t multi = 0;
    for (const ExecUnit& u : plan->units)
        multi += u.steps.size() > 1;
    ASSERT_GT(multi, 0u);

    InferenceResult full = runner.runJob(*plan, g, 0);
    ASSERT_TRUE(full.ok());
    ASSERT_EQ(full.stepEnds.size(), plan->size());

    size_t k = plan->size() / 2;
    ASSERT_GT(k, 0u);
    InferenceResult head =
        runner.runJob(*plan, g, 0, FaultPlan{}, RetryPolicy{}, 0, k);
    ASSERT_TRUE(head.ok());
    ASSERT_EQ(head.stepEnds.size(), k);
    EXPECT_EQ(head.stepEnds.back(), full.stepEnds[k - 1]);
    InferenceResult tail = runner.runJob(*plan, g, head.total.makespan,
                                         FaultPlan{}, RetryPolicy{}, k);
    ASSERT_TRUE(tail.ok());
    EXPECT_EQ(head.total.makespan + tail.total.makespan,
              full.total.makespan);
    EXPECT_EQ(head.stepEnds.size() + tail.stepEnds.size(),
              full.stepEnds.size());
}

TEST(Federation, AggressiveClusterKillFailsOverAtUnitBoundaries)
{
    // A mid-run cluster kill against opt=aggressive tenants: in-flight
    // jobs fail over with their completed *unit* boundaries conserved,
    // at most the one partially-executed unit replays, and the chaos
    // runs stay bit-identical.
    std::string spec = std::string(kFedPool) + ",opt=aggressive";
    ServeStats st = runFed("hydra-m", spec, "ckill=1@30");
    EXPECT_EQ(st.clusterKills, 1u);
    EXPECT_GE(st.failovers, 1u);
    EXPECT_GE(st.recoveredSteps, 1u);
    EXPECT_LE(st.replayedSteps, st.failovers);
    EXPECT_GE(st.spilled, 1u);
    EXPECT_EQ(st.shedAfterAdmit, 0u);
    EXPECT_GT(st.completed, 0u);
    EXPECT_FALSE(st.stalled);
    expectAccounted(st);

    EXPECT_EQ(st.hash(), runFed("hydra-m", spec, "ckill=1@30").hash());
    // Different plans, different fingerprint than the Safe chaos run.
    EXPECT_NE(st.hash(), runFed("hydra-m", kFedPool, "ckill=1@30").hash());
}

TEST(Federation, PartitionHealsViaCanaryProbe)
{
    ServeStats st = runFed(
        "hydra-m",
        "seed=3,duration=60,clusters=2,group=resnet18:8,"
        "tenant=pool:closed:resnet18:4:0",
        "cpart=1@10:15");

    EXPECT_EQ(st.clusterPartitions, 1u);
    EXPECT_EQ(st.clusterKills, 0u);
    // The healing window ended, a canary probed the cluster, and the
    // breaker closed again.
    EXPECT_GE(st.canaryProbes, 1u);
    EXPECT_GE(st.healthTransitions, 2u); // quarantined + healthy again
    ASSERT_EQ(st.clusters.size(), 2u);
    EXPECT_EQ(st.clusters[0].health, "healthy");
    EXPECT_EQ(st.clusters[1].health, "healthy");
    EXPECT_EQ(st.clusters[1].canaryProbes, st.canaryProbes);
    // Back in rotation after the heal: the cluster kept completing.
    EXPECT_GT(st.clusters[1].completed, 0u);
    EXPECT_EQ(st.shed, 0u);
    EXPECT_FALSE(st.stalled);
    expectAccounted(st);

    ServeStats again = runFed(
        "hydra-m",
        "seed=3,duration=60,clusters=2,group=resnet18:8,"
        "tenant=pool:closed:resnet18:4:0",
        "cpart=1@10:15");
    EXPECT_EQ(st.hash(), again.hash());
}

TEST(Federation, ErrorStormQuarantinesThenWritesOffCluster)
{
    // Every transfer drops: every job fails terminally, the breaker
    // opens on the error-rate window, every canary probe fails, and
    // the probe budget writes the cluster off as dead — after which
    // arrivals shed with a structured no-capacity reason instead of
    // queueing forever.
    ServeStats st = runFed(
        "hydra-m",
        "seed=4,duration=30,clusters=1,group=resnet18:8,"
        "tenant=vision:open:resnet18:1",
        "drop=1");

    EXPECT_EQ(st.completed, 0u);
    EXPECT_GT(st.shed, 0u);
    EXPECT_GE(st.canaryProbes, 1u);
    ASSERT_EQ(st.clusters.size(), 1u);
    EXPECT_EQ(st.clusters[0].health, "dead");
    EXPECT_FALSE(st.clusters[0].killed); // died of errors, not a fault
    EXPECT_FALSE(st.stalled); // the dead cluster flushed its queue
    expectAccounted(st);
}

TEST(Federation, StallWatchdogReportsInsteadOfWedging)
{
    // Probing disabled (maxProbes = 0): quarantine is sticky, so once
    // the error storm opens the breaker nothing can ever dispatch
    // again — the watchdog must report the wedge and shed the stuck
    // queue instead of losing it.
    HealthPolicy hp;
    hp.maxProbes = 0;
    ServeStats st = runFed(
        "hydra-m",
        "seed=4,duration=30,clusters=1,group=resnet18:8,"
        "tenant=vision:open:resnet18:1",
        "drop=1", hp);

    EXPECT_TRUE(st.stalled);
    EXPECT_NE(st.stallReport.find("stall at"), std::string::npos)
        << st.stallReport;
    EXPECT_NE(st.stallReport.find("quarantined"), std::string::npos)
        << st.stallReport;
    EXPECT_NE(st.stallReport.find("oldest pending"), std::string::npos)
        << st.stallReport;
    EXPECT_EQ(st.completed, 0u);
    EXPECT_EQ(st.canaryProbes, 0u);
    expectAccounted(st); // the identities survive the stall flush
}

TEST(Federation, DegradedRedispatchUnderServingLoad)
{
    // Card-granularity kill mid-run under sustained federated load
    // (satellite of PR 2's degraded re-dispatch): the in-flight job
    // consumes the kill, re-dispatches onto the group's survivors,
    // and the fleet repairs in place — no request is lost.
    const char* spec =
        "seed=11,duration=40,clusters=2,group=resnet18:8,"
        "tenant=pool:closed:resnet18:4:0,at=5:replay:resnet18";
    // Global card 11 = cluster 1, local card 3.
    ServeStats st = runFed("hydra-m", spec, "kill=11@10");

    ASSERT_EQ(st.failedCards.size(), 1u);
    EXPECT_EQ(st.failedCards[0], 11u);
    EXPECT_GE(st.redispatches, 1u);
    EXPECT_GT(st.recoveryPenalty, 0u);
    EXPECT_EQ(st.shedAfterAdmit, 0u); // degraded completion, not loss
    expectAccounted(st);
    ASSERT_EQ(st.groups.size(), 2u);
    EXPECT_EQ(st.groups[1].cluster, 1u);
    EXPECT_EQ(st.groups[1].cards, 7u); // shrank in place
    EXPECT_FALSE(st.groups[1].retired);

    ServeStats again = runFed("hydra-m", spec, "kill=11@10");
    EXPECT_EQ(st.hash(), again.hash());
}

// Two 8-card clusters with a 4-card and a 2-card (floor 2) resnet18
// group each; cards 6 and 7 of each cluster (globals 6, 7, 14, 15)
// belong to no group.  Closed-loop pressure keeps every group busy,
// so cake slices on fault-free clusters and steals across them.
const char* kMatrixPool =
    "seed=11,duration=120,clusters=2,group=resnet18:4,"
    "group=resnet18:2:2,tenant=pool:closed:resnet18:8:0.5";

TEST(Federation, FaultedSpecMatrixIsPinned)
{
    // Hashes and fault-free JobCache counters of faulted runs, pinned
    // before faulted clusters could memoize pure windows: memoizing a
    // window no kill can reach must change neither the outcome nor
    // the fault-free clusters' cache traffic.
    struct Pin
    {
        const char* faults;
        double timeoutMs; // per-attempt retry timer; 0 = none
        uint64_t fifoHash, fifoHits, fifoMisses;
        uint64_t cakeHash, cakeHits, cakeMisses;
    };
    const Pin pins[] = {
        // Cluster 1's 4-card group straggles.
        {"straggle=9:1.5", 0,
         0xe72c4168e52bdf9dull, 15, 2,
         0x0be40c8be6a587d9ull, 175, 48},
        // Transient transfer faults everywhere under a 2 ms retry
        // timer: timeouts strain the clusters and some jobs fail.
        {"seed=3,drop=0.02,corrupt=0.01", 2,
         0x7568a82b20fe055cull, 0, 0,
         0x103e7ca038db4d5full, 0, 0},
        {"degrade=1.5", 0,
         0xed0bc5ac84e7c3d4ull, 0, 0,
         0x3e9947e88adf9258ull, 0, 0},
        {"dropfirst=1", 0,
         0x1b04f9808f587884ull, 0, 0,
         0x1a02fa37859ea668ull, 0, 0},
        // A kill mid-run dissolves cluster 1's 2-card group.
        {"kill=13@20", 0,
         0x5c90aa4befaf690aull, 15, 2,
         0xe175728d03dcbe9aull, 166, 50},
        // A kill at tick 0 shrinks cluster 1's 4-card group.
        {"kill=9@0", 0,
         0xee03cc88a46c95ccull, 14, 2,
         0x9985572900c6c7ebull, 152, 48},
        // A kill on a card no group owns.
        {"kill=15@20", 0,
         0xbe5db4f6af4afc18ull, 14, 2,
         0xe7532c9e50bdb6d3ull, 168, 47},
        // All of the above at once, under a 3 ms retry timer.
        {"seed=5,drop=0.02,corrupt=0.01,degrade=1.25,dropfirst=1,"
         "straggle=10:2,kill=13@20,kill=8@0,kill=15@20",
         3,
         0xd6ab2dd76d58688full, 0, 0,
         0xcf028d8b8aeffb6full, 0, 0},
    };
    for (const Pin& p : pins) {
        RetryPolicy retry;
        if (p.timeoutMs > 0)
            retry.timeout = secondsToTicks(p.timeoutMs * 1e-3);
        for (bool cake : {false, true}) {
            std::string spec =
                std::string(cake ? "sched=cake," : "") + kMatrixPool;
            Federation fed(machineByName("hydra-m"),
                           ServeSpec::parse(spec),
                           FaultPlan::parse(p.faults), retry,
                           HealthPolicy{});
            ServeStats st = fed.run();
            SCOPED_TRACE(testing::Message()
                         << (cake ? "cake " : "fifo ") << p.faults);
            expectAccounted(st);
            EXPECT_GT(st.completed, 0u);
            EXPECT_EQ(st.hash(), cake ? p.cakeHash : p.fifoHash)
                << std::hex << st.hash();
            EXPECT_EQ(st.jobCacheHits, cake ? p.cakeHits : p.fifoHits);
            EXPECT_EQ(st.jobCacheMisses,
                      cake ? p.cakeMisses : p.fifoMisses);
        }
    }
}

TEST(JobCacheUnit, ReplaysOnlyWindowsNoKillReaches)
{
    const std::vector<size_t> cards = {4, 5, 6};
    FaultPlan local;
    local.seed = 7;
    local.stragglers[5] = 2.0;
    local.cardFailAt[6] = 1000;
    local.cardFailAt[1] = 10; // outside the group
    WindowFaults wf = WindowFaults::of(local, cards);
    EXPECT_NE(wf.word, 0u);
    EXPECT_EQ(wf.killAt, 1000u);

    // The word leaves kills out and sees stragglers by local index.
    FaultPlan noKill = local;
    noKill.cardFailAt.clear();
    EXPECT_EQ(WindowFaults::of(noKill, cards).word, wf.word);
    FaultPlan shifted;
    shifted.seed = 7;
    shifted.stragglers[3] = 2.0;
    EXPECT_EQ(WindowFaults::of(shifted, {2, 3, 9}).word, wf.word);
    EXPECT_EQ(WindowFaults::of(shifted, {2, 3, 9}).killAt, ~Tick{0});
    shifted.stragglers[3] = 2.5;
    EXPECT_NE(WindowFaults::of(shifted, {2, 3, 9}).word, wf.word);
    EXPECT_EQ(WindowFaults::of(FaultPlan{}, cards).word, 0u);

    JobCache cache;
    CachedJob job;
    job.span = job.reach = 300;
    job.stepEnds = {100, 300};
    // Executed from 700 the window reached the kill: not memoized.
    cache.insert("plan", cards, 0, 2, wf, 700, job);
    EXPECT_EQ(cache.lookup("plan", cards, 0, 2, wf, 0), nullptr);
    cache.insert("plan", cards, 0, 2, wf, 0, job);
    EXPECT_NE(cache.lookup("plan", cards, 0, 2, wf, 699), nullptr);
    // A replay from 700 would end on the kill tick: it must execute.
    EXPECT_EQ(cache.lookup("plan", cards, 0, 2, wf, 700), nullptr);
    EXPECT_EQ(cache.lookup("plan", cards, 0, 2, wf, 2000), nullptr);
    EXPECT_EQ(cache.faultedHits(), 1u);
    EXPECT_EQ(cache.faultedMisses(), 3u);

    // A failed window reaches its failure tick, not just its span.
    CachedJob failed;
    failed.ok = false;
    failed.span = 100;
    failed.reach = 500;
    cache.insert("plan", cards, 1, 1, wf, 0, failed);
    EXPECT_NE(cache.lookup("plan", cards, 1, 1, wf, 499), nullptr);
    EXPECT_EQ(cache.lookup("plan", cards, 1, 1, wf, 500), nullptr);

    // Fault-free lookups live in their own key space and counters.
    EXPECT_EQ(cache.lookup("plan", cards, 0, 2, WindowFaults{}, 0),
              nullptr);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 0u);
}

TEST(Federation, KillReachingACachedWindowExecutesIt)
{
    // One client runs resnet18 back to back on one 8-card group, so
    // the same whole-job window repeats; card 3 dies inside the fourth
    // repetition.  The earlier repetitions replay from the JobCache,
    // but the one the kill reaches must execute and re-dispatch.
    PrototypeSpec machine = machineByName("hydra-m");
    InferenceRunner runner(machine);
    CardGroup all = CardGroup::contiguous(0, 8);
    Tick span =
        runner.runJob(*runner.planForJob(workloadByName("resnet18"), all),
                      all, 0)
            .total.makespan;
    FaultPlan faults;
    faults.cardFailAt[3] = 3 * span + span / 2;
    Federation fed(machine,
                   ServeSpec::parse("seed=1,duration=60,group=resnet18:8,"
                                    "tenant=solo:closed:resnet18:1:0"),
                   faults);
    ServeStats st = fed.run();
    expectAccounted(st);
    EXPECT_GE(st.jobCacheFaultedHits, 2u);
    EXPECT_EQ(st.redispatches, 1u);
    EXPECT_GT(st.recoveryPenalty, 0u);
    ASSERT_EQ(st.failedCards.size(), 1u);
    EXPECT_EQ(st.failedCards[0], 3u);
    EXPECT_EQ(st.jobCacheHits + st.jobCacheMisses, 0u);
}

TEST(Federation, SpilloverChargesAFairnessDeficit)
{
    // Two tenants share one surviving cluster after the other dies.
    // The spilled tenant's failover traffic counts double in the
    // least-served ledger, so the native tenant is not starved: both
    // keep completing on the survivor.
    ServeStats st = runFed(
        "hydra-m",
        "seed=13,duration=60,clusters=2,group=resnet18:8,"
        "tenant=alpha:closed:resnet18:2:0,"
        "tenant=beta:closed:resnet18:2:0",
        "ckill=0@20");
    EXPECT_EQ(st.clusterKills, 1u);
    expectAccounted(st);
    for (const auto& t : st.tenants)
        EXPECT_GT(t.completed, 4u) << t.name;
}

} // namespace
} // namespace hydra
