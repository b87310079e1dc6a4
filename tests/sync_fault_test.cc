/**
 * @file
 * Fault-tolerance layer tests: retry accounting, timeout/budget
 * exhaustion, Program::validate() rejection cases, deadlock report
 * contents, straggler/card-failure injection, and degraded-mode
 * re-dispatch through InferenceRunner.
 */

#include <gtest/gtest.h>

#include "baselines/prototypes.hh"
#include "common/logging.hh"
#include "sched/execplan.hh"
#include "sched/runner.hh"
#include "sync/executor.hh"

namespace hydra {
namespace {

/** Fixed-latency test network. */
class FlatNetwork : public NetworkModel
{
  public:
    explicit FlatNetwork(Tick per_msg, bool overlaps = true)
        : perMsg_(per_msg), overlaps_(overlaps)
    {
    }

    std::unique_ptr<NetworkModel>
    clone() const override
    {
        return std::make_unique<FlatNetwork>(*this);
    }

    Tick
    transferTime(uint64_t, size_t, size_t) const override
    {
        return perMsg_;
    }

    Tick
    broadcastTime(uint64_t, size_t, size_t) const override
    {
        return perMsg_;
    }

    Tick setupLatency() const override { return 0; }
    bool overlapsCompute() const override { return overlaps_; }
    Tick stepSyncLatency() const override { return 0; }

  private:
    Tick perMsg_;
    bool overlaps_;
};

/** One producer->consumer transfer: compute(10) -> send -> CT_d(5). */
Program
oneTransferProgram(uint64_t bytes = 50)
{
    ProgramBuilder pb(2);
    uint32_t l = pb.label("t");
    uint64_t c0 = pb.addCompute(0, 10, OpCost{}, l);
    uint64_t msg = pb.sendTo(0, 1, bytes, c0);
    pb.addCompute(1, 5, OpCost{}, l, {msg});
    return pb.take();
}

RetryPolicy
testPolicy(uint32_t max_attempts, Tick backoff, Tick timeout = 0)
{
    RetryPolicy p;
    p.maxAttempts = max_attempts;
    p.backoffBase = backoff;
    p.backoffMax = backoff * 8;
    p.timeout = timeout;
    return p;
}

TEST(FaultRetry, FirstAttemptDroppedThenRecovered)
{
    ClusterConfig cfg{1, 2};
    FlatNetwork net(100);
    ClusterExecutor ex(cfg, net);
    FaultPlan plan;
    plan.dropFirstAttempts = 1;
    ex.setFaultPlan(plan);
    ex.setRetryPolicy(testPolicy(4, 7));

    RunResult res = ex.tryRun(oneTransferProgram());
    ASSERT_TRUE(res.ok()) << res.error.message;
    // compute [0,10); failed attempt [10,110); backoff 7; retry
    // [117,217); CT_d [217,222).
    EXPECT_EQ(res.stats.makespan, 222u);
    EXPECT_EQ(res.stats.retries, 1u);
    EXPECT_EQ(res.stats.droppedTransfers, 1u);
    EXPECT_EQ(res.stats.corruptedTransfers, 0u);
    EXPECT_EQ(res.stats.retryBackoffTicks, 7u);
    // The wire is charged for both attempts on both endpoints.
    EXPECT_EQ(res.stats.commBusy[0], 200u);
    EXPECT_EQ(res.stats.commBusy[1], 200u);
    // Logical message counted once; bytes per attempt.
    EXPECT_EQ(res.stats.netMessages, 1u);
    EXPECT_EQ(res.stats.netBytes, 100u);
}

TEST(FaultRetry, BudgetExhaustionReturnsStructuredError)
{
    ClusterConfig cfg{1, 2};
    FlatNetwork net(100);
    ClusterExecutor ex(cfg, net);
    FaultPlan plan;
    plan.dropFirstAttempts = 10; // every attempt drops
    ex.setFaultPlan(plan);
    ex.setRetryPolicy(testPolicy(3, 7));

    RunResult res = ex.tryRun(oneTransferProgram());
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error.kind, RunError::Kind::TransferFailed);
    EXPECT_EQ(res.error.card, 0u);
    EXPECT_EQ(res.error.attempts, 3u);
    EXPECT_EQ(res.stats.droppedTransfers, 3u);
    EXPECT_EQ(res.stats.retries, 2u);
    // attempts [10,110) [117,217) [231,331): backoffs 7 then 14.
    EXPECT_EQ(res.stats.retryBackoffTicks, 21u);
    EXPECT_EQ(res.stats.makespan, 331u);
}

TEST(FaultRetry, TimeoutShortensDropDetection)
{
    ClusterConfig cfg{1, 2};
    FlatNetwork net(100);
    ClusterExecutor ex(cfg, net);
    FaultPlan plan;
    plan.dropFirstAttempts = 10;
    ex.setFaultPlan(plan);
    ex.setRetryPolicy(testPolicy(2, 5, /*timeout=*/30));

    RunResult res = ex.tryRun(oneTransferProgram());
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error.kind, RunError::Kind::TransferFailed);
    // Attempts [10,40) and [45,75): the ack timer, not the wire time,
    // bounds each failed attempt.
    EXPECT_EQ(res.stats.makespan, 75u);
    EXPECT_EQ(res.stats.droppedTransfers, 2u);
}

TEST(FaultRetry, DegradedLinkExceedingTimeoutTimesOut)
{
    ClusterConfig cfg{1, 2};
    FlatNetwork net(100);
    ClusterExecutor ex(cfg, net);
    FaultPlan plan;
    plan.linkDegrade = 10.0; // wire time 1000 > timeout 500
    ex.setFaultPlan(plan);
    ex.setRetryPolicy(testPolicy(2, 5, /*timeout=*/500));

    RunResult res = ex.tryRun(oneTransferProgram());
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error.kind, RunError::Kind::TransferFailed);
    EXPECT_EQ(res.stats.timedOutTransfers, 2u);
    EXPECT_EQ(res.stats.droppedTransfers, 0u);
}

TEST(FaultRetry, CorruptionIsDetectedAndCounted)
{
    ClusterConfig cfg{1, 2};
    FlatNetwork net(100);
    ClusterExecutor ex(cfg, net);
    FaultPlan plan;
    plan.corruptRate = 1.0; // checksum fails on every arrival
    ex.setFaultPlan(plan);
    ex.setRetryPolicy(testPolicy(2, 7));

    RunResult res = ex.tryRun(oneTransferProgram());
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error.kind, RunError::Kind::TransferFailed);
    EXPECT_EQ(res.stats.corruptedTransfers, 2u);
    // A corrupted transfer burns the full wire time before detection:
    // compute 10 + attempt 100 + backoff 7 + attempt 100.
    EXPECT_EQ(res.stats.makespan, 217u);
}

TEST(FaultInject, StragglerStretchesComputeDeterministically)
{
    ClusterConfig cfg{1, 1};
    FlatNetwork net(0);
    ProgramBuilder pb(1);
    pb.addCompute(0, 100, OpCost{}, pb.label("c"));
    Program prog = pb.take();

    ClusterExecutor ex(cfg, net);
    FaultPlan plan;
    plan.stragglers[0] = 2.5;
    ex.setFaultPlan(plan);
    RunResult res = ex.tryRun(prog);
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(res.stats.makespan, 250u);
    EXPECT_EQ(res.stats.computeBusy[0], 250u);
}

TEST(FaultInject, CardDeathHaltsWithStructuredError)
{
    ClusterConfig cfg{1, 2};
    FlatNetwork net(10);
    ProgramBuilder pb(2);
    uint32_t l = pb.label("c");
    pb.addCompute(0, 100, OpCost{}, l);
    pb.addCompute(1, 100, OpCost{}, l);
    Program prog = pb.take();

    ClusterExecutor ex(cfg, net);
    FaultPlan plan;
    plan.cardFailAt[1] = 50;
    ex.setFaultPlan(plan);
    RunResult res = ex.tryRun(prog);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error.kind, RunError::Kind::CardFailed);
    EXPECT_EQ(res.error.card, 1u);
    EXPECT_EQ(res.error.tick, 50u);
    EXPECT_EQ(res.stats.makespan, 50u);
}

TEST(FaultInject, CardDeathAfterDrainIsIgnored)
{
    ClusterConfig cfg{1, 2};
    FlatNetwork net(10);
    ProgramBuilder pb(2);
    uint32_t l = pb.label("c");
    pb.addCompute(0, 100, OpCost{}, l);
    pb.addCompute(1, 100, OpCost{}, l);
    Program prog = pb.take();

    ClusterExecutor ex(cfg, net);
    FaultPlan plan;
    plan.cardFailAt[1] = 5000; // long after completion
    ex.setFaultPlan(plan);
    RunResult res = ex.tryRun(prog);
    ASSERT_TRUE(res.ok()) << res.error.message;
    // The pending kill event must not inflate the makespan.
    EXPECT_EQ(res.stats.makespan, 100u);
}

TEST(Validate, BuilderProgramsAreClean)
{
    ProgramBuilder pb(4);
    uint32_t l = pb.label("v");
    uint64_t c0 = pb.addCompute(0, 10, OpCost{}, l);
    uint64_t m = pb.sendTo(0, 2, 64, c0);
    pb.addCompute(2, 10, OpCost{}, l, {m});
    uint64_t b = pb.broadcastFrom(1, 32);
    for (size_t c = 0; c < 4; ++c)
        if (c != 1)
            pb.addCompute(c, 1, OpCost{}, l, {b});
    EXPECT_TRUE(pb.take().validate().empty());
}

bool
hasIssue(const std::vector<ProgramIssue>& issues, ProgramIssue::Kind k)
{
    for (const auto& i : issues)
        if (i.kind == k)
            return true;
    return false;
}

TEST(Validate, CatchesUnmatchedRecv)
{
    ProgramBuilder pb(2);
    pb.addRecv(1, 777, 0, 8);
    auto issues = pb.take().validate();
    ASSERT_EQ(issues.size(), 1u);
    EXPECT_EQ(issues[0].kind, ProgramIssue::Kind::UnmatchedRecv);
    EXPECT_EQ(issues[0].card, 1u);
    EXPECT_EQ(issues[0].id, 777u);
}

TEST(Validate, CatchesUnmatchedSend)
{
    ProgramBuilder pb(2);
    pb.addSend(0, 5, 1, 8);
    auto issues = pb.take().validate();
    EXPECT_TRUE(hasIssue(issues, ProgramIssue::Kind::UnmatchedSend));
}

TEST(Validate, CatchesDanglingAfterCompute)
{
    ProgramBuilder pb(2);
    uint64_t m = pb.newMsg();
    pb.addSend(0, m, 1, 8, /*after_compute=*/9999);
    pb.addRecv(1, m, 0, 8);
    auto issues = pb.take().validate();
    ASSERT_EQ(issues.size(), 1u);
    EXPECT_EQ(issues[0].kind,
              ProgramIssue::Kind::DanglingAfterCompute);
    EXPECT_EQ(issues[0].id, 9999u);
}

TEST(Validate, CatchesBadPeerAndSelfSend)
{
    // Hand-built program: the builder's asserts would reject these.
    Program p(2);
    p.cards[0].comm.push_back(
        CommTask{CommTask::Kind::Send, 1, /*peer=*/7, 8, 0});
    p.cards[1].comm.push_back(
        CommTask{CommTask::Kind::Send, 2, /*peer=*/1, 8, 0});
    auto issues = p.validate();
    EXPECT_TRUE(hasIssue(issues, ProgramIssue::Kind::BadPeer));
    EXPECT_TRUE(hasIssue(issues, ProgramIssue::Kind::SelfMessage));
}

TEST(Validate, CatchesDuplicateSender)
{
    Program p(3);
    p.cards[0].comm.push_back(
        CommTask{CommTask::Kind::Send, 9, 2, 8, 0});
    p.cards[1].comm.push_back(
        CommTask{CommTask::Kind::Send, 9, 2, 8, 0});
    p.cards[2].comm.push_back(
        CommTask{CommTask::Kind::Recv, 9, 0, 8, 0});
    auto issues = p.validate();
    EXPECT_TRUE(hasIssue(issues, ProgramIssue::Kind::DuplicateSender));
}

TEST(Validate, CatchesWaitOnMsgNeverReceivedHere)
{
    // Card 0 waits on a message only card 2 receives.
    ProgramBuilder pb(3);
    uint32_t l = pb.label("v");
    uint64_t c1 = pb.addCompute(1, 10, OpCost{}, l);
    uint64_t m = pb.sendTo(1, 2, 8, c1);
    pb.addCompute(0, 5, OpCost{}, l, {m});
    auto issues = pb.take().validate();
    ASSERT_EQ(issues.size(), 1u);
    EXPECT_EQ(issues[0].kind, ProgramIssue::Kind::WaitOnUnknownMsg);
    EXPECT_EQ(issues[0].card, 0u);
}

TEST(Deadlock, HeadOfLineCycleIsDiagnosed)
{
    // Both cards queue their send before their recv: neither receiver
    // ever posts ready, a classic head-of-line deadlock.  The program
    // is statically valid (all pairs matched).
    ClusterConfig cfg{1, 2};
    FlatNetwork net(10);
    ProgramBuilder pb(2);
    uint64_t m0 = pb.newMsg();
    uint64_t m1 = pb.newMsg();
    pb.addSend(0, m0, 1, 8);
    pb.addRecv(0, m1, 1, 8);
    pb.addSend(1, m1, 0, 8);
    pb.addRecv(1, m0, 0, 8);
    Program prog = pb.take();
    EXPECT_TRUE(prog.validate().empty());

    ClusterExecutor ex(cfg, net);
    RunResult res = ex.tryRun(prog);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error.kind, RunError::Kind::Deadlock);
    const DeadlockReport& rep = res.error.deadlock;
    ASSERT_EQ(rep.stuck.size(), 2u);
    EXPECT_EQ(rep.stuck[0].card, 0u);
    EXPECT_EQ(rep.stuck[0].commIdx, 0u);
    EXPECT_EQ(rep.stuck[0].commTotal, 2u);
    EXPECT_NE(rep.stuck[0].waitingOn.find("waits ready"),
              std::string::npos);
    // The wait-for cycle covers both cards.
    ASSERT_EQ(rep.cycle.size(), 2u);
    EXPECT_TRUE(rep.unmatchedMsgs.empty());
    // The report renders without crashing and names both cards.
    std::string text = rep.describe();
    EXPECT_NE(text.find("card 0"), std::string::npos);
    EXPECT_NE(text.find("card 1"), std::string::npos);
}

TEST(Deadlock, CrossCardComputeCycleIsDiagnosed)
{
    // Card 0's send waits on a compute that waits on card 1's message,
    // and vice versa: a compute-mediated cycle.
    ClusterConfig cfg{1, 2};
    FlatNetwork net(10);
    ProgramBuilder pb(2);
    uint32_t l = pb.label("d");
    uint64_t m0 = pb.newMsg();
    uint64_t m1 = pb.newMsg();
    uint64_t c0 = pb.addCompute(0, 10, OpCost{}, l, {m1});
    uint64_t c1 = pb.addCompute(1, 10, OpCost{}, l, {m0});
    pb.addSend(0, m0, 1, 8, c0);
    pb.addRecv(1, m0, 0, 8);
    pb.addSend(1, m1, 0, 8, c1);
    pb.addRecv(0, m1, 1, 8);
    Program prog = pb.take();
    EXPECT_TRUE(prog.validate().empty());

    ClusterExecutor ex(cfg, net);
    RunResult res = ex.tryRun(prog);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error.kind, RunError::Kind::Deadlock);
    EXPECT_EQ(res.error.deadlock.stuck.size(), 2u);
    EXPECT_FALSE(res.error.deadlock.cycle.empty());
}

TEST(FaultPolicy, BackoffGrowsExponentiallyWithCap)
{
    RetryPolicy p;
    p.backoffBase = 10;
    p.backoffMax = 50;
    EXPECT_EQ(p.backoffFor(0), 10u);
    EXPECT_EQ(p.backoffFor(1), 20u);
    EXPECT_EQ(p.backoffFor(2), 40u);
    EXPECT_EQ(p.backoffFor(3), 50u);
    EXPECT_EQ(p.backoffFor(9), 50u);
}

TEST(FaultPlanSpec, ParseRoundTrip)
{
    FaultPlan p = FaultPlan::parse(
        "seed=42,drop=0.25,corrupt=0.5,degrade=2,dropfirst=3,"
        "straggle=2:1.5,kill=1@0.001");
    EXPECT_EQ(p.seed, 42u);
    EXPECT_DOUBLE_EQ(p.dropRate, 0.25);
    EXPECT_DOUBLE_EQ(p.corruptRate, 0.5);
    EXPECT_DOUBLE_EQ(p.linkDegrade, 2.0);
    EXPECT_EQ(p.dropFirstAttempts, 3u);
    ASSERT_EQ(p.stragglers.count(2), 1u);
    EXPECT_DOUBLE_EQ(p.stragglers.at(2), 1.5);
    ASSERT_EQ(p.cardFailAt.count(1), 1u);
    EXPECT_EQ(p.cardFailAt.at(1), secondsToTicks(0.001));
    EXPECT_FALSE(p.empty());
    EXPECT_TRUE(FaultPlan::parse("").empty());
}

TEST(FaultPlanSpec, DrawsAreDeterministicAndSeedSensitive)
{
    FaultPlan a;
    a.seed = 1;
    a.dropRate = 0.5;
    FaultPlan b = a;
    FaultPlan c = a;
    c.seed = 2;
    size_t agree_ab = 0, agree_ac = 0, n = 256;
    for (uint64_t m = 1; m <= n; ++m) {
        agree_ab += a.dropsTransfer(m, 0) == b.dropsTransfer(m, 0);
        agree_ac += a.dropsTransfer(m, 0) == c.dropsTransfer(m, 0);
    }
    EXPECT_EQ(agree_ab, n);  // same seed: identical decisions
    EXPECT_LT(agree_ac, n);  // different seed: decisions diverge
}

/** Small two-step ConvBN workload for degraded-mode runs. */
WorkloadModel
toyWorkload()
{
    WorkloadModel wl;
    wl.name = "toy";
    wl.logSlots = 15;
    wl.maxLimbs = 24;
    wl.steps.push_back(Step{ProcKind::ConvBN, "conv0", 64, convBnMix(),
                            12, AggKind::BroadcastEach, 0, 1.0, 8});
    wl.steps.push_back(Step{ProcKind::FC, "fc0", 128, fcMix(), 12,
                            AggKind::ReduceTree, 0, 1.0, 1});
    return wl;
}

TEST(Degraded, EmptyPlanMatchesLegacyRunner)
{
    InferenceRunner runner(hydraMSpec());
    WorkloadModel wl = toyWorkload();
    InferenceResult legacy = runner.run(wl);
    InferenceResult faulty = runner.run(wl, FaultPlan{});
    ASSERT_TRUE(faulty.ok());
    EXPECT_FALSE(faulty.degraded());
    EXPECT_EQ(faulty.total.makespan, legacy.total.makespan);
    EXPECT_EQ(faulty.total.netBytes, legacy.total.netBytes);
}

TEST(Degraded, SingleCardFailureRedispatchesAndReportsPenalty)
{
    InferenceRunner runner(hydraMSpec()); // 8 cards
    WorkloadModel wl = toyWorkload();
    InferenceResult healthy = runner.run(wl);
    ASSERT_GT(healthy.total.makespan, 0u);

    FaultPlan plan;
    plan.cardFailAt[3] = healthy.total.makespan / 4;
    InferenceResult res = runner.run(wl, plan);

    ASSERT_TRUE(res.ok()) << res.error.message;
    EXPECT_TRUE(res.degraded());
    ASSERT_EQ(res.failedCards.size(), 1u);
    EXPECT_EQ(res.failedCards[0], 3u);
    EXPECT_EQ(res.redispatches, 1u);
    EXPECT_GT(res.recoveryPenalty, 0u);
    // All steps still completed, on fewer cards and later.
    EXPECT_EQ(res.steps.size(), wl.steps.size());
    EXPECT_GT(res.total.makespan, healthy.total.makespan);
}

TEST(Degraded, EveryCardDyingIsATerminalError)
{
    PrototypeSpec spec = hydraPrototype("tiny", 1, 2);
    InferenceRunner runner(spec);
    WorkloadModel wl = toyWorkload();
    FaultPlan plan;
    plan.cardFailAt[0] = 0;
    plan.cardFailAt[1] = 0;
    InferenceResult res = runner.run(wl, plan);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error.kind, RunError::Kind::CardFailed);
    // Both deaths are recorded before the runner gives up.
    EXPECT_EQ(res.failedCards.size(), 2u);
    EXPECT_NE(res.error.message.find("no surviving cards"),
              std::string::npos);
}

TEST(Degraded, TerminalErrorTickIsOnTheInferenceClock)
{
    // Card 0 dies at T/2, the survivor at 3T/4: the run ends with no
    // cards left, and the error carries the second kill tick on the
    // inference clock, not a tick relative to the failed unit.
    PrototypeSpec spec = hydraPrototype("tiny", 1, 2);
    InferenceRunner runner(spec);
    WorkloadModel wl = workloadByName("resnet20");
    Tick T = runner.run(wl).total.makespan;
    FaultPlan plan;
    plan.cardFailAt[0] = T / 2;
    plan.cardFailAt[1] = 3 * T / 4;
    InferenceResult res = runner.run(wl, plan);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error.kind, RunError::Kind::CardFailed);
    EXPECT_EQ(res.error.tick, plan.cardFailAt[1]);
    EXPECT_EQ(res.error.card, 1u);
    EXPECT_EQ(res.failedCards, (std::vector<size_t>{0, 1}));
}

TEST(Degraded, TerminalErrorNamesTheMachineCard)
{
    // A job on cards {2,3} of a 4-card machine loses 2, then 3: the
    // executor sees the last death as its local card 0, the result
    // must name machine card 3.
    PrototypeSpec spec = hydraPrototype("quad", 1, 4);
    InferenceRunner runner(spec);
    WorkloadModel wl = toyWorkload();
    CardGroup group{{2, 3}};
    auto plan = runner.planForJob(wl, group);
    Tick T = runner.runJob(*plan, group, 0).total.makespan;
    ASSERT_GT(T, 0u);

    FaultPlan faults;
    faults.cardFailAt[2] = T / 4;
    faults.cardFailAt[3] = T / 2;
    InferenceResult res = runner.runJob(*plan, group, 0, faults);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error.kind, RunError::Kind::CardFailed);
    EXPECT_EQ(res.error.card, 3u);
    EXPECT_EQ(res.error.message.rfind("card 3 failed", 0), 0u)
        << res.error.message;
    EXPECT_EQ(res.failedCards, (std::vector<size_t>{2, 3}));
}

TEST(Degraded, TerminalTransferErrorNamesTheMachineCard)
{
    // Every attempt is dropped, so the first transfer of a job on
    // cards {2,3} exhausts its retries; the executor names its sender
    // by local index, the result must name the machine card.
    PrototypeSpec spec = hydraPrototype("quad", 1, 4);
    InferenceRunner runner(spec);
    WorkloadModel wl = toyWorkload();
    CardGroup group{{2, 3}};
    auto plan = runner.planForJob(wl, group);

    FaultPlan faults;
    faults.dropRate = 1.0;
    InferenceResult res = runner.runJob(*plan, group, 0, faults);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error.kind, RunError::Kind::TransferFailed);
    EXPECT_TRUE(res.error.card == 2 || res.error.card == 3)
        << res.error.card;
    EXPECT_NE(res.error.message.find(
                  strf(" from card %zu failed", res.error.card)),
              std::string::npos)
        << res.error.message;
}

TEST(Degraded, WholeMachineRunEqualsRunJobFromTickZero)
{
    PrototypeSpec spec = hydraMSpec();
    InferenceRunner runner(spec);
    CardGroup all = CardGroup::contiguous(0, spec.cluster.totalCards());
    for (const WorkloadModel& wl :
         {workloadByName("resnet18"), workloadByName("bert")}) {
        Tick T = runner.run(wl).total.makespan;
        FaultPlan kill;
        kill.cardFailAt[1] = T / 3;
        FaultPlan twoKills = kill;
        twoKills.cardFailAt[5] = 2 * T / 3;
        FaultPlan drop;
        drop.seed = 7;
        drop.dropRate = 0.01;
        FaultPlan straggle;
        straggle.stragglers[2] = 1.5;
        auto plan = runner.planForJob(wl, all);
        for (const FaultPlan& faults : {kill, twoKills, drop, straggle}) {
            std::string ctx = wl.name + " under " + faults.describe();
            InferenceResult a = runner.run(wl, faults);
            InferenceResult b = runner.runJob(*plan, all, 0, faults);
            ASSERT_EQ(a.steps.size(), b.steps.size()) << ctx;
            for (size_t i = 0; i < a.steps.size(); ++i)
                EXPECT_EQ(a.steps[i].stats.fingerprint(),
                          b.steps[i].stats.fingerprint())
                    << ctx << " step " << i;
            EXPECT_EQ(a.stepEnds, b.stepEnds) << ctx;
            EXPECT_EQ(a.failedCards.size(), faults.cardFailAt.size())
                << ctx;
            EXPECT_EQ(a.failedCards, b.failedCards) << ctx;
            EXPECT_EQ(a.redispatches, b.redispatches) << ctx;
            EXPECT_EQ(a.recoveryPenalty, b.recoveryPenalty) << ctx;
            EXPECT_EQ(a.total.fingerprint(), b.total.fingerprint())
                << ctx;
            EXPECT_EQ(a.error.kind, b.error.kind) << ctx;
            EXPECT_EQ(a.error.tick, b.error.tick) << ctx;
        }
    }
}

TEST(Degraded, FusedRunSurfacesCardDeathAsError)
{
    InferenceRunner runner(hydraMSpec());
    WorkloadModel wl = toyWorkload();
    FaultPlan plan;
    plan.cardFailAt[2] = 1; // immediately after launch
    RunResult res = runner.runFused(wl, plan);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error.kind, RunError::Kind::CardFailed);
    EXPECT_EQ(res.error.card, 2u);
}

} // namespace
} // namespace hydra
