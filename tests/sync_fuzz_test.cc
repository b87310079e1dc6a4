/**
 * @file
 * Property/fuzz tests of the Procedure-1 executor: randomized programs
 * with consistent message ordering must always complete (no deadlock),
 * deterministically, with conserved compute time -- under both
 * overlapping (Hydra) and blocking (FAB) networks.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <string>

#include "common/rng.hh"
#include "sync/executor.hh"

namespace hydra {
namespace {

class FuzzNetwork : public NetworkModel
{
  public:
    FuzzNetwork(Tick per_byte, Tick setup, bool overlaps)
        : perByte_(per_byte), setup_(setup), overlaps_(overlaps)
    {
    }

    std::unique_ptr<NetworkModel>
    clone() const override
    {
        return std::make_unique<FuzzNetwork>(*this);
    }

    Tick
    transferTime(uint64_t b, size_t, size_t) const override
    {
        return 100 + perByte_ * b;
    }

    Tick
    broadcastTime(uint64_t b, size_t, size_t) const override
    {
        return 150 + perByte_ * b;
    }

    Tick setupLatency() const override { return setup_; }
    bool overlapsCompute() const override { return overlaps_; }
    Tick stepSyncLatency() const override { return 0; }

  private:
    Tick perByte_;
    Tick setup_;
    bool overlaps_;
};

/**
 * Generate a random but deadlock-free program: messages get a global
 * total order; each card's comm queue lists its sends/recvs in that
 * order, which matches the executor's head-of-queue handshake.
 */
Program
randomProgram(size_t cards, uint64_t seed, size_t n_messages,
              size_t n_computes, Tick& total_compute, bool ct_d = false)
{
    Rng rng(seed);
    ProgramBuilder pb(cards);
    uint32_t label = pb.label("fuzz");
    total_compute = 0;

    // Seed compute work per card so sends have producers.
    std::vector<uint64_t> last_compute(cards, 0);
    for (size_t c = 0; c < cards; ++c) {
        Tick d = 10 + rng.uniformU64(200);
        total_compute += d;
        last_compute[c] = pb.addCompute(c, d, OpCost{}, label);
    }

    std::vector<uint64_t> msgs;
    uint64_t last_bcast = 0;
    size_t last_bcast_src = 0;
    for (size_t m = 0; m < n_messages; ++m) {
        size_t src = rng.uniformU64(cards);
        if (cards < 2)
            break;
        if (rng.uniformU64(4) == 0) {
            // Broadcast.
            msgs.push_back(pb.broadcastFrom(src, 1 + rng.uniformU64(999),
                                            last_compute[src]));
            last_bcast = msgs.back();
            last_bcast_src = src;
        } else {
            size_t dst = rng.uniformU64(cards);
            if (dst == src)
                dst = (dst + 1) % cards;
            msgs.push_back(pb.sendTo(src, dst, 1 + rng.uniformU64(999),
                                     last_compute[src]));
        }
        // Interleave more compute, sometimes data-dependent (CT_d).
        size_t c = rng.uniformU64(cards);
        std::vector<uint64_t> waits;
        if (!msgs.empty() && rng.uniformU64(2) == 0) {
            // Wait only on a message this card actually receives:
            // broadcast msgs reach everyone; for point-to-point we
            // conservatively skip (receipt not guaranteed for c).
            // With `ct_d`, use the last broadcast if any.
            if (ct_d && last_bcast != 0 && c != last_bcast_src)
                waits.push_back(last_bcast);
        }
        Tick d = 5 + rng.uniformU64(100);
        total_compute += d;
        last_compute[c] = pb.addCompute(c, d, OpCost{}, label, waits);
    }
    for (size_t k = 0; k < n_computes; ++k) {
        size_t c = rng.uniformU64(cards);
        Tick d = 1 + rng.uniformU64(50);
        total_compute += d;
        last_compute[c] = pb.addCompute(c, d, OpCost{}, label);
    }
    return pb.take();
}

class FuzzTest
    : public ::testing::TestWithParam<std::tuple<size_t, bool, uint64_t>>
{
};

TEST_P(FuzzTest, CompletesDeterministically)
{
    auto [cards, overlaps, seed] = GetParam();
    ClusterConfig cfg{1, cards};
    FuzzNetwork net(3, 20, overlaps);
    ClusterExecutor ex(cfg, net);

    Tick total_a = 0, total_b = 0;
    Program pa = randomProgram(cards, seed, 40, 30, total_a);
    Program pb = randomProgram(cards, seed, 40, 30, total_b);
    RunStats a = ex.run(pa);
    RunStats b = ex.run(pb);

    // Determinism.
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.netBytes, b.netBytes);

    // Work conservation.
    Tick busy = 0;
    for (Tick t : a.computeBusy)
        busy += t;
    EXPECT_EQ(busy, total_a);

    // Makespan bounds: at least the busiest card, at most the sum of
    // everything serialized.
    EXPECT_GE(a.makespan, a.maxComputeBusy());
}

INSTANTIATE_TEST_SUITE_P(
    Programs, FuzzTest,
    ::testing::Combine(::testing::Values(2, 3, 4, 8, 16),
                       ::testing::Bool(),
                       ::testing::Values(11, 22, 33, 44)));

/**
 * Derive a random-but-deterministic fault plan from a seed: transient
 * drop/corrupt rates, occasional link degradation, a straggler, and
 * sometimes a permanent card kill.
 */
FaultPlan
randomFaultPlan(uint64_t seed, size_t cards)
{
    Rng rng(seed * 7919 + 13);
    FaultPlan plan;
    plan.seed = seed;
    const double drops[] = {0.0, 0.05, 0.3, 0.8};
    plan.dropRate = drops[rng.uniformU64(4)];
    const double corrupts[] = {0.0, 0.1, 0.5};
    plan.corruptRate = corrupts[rng.uniformU64(3)];
    if (rng.uniformU64(3) == 0)
        plan.linkDegrade = 1.0 + rng.uniformReal(0.0, 3.0);
    if (rng.uniformU64(2) == 0)
        plan.stragglers[rng.uniformU64(cards)] =
            1.0 + rng.uniformReal(0.0, 4.0);
    if (rng.uniformU64(3) == 0)
        plan.cardFailAt[rng.uniformU64(cards)] =
            rng.uniformU64(20000);
    return plan;
}

/**
 * Robustness property: random valid programs under random fault plans
 * must either complete or return a structured error — the process
 * never aborts — and every outcome is deterministic in the seed.
 */
TEST_P(FuzzTest, FaultPlansNeverAbortAndStayDeterministic)
{
    auto [cards, overlaps, seed] = GetParam();
    ClusterConfig cfg{1, cards};
    FuzzNetwork net(3, 20, overlaps);
    ClusterExecutor ex(cfg, net);
    RetryPolicy retry;
    retry.maxAttempts = 3;
    retry.backoffBase = 50;
    ex.setRetryPolicy(retry);

    for (uint64_t v = 0; v < 4; ++v) {
        uint64_t fault_seed = seed * 100 + v;
        ex.setFaultPlan(randomFaultPlan(fault_seed, cards));

        Tick total = 0;
        RunResult a = ex.tryRun(
            randomProgram(cards, seed, 30, 20, total));
        RunResult b = ex.tryRun(
            randomProgram(cards, seed, 30, 20, total));

        // Valid programs only fail through the fault machinery.
        if (!a.ok()) {
            EXPECT_TRUE(
                a.error.kind == RunError::Kind::TransferFailed ||
                a.error.kind == RunError::Kind::CardFailed)
                << RunError::kindName(a.error.kind) << ": "
                << a.error.message;
        }

        // Tick-identical re-run of the same (program, plan) pair.
        EXPECT_EQ(a.error.kind, b.error.kind);
        EXPECT_EQ(a.stats.makespan, b.stats.makespan);
        EXPECT_EQ(a.stats.retries, b.stats.retries);
        EXPECT_EQ(a.stats.droppedTransfers, b.stats.droppedTransfers);
        EXPECT_EQ(a.stats.netBytes, b.stats.netBytes);
    }
}

/**
 * Determinism guard: with an empty fault plan the fault-aware path is
 * tick-identical to the legacy run() path for the same seed.
 */
TEST_P(FuzzTest, EmptyFaultPlanIsTickIdenticalToLegacyRun)
{
    auto [cards, overlaps, seed] = GetParam();
    ClusterConfig cfg{1, cards};
    FuzzNetwork net(3, 20, overlaps);

    Tick total = 0;
    ClusterExecutor legacy(cfg, net);
    RunStats want = legacy.run(randomProgram(cards, seed, 40, 30, total));

    ClusterExecutor faulty(cfg, net);
    faulty.setFaultPlan(FaultPlan{}); // explicit empty plan
    RunResult got =
        faulty.tryRun(randomProgram(cards, seed, 40, 30, total));

    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.stats.makespan, want.makespan);
    EXPECT_EQ(got.stats.netBytes, want.netBytes);
    EXPECT_EQ(got.stats.netMessages, want.netMessages);
    EXPECT_EQ(got.stats.computeBusy, want.computeBusy);
    EXPECT_EQ(got.stats.commBusy, want.commBusy);
    EXPECT_EQ(got.stats.retries, 0u);
    EXPECT_EQ(got.stats.retryBackoffTicks, 0u);
}

TEST(FuzzEdge, EmptyProgramFinishesInstantly)
{
    ClusterConfig cfg{1, 4};
    FuzzNetwork net(1, 1, true);
    ClusterExecutor ex(cfg, net);
    Program p(4);
    RunStats st = ex.run(p);
    EXPECT_EQ(st.makespan, 0u);
}

TEST(FuzzEdge, ZeroDurationChainsResolve)
{
    ClusterConfig cfg{1, 2};
    FuzzNetwork net(0, 0, true);
    ClusterExecutor ex(cfg, net);
    ProgramBuilder pb(2);
    uint32_t l = pb.label("z");
    uint64_t prev = 0;
    uint64_t msg = 0;
    for (int i = 0; i < 50; ++i) {
        prev = pb.addCompute(0, 0, OpCost{}, l,
                             msg ? std::vector<uint64_t>{msg}
                                 : std::vector<uint64_t>{});
        msg = pb.sendTo(0, 1, 1, prev);
        uint64_t echo = pb.addCompute(1, 0, OpCost{}, l, {msg});
        msg = pb.sendTo(1, 0, 1, echo);
    }
    pb.addCompute(0, 0, OpCost{}, l, {msg});
    RunStats st = ex.run(pb.take());
    // 100 transfers at fixed cost 100 each dominate.
    EXPECT_EQ(st.makespan, 100u * 100u);
}

TEST(FuzzEdge, LongPipelineManyCards)
{
    // Ring pipeline across 32 cards, 10 waves: each card computes then
    // forwards to its neighbour.
    size_t cards = 32;
    ClusterConfig cfg{4, 8};
    FuzzNetwork net(0, 0, true);
    ClusterExecutor ex(cfg, net);
    ProgramBuilder pb(cards);
    uint32_t l = pb.label("ring");
    uint64_t msg = 0;
    for (int wave = 0; wave < 10; ++wave) {
        for (size_t c = 0; c < cards; ++c) {
            uint64_t id = pb.addCompute(
                c, 10, OpCost{}, l,
                msg ? std::vector<uint64_t>{msg}
                    : std::vector<uint64_t>{});
            msg = pb.sendTo(c, (c + 1) % cards, 1, id);
        }
    }
    pb.addCompute(0, 10, OpCost{}, l, {msg});
    RunStats st = ex.run(pb.take());
    // 320 hops of (10 compute + 100 transfer) + final compute.
    EXPECT_EQ(st.makespan, 320u * 110u + 10u);
}


/**
 * Differential corpus for the executor: every execution-visible output
 * of a run -- RunStats::fingerprint, the RunError fields and message,
 * the deadlock report, any validation issues and the full timeline --
 * folded into one FNV-1a hash.
 */
struct Fnv
{
    uint64_t h = 1469598103934665603ull;

    void
    mix(uint64_t v)
    {
        h ^= v;
        h *= 1099511628211ull;
    }

    void
    mix(const std::string& s)
    {
        mix(s.size());
        for (unsigned char ch : s)
            mix(ch);
    }
};

uint64_t
issuesHash(const std::vector<ProgramIssue>& issues)
{
    Fnv f;
    f.mix(issues.size());
    for (const ProgramIssue& i : issues) {
        f.mix(static_cast<uint64_t>(i.kind));
        f.mix(i.card);
        f.mix(i.id);
        f.mix(i.detail);
    }
    return f.h;
}

uint64_t
outcomeHash(const RunResult& r)
{
    Fnv f;
    f.mix(r.stats.fingerprint());
    f.mix(static_cast<uint64_t>(r.error.kind));
    f.mix(r.error.tick);
    f.mix(r.error.card);
    f.mix(r.error.msg);
    f.mix(r.error.attempts);
    f.mix(r.error.message);
    f.mix(r.error.deadlock.describe());
    f.mix(issuesHash(r.error.issues));
    f.mix(r.stats.timeline.size());
    for (const TaskEvent& e : r.stats.timeline) {
        f.mix(e.card);
        f.mix(e.start);
        f.mix(e.end);
        f.mix(static_cast<uint64_t>(e.kind));
        f.mix(e.label);
    }
    return f.h;
}

/** Fault plan `v` of a corpus case: -1 is the empty plan, 0..3 are
 *  randomFaultPlan seeds: a drop storm with a kill at tick 4996, a
 *  degraded link with a straggler and a kill at 17014, an 80% drop
 *  rate with a kill at 3471 (before plan 2's time origin), and heavy
 *  corruption on a degraded link with a straggler. */
FaultPlan
corpusFaultPlan(int v, size_t cards)
{
    const uint64_t seeds[] = {900, 931, 925, 922};
    return v < 0 ? FaultPlan{} : randomFaultPlan(seeds[v], cards);
}

/** One corpus run: the plain generator and its CT_d variant, on a
 *  timeline-recording executor, each outcome mixed into one hash. */
uint64_t
corpusCaseHash(size_t cards, bool overlaps, int v)
{
    ClusterConfig cfg{1, cards};
    FuzzNetwork net(3, 20, overlaps);
    ClusterExecutor ex(cfg, net);
    ex.setRecordTimeline(true);
    RetryPolicy retry;
    retry.maxAttempts = 3;
    retry.backoffBase = 50;
    if (v % 2 == 1)
        retry.timeout = 2500; // degraded links time out
    ex.setRetryPolicy(retry);
    ex.setFaultPlan(corpusFaultPlan(v, cards));
    if (v == 2)
        ex.setTimeOrigin(5000); // kills dated before it fire at once

    Fnv f;
    for (bool ct_d : {false, true}) {
        Tick total = 0;
        f.mix(outcomeHash(ex.tryRun(
            randomProgram(cards, 11 + cards, 40, 30, total, ct_d))));
    }
    return f.h;
}

struct CorpusPin
{
    size_t cards;
    bool overlaps;
    int plan;
    uint64_t fnv;
};

// Captured with the map/std::function engine this corpus was written
// against; any engine must reproduce them bit for bit.
const CorpusPin kCorpusPins[] = {
    {2, true, -1, 0x8d87867d7b8d0a74ull},
    {2, true, 0, 0xc9c8ad4d1816017full},
    {2, true, 1, 0x3a12393b5b130866ull},
    {2, true, 2, 0x258a3fda27613bf9ull},
    {2, true, 3, 0xd14bf1d233d75259ull},
    {2, false, -1, 0xd75c121ad8760172ull},
    {2, false, 0, 0x2bfdd5a289f96523ull},
    {2, false, 1, 0x1ac98268e618d7d4ull},
    {2, false, 2, 0x258a3fda27613bf9ull},
    {2, false, 3, 0x5a5f96b0209a015full},
    {3, true, -1, 0xc3c1dd302616e72aull},
    {3, true, 0, 0x79947111f5ea8f82ull},
    {3, true, 1, 0xd927b038f69673aeull},
    {3, true, 2, 0x76a02f2e804c08f5ull},
    {3, true, 3, 0x24b8b21cef1f4d82ull},
    {3, false, -1, 0x91e2f4a300b49e60ull},
    {3, false, 0, 0xf140d31a41e8fc7eull},
    {3, false, 1, 0x0eb5e8c9b7759ab4ull},
    {3, false, 2, 0x76a02f2e804c08f5ull},
    {3, false, 3, 0x4689afb8c9de5ff0ull},
    {4, true, -1, 0x713357ce3ab37193ull},
    {4, true, 0, 0x35c63f3ab61c4829ull},
    {4, true, 1, 0x6228e7d8126c0605ull},
    {4, true, 2, 0xaeb7416cd9770535ull},
    {4, true, 3, 0x21ab95366e8f5315ull},
    {4, false, -1, 0xf3b5f32a202068f0ull},
    {4, false, 0, 0xc2cfa9fbe6fa61acull},
    {4, false, 1, 0x14d3ae27fc224cd7ull},
    {4, false, 2, 0xaeb7416cd9770535ull},
    {4, false, 3, 0x067eee25cfe8ef95ull},
    {8, true, -1, 0x15e64f38ae162cd7ull},
    {8, true, 0, 0x5bc20f7663b7d71eull},
    {8, true, 1, 0xa1ecf6e899053176ull},
    {8, true, 2, 0x5dfa2a4c19718f59ull},
    {8, true, 3, 0x86a3e490e7899507ull},
    {8, false, -1, 0x7405a1e713b56ea0ull},
    {8, false, 0, 0x6e004632664cf6f0ull},
    {8, false, 1, 0x77ee32e1bf32a9c2ull},
    {8, false, 2, 0x5dfa2a4c19718f59ull},
    {8, false, 3, 0x32d865c7fb935d1dull},
    {16, true, -1, 0xd058b6167a4f3280ull},
    {16, true, 0, 0xc379597bdb58f02aull},
    {16, true, 1, 0x237d705b3f3e21b4ull},
    {16, true, 2, 0xd807ef6cf0443f79ull},
    {16, true, 3, 0xbd549b21b8c54f53ull},
    {16, false, -1, 0x951263c988a3ad6dull},
    {16, false, 0, 0x9b284449df3c2684ull},
    {16, false, 1, 0xb2aba5618ae39218ull},
    {16, false, 2, 0xd807ef6cf0443f79ull},
    {16, false, 3, 0x955007619d274e4full},
    {64, true, -1, 0xcad98e2a0953ecd1ull},
    {64, true, 0, 0x33812deb7565133cull},
    {64, true, 1, 0x416017a0993a9088ull},
    {64, true, 2, 0x1376fc6e7b59c0fbull},
    {64, true, 3, 0xf5dcc9442091a49aull},
    {64, false, -1, 0x77243d9d16437457ull},
    {64, false, 0, 0xd0b671b2853c3214ull},
    {64, false, 1, 0xe7131a69517c0d28ull},
    {64, false, 2, 0x1376fc6e7b59c0fbull},
    {64, false, 3, 0x2a2869f9c134313aull},
};

TEST(ExecutorCorpus, OutcomesArePinned)
{
    size_t i = 0;
    for (size_t cards : {2, 3, 4, 8, 16, 64}) {
        for (bool overlaps : {true, false}) {
            for (int v = -1; v < 4; ++v) {
                ASSERT_LT(i, std::size(kCorpusPins));
                const CorpusPin& pin = kCorpusPins[i++];
                ASSERT_EQ(pin.cards, cards);
                ASSERT_EQ(pin.overlaps, overlaps);
                ASSERT_EQ(pin.plan, v);
                uint64_t got = corpusCaseHash(cards, overlaps, v);
                EXPECT_EQ(got, pin.fnv)
                    << "cards " << cards << " overlap " << overlaps
                    << " plan " << v << ": got 0x" << std::hex << got;
            }
        }
    }
    EXPECT_EQ(i, std::size(kCorpusPins));
}

TEST(ExecutorCorpus, FaultPlansIncludeCardKills)
{
    // The pinned corpus must exercise mid-run card death (plans 0 and
    // 1) and a kill dated before the time origin of plan 2.
    for (size_t cards : {2, 3, 4, 8, 16, 64}) {
        for (int v = 0; v < 3; ++v)
            EXPECT_EQ(corpusFaultPlan(v, cards).cardFailAt.size(), 1u);
        EXPECT_LT(corpusFaultPlan(2, cards).cardFailAt.begin()->second,
                  5000u);
    }
}

/** Static defects the validate corpus injects into a valid program. */
enum class Mutation
{
    DropRecv,
    DuplicateSender,
    BadPeer,
    SelfPeer,
    DanglingAfterCompute,
    WaitOnUnknownMsg,
};

/** Apply `m` to `p` at positions drawn from `seed`. */
void
mutate(Program& p, Mutation m, uint64_t seed)
{
    Rng rng(seed);
    const size_t n = p.cardCount();
    // Comm tasks of one kind, as (card, index) pairs.
    auto tasksOf = [&p](CommTask::Kind kind) {
        std::vector<std::pair<size_t, size_t>> out;
        for (size_t c = 0; c < p.cardCount(); ++c)
            for (size_t i = 0; i < p.cards[c].comm.size(); ++i)
                if (p.cards[c].comm[i].kind == kind)
                    out.emplace_back(c, i);
        return out;
    };
    auto sends = tasksOf(CommTask::Kind::Send);
    auto recvs = tasksOf(CommTask::Kind::Recv);
    auto [sc, si] = sends[rng.uniformU64(sends.size())];
    auto [rc, ri] = recvs[rng.uniformU64(recvs.size())];
    CommTask& send = p.cards[sc].comm[si];
    switch (m) {
    case Mutation::DropRecv:
        p.cards[rc].comm.erase(p.cards[rc].comm.begin() +
                               static_cast<ptrdiff_t>(ri));
        break;
    case Mutation::DuplicateSender: {
        size_t other = (sc + 1 + rng.uniformU64(n - 1)) % n;
        auto& q = p.cards[other].comm;
        q.insert(q.begin() + static_cast<ptrdiff_t>(
                                 rng.uniformU64(q.size() + 1)),
                 send);
        break;
    }
    case Mutation::BadPeer:
        send.peer = n + 3;
        p.cards[rc].comm[ri].peer = n + 7;
        break;
    case Mutation::SelfPeer:
        send.peer = sc;
        p.cards[rc].comm[ri].peer = rc;
        break;
    case Mutation::DanglingAfterCompute:
        send.afterCompute = 999999;
        break;
    case Mutation::WaitOnUnknownMsg: {
        size_t c = rng.uniformU64(n);
        auto& q = p.cards[c].compute;
        q[rng.uniformU64(q.size())].waitMsgs.push_back(777777);
        // Also a real message this card never receives.
        q.front().waitMsgs.push_back(send.msg);
        break;
    }
    }
}

struct ValidatePin
{
    size_t cards;
    Mutation mutation;
    /** FNV of validate()'s (kind, card, id, detail) sequence. */
    uint64_t issues;
    /** FNV of both network modes' outcomes with prevalidation off. */
    uint64_t run;
};

const ValidatePin kValidatePins[] = {
    {2, Mutation::DropRecv, 0x50c83cc12c9a8fa6ull,
     0x72dae489a89147cfull},
    {2, Mutation::DuplicateSender, 0xded943da1a0d165aull,
     0x34cb31166ea0300dull},
    {2, Mutation::BadPeer, 0xcf4d3e3658b6ad25ull,
     0xa0e940baaf45a781ull},
    {2, Mutation::SelfPeer, 0x5371d6c3ccc17d7aull,
     0x237b6ff4fcf209c5ull},
    {2, Mutation::DanglingAfterCompute, 0x34b8026b613aa8b1ull,
     0xbb4c926772890095ull},
    {2, Mutation::WaitOnUnknownMsg, 0xc4dabd0e4da7a921ull,
     0x80bd5d8c0ad1015full},
    {4, Mutation::DropRecv, 0x49b77ca964c6d837ull,
     0xf892cefbd41d793full},
    {4, Mutation::DuplicateSender, 0x29befccea1433753ull,
     0x4f1692f680e810b3ull},
    {4, Mutation::BadPeer, 0x7f2fd0ef343bd92eull,
     0x0f1a2df5eb495531ull},
    {4, Mutation::SelfPeer, 0xaf2b52564dcbc078ull,
     0xe8fdf0957a5752c3ull},
    {4, Mutation::DanglingAfterCompute, 0x5114399cdca1e448ull,
     0x31339ebd5a1d6f1dull},
    {4, Mutation::WaitOnUnknownMsg, 0x0e509472f771257bull,
     0x52e8b0fbc3c9298full},
    {8, Mutation::DropRecv, 0x70ed7bc5897829c3ull,
     0x540ffb94b8a7da11ull},
    {8, Mutation::DuplicateSender, 0xc7f861c0a99e7491ull,
     0xd46b8e60cac141fcull},
    {8, Mutation::BadPeer, 0x0db1439758863155ull,
     0xc2391a7ccd36f339ull},
    {8, Mutation::SelfPeer, 0xdc6b3759557d723cull,
     0x7a789650e33a74ddull},
    {8, Mutation::DanglingAfterCompute, 0x94c2e04cbea81e39ull,
     0x2c765b1da9b7d701ull},
    {8, Mutation::WaitOnUnknownMsg, 0x085f395445a29664ull,
     0x5826ddc70adff6edull},
};

TEST(ExecutorCorpus, ValidateIssuesAndUnvalidatedRunsArePinned)
{
    const Mutation mutations[] = {
        Mutation::DropRecv,        Mutation::DuplicateSender,
        Mutation::BadPeer,         Mutation::SelfPeer,
        Mutation::DanglingAfterCompute, Mutation::WaitOnUnknownMsg,
    };
    size_t i = 0;
    for (size_t cards : {2, 4, 8}) {
        for (Mutation m : mutations) {
            ASSERT_LT(i, std::size(kValidatePins));
            const ValidatePin& pin = kValidatePins[i++];
            ASSERT_EQ(pin.cards, cards);
            ASSERT_EQ(pin.mutation, m);
            Tick total = 0;
            Program p = randomProgram(cards, 5 + cards, 12, 6, total,
                                      true);
            ASSERT_TRUE(p.validate().empty());
            mutate(p, m, cards * 31 + static_cast<uint64_t>(m));
            std::vector<ProgramIssue> issues = p.validate();
            EXPECT_FALSE(issues.empty());
            uint64_t got = issuesHash(issues);
            EXPECT_EQ(got, pin.issues)
                << "cards " << cards << " mutation "
                << static_cast<int>(m) << ": issues 0x" << std::hex
                << got;

            Fnv f;
            for (bool overlaps : {true, false}) {
                ClusterConfig cfg{1, cards};
                FuzzNetwork net(3, 20, overlaps);
                ClusterExecutor ex(cfg, net);
                ex.setRecordTimeline(true);
                RunResult pre = ex.tryRun(p);
                EXPECT_EQ(pre.error.kind,
                          RunError::Kind::InvalidProgram);
                f.mix(outcomeHash(pre));
                ex.setPrevalidate(false);
                f.mix(outcomeHash(ex.tryRun(p)));
            }
            EXPECT_EQ(f.h, pin.run)
                << "cards " << cards << " mutation "
                << static_cast<int>(m) << ": run 0x" << std::hex << f.h;
        }
    }
    EXPECT_EQ(i, std::size(kValidatePins));
}

} // namespace
} // namespace hydra
