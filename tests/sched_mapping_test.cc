/**
 * @file
 * Task-mapping tests: work conservation, deadlock freedom, aggregation
 * patterns (Fig. 2 broadcast waves, tree reductions), Alg. 1 polynomial
 * splitting, and Fig. 3 bootstrap mapping.
 */

#include <gtest/gtest.h>

#include "sched/progcache.hh"
#include "sync/executor.hh"

namespace hydra {
namespace {

struct MapperFixture
{
    explicit MapperFixture(size_t cards, bool host_net = false)
        : cluster{cards <= 8 ? 1 : (cards + 7) / 8,
                  cards <= 8 ? cards : 8},
          cost(FpgaParams{}, size_t{1} << 16, 4)
    {
        if (host_net)
            net = std::make_unique<HostMediatedNetwork>(HostNetParams{},
                                                        cluster);
        else
            net = std::make_unique<SwitchedNetwork>(NetParams{}, cluster);
        mapper = std::make_unique<StepMapper>(cost, *net,
                                              cluster.totalCards(), 15);
        executor = std::make_unique<ClusterExecutor>(cluster, *net);
    }

    /** Map + price one step, no optimizer passes. */
    Program
    compile(const Step& s) const
    {
        return compileUnit(cost, *net, cluster.totalCards(), 15,
                           MappingConfig{}, {&s, 1}, OptLevel::None)
            .program;
    }

    RunStats runStep(const Step& s) { return executor->run(compile(s)); }

    ClusterConfig cluster;
    OpCostModel cost;
    std::unique_ptr<NetworkModel> net;
    std::unique_ptr<StepMapper> mapper;
    std::unique_ptr<ClusterExecutor> executor;
};

Step
convStep(size_t par = 512)
{
    return Step{ProcKind::ConvBN, "conv", par, convBnMix(), 12,
                AggKind::BroadcastEach, 0, 1.0, 16};
}

Step
fcStep(size_t par = 1511)
{
    return Step{ProcKind::FC, "fc", par, fcMix(), 12,
                AggKind::ReduceTree, 0, 1.0, 1};
}

Step
reluStep(size_t par)
{
    return Step{ProcKind::NonLinear, "relu", par, nonLinearMix(), 10,
                AggKind::BroadcastEach, 15, 1.0, 8};
}

Step
bootStep(size_t count)
{
    return Step{ProcKind::Bootstrap, "boot", count, OpMix{}, 18,
                AggKind::None, 0, 1.0, count};
}

class CardCountTest : public ::testing::TestWithParam<size_t>
{
};

TEST_P(CardCountTest, ConvMappingRunsWithoutDeadlock)
{
    MapperFixture f(GetParam());
    RunStats st = f.runStep(convStep());
    EXPECT_GT(st.makespan, 0u);
}

TEST_P(CardCountTest, WorkIsConserved)
{
    // Total compute time across cards must equal units x unit latency,
    // independent of the card count (plus aggregation HAdds).
    size_t cards = GetParam();
    MapperFixture f(cards);
    Step s = convStep(512);
    Tick unit = f.cost.latency(f.cost.mixCost(s.perUnit, s.limbs));
    RunStats st = f.runStep(s);
    Tick busy = 0;
    for (Tick t : st.computeBusy)
        busy += t;
    EXPECT_EQ(busy, unit * 512);
}

TEST_P(CardCountTest, MoreCardsNotSlower)
{
    size_t cards = GetParam();
    if (cards == 1)
        GTEST_SKIP();
    MapperFixture one(1);
    MapperFixture many(cards);
    Step s = convStep(1024);
    EXPECT_LT(many.runStep(s).makespan, one.runStep(s).makespan);
}

INSTANTIATE_TEST_SUITE_P(Cards, CardCountTest,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 64));

TEST(Mapping, ConvBroadcastDeliversToEveryCard)
{
    size_t cards = 8;
    MapperFixture f(cards);
    Step s = convStep(64);
    Program p = f.compile(s);
    // Every card posts receives for the other cards' outputs.
    for (size_t c = 0; c < cards; ++c) {
        size_t recvs = 0, sends = 0;
        for (const auto& t : p.cards[c].comm) {
            if (t.kind == CommTask::Kind::Recv)
                ++recvs;
            else
                ++sends;
        }
        EXPECT_GT(recvs, 0u) << "card " << c;
        EXPECT_GT(sends, 0u) << "card " << c;
    }
    RunStats st = f.executor->run(p);
    // outputCts ciphertexts broadcast to 7 receivers each.
    EXPECT_EQ(st.netBytes,
              16ull * f.cost.ciphertextBytes(12) * (cards - 1));
}

TEST(Mapping, ReduceTreeUsesLogRounds)
{
    size_t cards = 8;
    MapperFixture f(cards);
    Step s = fcStep();
    Program p = f.compile(s);
    // Tree reduction: 7 point-to-point sends + final broadcast.
    size_t sends = 0, bcasts = 0;
    for (const auto& card : p.cards) {
        for (const auto& t : card.comm) {
            if (t.kind != CommTask::Kind::Send)
                continue;
            if (t.peer == kBroadcast)
                ++bcasts;
            else
                ++sends;
        }
    }
    EXPECT_EQ(sends, cards - 1);
    EXPECT_EQ(bcasts, 1u);
    RunStats st = f.executor->run(p);
    EXPECT_GT(st.makespan, 0u);
}

TEST(Mapping, NonLinearUsesTreeWhenUnitsBelowCards)
{
    MapperFixture f(8);
    // 2 evaluations on 8 cards: each gets a 4-card Alg. 1 group that
    // exchanges sub-results (CMult on several cards).
    Program p = f.compile(reluStep(2));
    size_t active_cards = 0;
    for (const auto& card : p.cards)
        if (!card.compute.empty())
            ++active_cards;
    EXPECT_GT(active_cards, 2u); // more cards engaged than evaluations
    RunStats st = f.executor->run(p);
    EXPECT_GT(st.makespan, 0u);
}

TEST(Mapping, NonLinearDataParallelWhenUnitsCoverCards)
{
    MapperFixture f(8);
    Program p = f.compile(reluStep(64));
    for (const auto& card : p.cards)
        EXPECT_FALSE(card.compute.empty());
    RunStats st = f.executor->run(p);
    EXPECT_GT(st.makespan, 0u);
}

TEST(Mapping, PolyTreeDistributesCMultLoad)
{
    // One degree-59 evaluation via Alg. 1 on 8 cards: the CMult-heavy
    // work spreads over several cards, so no card carries more than
    // ~half of the single-card compute time.
    MapperFixture f8(8);
    MapperFixture f1(1);
    Step s = reluStep(1);
    s.polyDegree = 59;
    // The single-card path prices the whole polynomial with the
    // degree-based formula; compare per-card busy time, which is what
    // Alg. 1 balances (the end-to-end makespan additionally depends on
    // the compute/transfer latency ratio of the platform).
    RunStats st8 = f8.runStep(s);
    Tick busiest = st8.maxComputeBusy();
    Tick total8 = 0;
    size_t active = 0;
    for (Tick t : st8.computeBusy) {
        total8 += t;
        if (t)
            ++active;
    }
    EXPECT_GE(active, 4u);
    EXPECT_LT(busiest, total8); // genuinely distributed
}

TEST(Mapping, PolyTreeWinsWhenTransfersAreCheap)
{
    // With a fast interconnect (compute >> transfer), growing the
    // Alg. 1 group shortens one degree-59 evaluation end to end, as in
    // Fig. 3(a).  Comparing 8- vs 2-card groups keeps the pricing of
    // the polynomial identical on both sides.
    NetParams fast;
    fast.linkBytesPerSec = 1e13;
    fast.switchLatency = 0;
    fast.dmaConfigLatency = 0;
    OpCostModel cost(FpgaParams{}, size_t{1} << 16, 4);

    auto run_group = [&](size_t cards) {
        ClusterConfig cfg{1, cards};
        SwitchedNetwork net(fast, cfg);
        ClusterExecutor ex(cfg, net);
        Step s = reluStep(1);
        s.polyDegree = 59;
        return ex
            .run(compileUnit(cost, net, cards, 15, MappingConfig{},
                             {&s, 1}, OptLevel::None)
                     .program)
            .makespan;
    };
    EXPECT_LT(run_group(8), run_group(2));
}

TEST(Mapping, BootstrapDataParallelWhenManyCts)
{
    MapperFixture f(8);
    Program p = f.compile(bootStep(32));
    // 32 boots on 8 cards: purely local, no communication.
    for (const auto& card : p.cards) {
        EXPECT_TRUE(card.comm.empty());
        EXPECT_FALSE(card.compute.empty());
    }
}

TEST(Mapping, BootstrapGroupMappingWhenFewCts)
{
    MapperFixture f(8);
    Program p = f.compile(bootStep(2));
    // 2 boots on 8 cards: 4-card groups communicate (DFT aggregation).
    size_t comm_tasks = 0;
    for (const auto& card : p.cards)
        comm_tasks += card.comm.size();
    EXPECT_GT(comm_tasks, 0u);
    RunStats st = f.executor->run(p);
    EXPECT_GT(st.makespan, 0u);
}

TEST(Mapping, BootstrapScalesAcrossGroups)
{
    Step s = bootStep(2);
    MapperFixture f1(1);
    MapperFixture f8(8);
    Tick t1 = f1.runStep(s).makespan;
    Tick t8 = f8.runStep(s).makespan;
    EXPECT_LT(t8, t1);
}

TEST(Mapping, HostMediatedNetworkStillCompletes)
{
    MapperFixture f(8, /*host_net=*/true);
    for (const Step& s : {convStep(128), fcStep(256), reluStep(4),
                          bootStep(2)}) {
        RunStats st = f.runStep(s);
        EXPECT_GT(st.makespan, 0u) << s.name;
    }
}

TEST(Mapping, HydraOverlapsCommBetterThanFab)
{
    Step s = convStep(1024);
    MapperFixture hydra(8, false);
    MapperFixture fab(8, true);
    RunStats sh = hydra.runStep(s);
    RunStats sf = fab.runStep(s);
    double hydra_comm = static_cast<double>(sh.commOverhead()) /
                        static_cast<double>(sh.makespan);
    double fab_comm = static_cast<double>(sf.commOverhead()) /
                      static_cast<double>(sf.makespan);
    EXPECT_LT(hydra_comm, fab_comm);
}

TEST(Mapping, BootstrapLocalTimeGrowsWithLimbs)
{
    MapperFixture f(1);
    EXPECT_LT(f.mapper->bootstrapLocalTime(8),
              f.mapper->bootstrapLocalTime(20));
}

} // namespace
} // namespace hydra
