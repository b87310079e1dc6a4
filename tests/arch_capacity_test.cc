/**
 * @file
 * Scratchpad capacity model and timeline-recording tests.
 */

#include <gtest/gtest.h>

#include "arch/opcost.hh"
#include "sched/progcache.hh"
#include "sync/executor.hh"

namespace hydra {
namespace {

TEST(Capacity, DisabledByDefault)
{
    OpCostModel m(FpgaParams{}, size_t{1} << 16, 4);
    for (size_t l = 1; l <= 24; ++l)
        EXPECT_DOUBLE_EQ(m.trafficFactor(l), 1.0);
}

TEST(Capacity, PenaltyKicksInAboveScratchpad)
{
    FpgaParams fpga;
    fpga.scratchpadBytes = 16ull << 20;
    fpga.scratchpadOverflowPenalty = 1.0;
    OpCostModel m(fpga, size_t{1} << 16, 4);
    // Working set at 24 limbs is ~55 MiB >> 16 MiB.
    EXPECT_GT(m.workingSetBytes(24), fpga.scratchpadBytes);
    EXPECT_GT(m.trafficFactor(24), 1.0);
    // Small working sets stay at the base factor.
    EXPECT_LT(m.workingSetBytes(2), fpga.scratchpadBytes);
    EXPECT_DOUBLE_EQ(m.trafficFactor(2), 1.0);
    // Monotone in limbs once overflowing.
    EXPECT_GT(m.trafficFactor(24), m.trafficFactor(12));
}

TEST(Capacity, PenaltySlowsMemoryBoundOps)
{
    FpgaParams tight;
    tight.scratchpadBytes = 8ull << 20;
    tight.scratchpadOverflowPenalty = 2.0;
    OpCostModel penalized(tight, size_t{1} << 16, 4);
    OpCostModel base(FpgaParams{}, size_t{1} << 16, 4);
    EXPECT_GT(penalized.opLatency(HeOpType::HAdd, 24),
              base.opLatency(HeOpType::HAdd, 24));
}

TEST(Capacity, WorkingSetGrowsWithLimbs)
{
    OpCostModel m(FpgaParams{}, size_t{1} << 16, 4);
    uint64_t prev = 0;
    for (size_t l = 1; l <= 24; ++l) {
        uint64_t ws = m.workingSetBytes(l);
        EXPECT_GT(ws, prev);
        prev = ws;
    }
}

TEST(Capacity, OpCostCarriesLimbs)
{
    OpCostModel m(FpgaParams{}, size_t{1} << 16, 4);
    EXPECT_EQ(m.cost(HeOpType::CMult, 17).limbs, 17u);
    OpCost sum = m.cost(HeOpType::CMult, 5);
    sum += m.cost(HeOpType::HAdd, 9);
    EXPECT_EQ(sum.limbs, 9u); // max rule
}

class TimelineTest : public ::testing::Test
{
  protected:
    TimelineTest()
        : cluster_{1, 4},
          cost_(FpgaParams{}, size_t{1} << 16, 4),
          net_(NetParams{}, cluster_),
          executor_(cluster_, net_)
    {
        executor_.setRecordTimeline(true);
    }

    /** Map + price one step on the 4-card cluster, no passes. */
    Program
    compile(const Step& s) const
    {
        return compileUnit(cost_, net_, 4, 15, MappingConfig{}, {&s, 1},
                           OptLevel::None)
            .program;
    }

    ClusterConfig cluster_;
    OpCostModel cost_;
    SwitchedNetwork net_;
    ClusterExecutor executor_;
};

TEST_F(TimelineTest, EventsCoverComputeBusy)
{
    Step s{ProcKind::ConvBN, "conv", 64, convBnMix(), 12,
           AggKind::BroadcastEach, 0, 1.0, 8};
    RunStats st = executor_.run(compile(s));
    ASSERT_FALSE(st.timeline.empty());

    // Per-card compute-event durations must sum to computeBusy.
    std::vector<Tick> per_card(4, 0);
    for (const auto& ev : st.timeline) {
        EXPECT_LE(ev.start, ev.end);
        EXPECT_LE(ev.end, st.makespan);
        EXPECT_LT(ev.card, 4u);
        if (ev.kind == TaskEvent::Kind::Compute)
            per_card[ev.card] += ev.end - ev.start;
    }
    for (size_t c = 0; c < 4; ++c)
        EXPECT_EQ(per_card[c], st.computeBusy[c]);
}

TEST_F(TimelineTest, ComputeEventsDoNotOverlapPerCard)
{
    Step s{ProcKind::Bootstrap, "boot", 1, OpMix{}, 18, AggKind::None, 0,
           1.0, 1};
    RunStats st = executor_.run(compile(s));
    std::vector<std::vector<std::pair<Tick, Tick>>> per_card(4);
    for (const auto& ev : st.timeline)
        if (ev.kind == TaskEvent::Kind::Compute)
            per_card[ev.card].emplace_back(ev.start, ev.end);
    for (auto& lane : per_card) {
        std::sort(lane.begin(), lane.end());
        for (size_t i = 1; i < lane.size(); ++i)
            EXPECT_GE(lane[i].first, lane[i - 1].second);
    }
}

TEST_F(TimelineTest, RecordingOffLeavesTimelineEmpty)
{
    ClusterExecutor quiet(cluster_, net_);
    Step s{ProcKind::FC, "fc", 64, fcMix(), 12, AggKind::ReduceTree, 0,
           1.0, 1};
    RunStats st = quiet.run(compile(s));
    EXPECT_TRUE(st.timeline.empty());
}

} // namespace
} // namespace hydra
