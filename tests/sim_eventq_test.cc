/**
 * @file
 * Event queue ordering and determinism tests.
 */

#include <gtest/gtest.h>

#include <memory>

#include "sim/eventq.hh"

namespace hydra {
namespace {

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickFiresInInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, NestedScheduling)
{
    EventQueue eq;
    std::vector<Tick> times;
    eq.schedule(10, [&] {
        times.push_back(eq.now());
        eq.scheduleAfter(5, [&] { times.push_back(eq.now()); });
        eq.scheduleAfter(0, [&] { times.push_back(eq.now()); });
    });
    eq.run();
    EXPECT_EQ(times, (std::vector<Tick>{10, 10, 15}));
}

/** Callback that counts its copies through a shared counter. */
struct CopyProbe
{
    std::shared_ptr<int> copies = std::make_shared<int>(0);

    CopyProbe() = default;
    CopyProbe(CopyProbe&&) = default;
    CopyProbe(const CopyProbe& o) : copies(o.copies) { ++*copies; }

    void operator()() const {}
};

TEST(EventQueue, StepDoesNotCopyCallbacks)
{
    EventQueue eq;
    CopyProbe probe;
    std::shared_ptr<int> copies = probe.copies;
    long live = 0;
    for (Tick t : {20, 10, 10, 30})
        eq.schedule(t, CopyProbe(probe));
    eq.schedule(15, [copies, &live] { live = copies.use_count(); });
    EXPECT_EQ(*copies, 4); // the four explicit copies above
    eq.run();
    // Popping moves each callback out of the heap, so no copy is
    // made, and a fired callback is released at once: at tick 15 the
    // references are the test's two, the two probes still queued (20
    // and 30) and the running callback's own.
    EXPECT_EQ(*copies, 4);
    EXPECT_EQ(live, 5);
    EXPECT_EQ(copies.use_count(), 2);
}

TEST(EventQueue, ExecutedCountTracks)
{
    EventQueue eq;
    eq.schedule(1, [] {});
    eq.schedule(2, [] {});
    eq.run();
    EXPECT_EQ(eq.executedCount(), 2u);
}

TEST(EventQueue, TickConversionRoundTrips)
{
    EXPECT_EQ(secondsToTicks(1.0), kTicksPerSecond);
    EXPECT_DOUBLE_EQ(ticksToSeconds(kTicksPerSecond / 2), 0.5);
    EXPECT_NEAR(ticksToSeconds(secondsToTicks(3.14159)), 3.14159, 1e-9);
}

} // namespace
} // namespace hydra
