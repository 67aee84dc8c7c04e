/**
 * @file
 * Unit tests for the event-driven simulation kernel.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.hh"

namespace fbdp {
namespace {

TEST(EventQueueTest, StartsAtTickZeroAndEmpty)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_FALSE(eq.step());
}

TEST(EventQueueTest, DispatchesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    Event a([&] { order.push_back(1); });
    Event b([&] { order.push_back(2); });
    Event c([&] { order.push_back(3); });
    eq.schedule(&c, 300);
    eq.schedule(&a, 100);
    eq.schedule(&b, 200);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 300u);
}

TEST(EventQueueTest, SameTickOrderedByPriorityThenSeq)
{
    EventQueue eq;
    std::vector<int> order;
    Event data([&] { order.push_back(0); }, Event::prioData);
    Event cpu([&] { order.push_back(2); }, Event::prioCpu);
    Event def([&] { order.push_back(1); });
    eq.schedule(&cpu, 50);
    eq.schedule(&def, 50);
    eq.schedule(&data, 50);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueueTest, SameTickSamePriorityFifo)
{
    EventQueue eq;
    std::vector<int> order;
    Event a([&] { order.push_back(1); });
    Event b([&] { order.push_back(2); });
    eq.schedule(&a, 10);
    eq.schedule(&b, 10);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueueTest, RescheduleMovesEvent)
{
    EventQueue eq;
    int fired = 0;
    Event a([&] { ++fired; });
    eq.schedule(&a, 100);
    eq.schedule(&a, 500);  // move
    Event marker([] {});
    eq.schedule(&marker, 200);
    eq.run(200);
    EXPECT_EQ(fired, 0);  // not yet
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 500u);
}

TEST(EventQueueTest, DescheduleCancels)
{
    EventQueue eq;
    int fired = 0;
    Event a([&] { ++fired; });
    eq.schedule(&a, 100);
    eq.deschedule(&a);
    EXPECT_FALSE(a.scheduled());
    eq.run();
    EXPECT_EQ(fired, 0);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueueTest, DescheduleIdempotent)
{
    EventQueue eq;
    Event a([] {});
    eq.deschedule(&a);  // never scheduled: no-op
    eq.schedule(&a, 10);
    eq.deschedule(&a);
    eq.deschedule(&a);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueueTest, EventCanRescheduleItself)
{
    EventQueue eq;
    int count = 0;
    Event *pa = nullptr;
    Event a([&] {
        ++count;
        if (count < 5)
            eq.schedule(pa, eq.now() + 10);
    });
    pa = &a;
    eq.schedule(&a, 0);
    eq.run();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(eq.now(), 40u);
}

TEST(EventQueueTest, RunWithLimitStopsAndAdvancesClock)
{
    EventQueue eq;
    int fired = 0;
    Event a([&] { ++fired; });
    eq.schedule(&a, 1000);
    eq.run(500);
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(eq.now(), 500u);
    eq.run();
    EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, ScheduledFlagTracksLifecycle)
{
    EventQueue eq;
    Event a([] {});
    EXPECT_FALSE(a.scheduled());
    eq.schedule(&a, 10);
    EXPECT_TRUE(a.scheduled());
    EXPECT_EQ(a.when(), 10u);
    eq.run();
    EXPECT_FALSE(a.scheduled());
}

TEST(EventQueueTest, DispatchCountsEvents)
{
    EventQueue eq;
    Event a([] {});
    Event b([] {});
    eq.schedule(&a, 1);
    eq.schedule(&b, 2);
    eq.run();
    EXPECT_EQ(eq.dispatched(), 2u);
}

TEST(EventQueueTest, ScheduleAtCurrentTickAllowed)
{
    EventQueue eq;
    Event first([] {});
    eq.schedule(&first, 100);
    eq.step();
    int fired = 0;
    Event now_ev([&] { ++fired; });
    eq.schedule(&now_ev, eq.now());
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 100u);
}

TEST(EventQueueTest, ManyEventsStressOrdering)
{
    EventQueue eq;
    std::vector<std::unique_ptr<Event>> events;
    Tick last = 0;
    bool monotonic = true;
    for (int i = 0; i < 1000; ++i) {
        events.push_back(std::make_unique<Event>([&eq, &last,
                                                  &monotonic] {
            if (eq.now() < last)
                monotonic = false;
            last = eq.now();
        }));
        eq.schedule(events.back().get(),
                    static_cast<Tick>((i * 37) % 501));
    }
    eq.run();
    EXPECT_TRUE(monotonic);
    EXPECT_EQ(eq.dispatched(), 1000u);
}

// --- same-tick groups -------------------------------------------------
// Handlers may deschedule, reschedule, or newly schedule same-tick
// peers while the tick's group is being dispatched, and the (priority,
// seq) total order still decides what runs.

TEST(EventQueueTest, BatchPeerDescheduleCancelsUnrunEntry)
{
    EventQueue eq;
    int fired_b = 0;
    Event b([&] { ++fired_b; });
    Event a([&] { eq.deschedule(&b); });
    eq.schedule(&a, 50);
    eq.schedule(&b, 50); // same tick, after a in seq order
    eq.run();
    EXPECT_EQ(fired_b, 0);
    EXPECT_FALSE(b.scheduled());
    // The cancelled batch entry must not count as dispatched.
    EXPECT_EQ(eq.dispatched(), 1u);
    EXPECT_EQ(eq.counters().deschedules, 1u);
}

TEST(EventQueueTest, BatchPeerRescheduleMovesToLaterTick)
{
    EventQueue eq;
    std::vector<Tick> fires;
    Event b([&] { fires.push_back(eq.now()); });
    Event a([&] { eq.schedule(&b, 60); });
    eq.schedule(&a, 50);
    eq.schedule(&b, 50); // in a's batch until a moves it
    eq.run();
    EXPECT_EQ(fires, (std::vector<Tick>{60}));
}

TEST(EventQueueTest, NewSameTickEventDuringBatchRespectsPriority)
{
    // A handler schedules a new higher-priority (lower value) event
    // at the current tick; it must run before batch entries of lower
    // priority that were extracted earlier.
    EventQueue eq;
    std::vector<int> order;
    Event late([&] { order.push_back(2); });
    Event data([&] { order.push_back(1); }, Event::prioData);
    Event first([&] {
        order.push_back(0);
        eq.schedule(&data, eq.now());
    }, Event::prioData);
    Event cpu([&] { order.push_back(3); }, Event::prioCpu);
    eq.schedule(&first, 40);
    eq.schedule(&late, 40);
    eq.schedule(&cpu, 40);
    eq.run();
    // first (data, seq 0), then the newly scheduled data event (prio
    // 0 beats prio 10/20), then the default, then the cpu event.
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueueTest, ScheduledStaysTrueForUnrunBatchPeers)
{
    // Legacy semantics: a same-tick peer that has not fired yet still
    // reports scheduled() even while it sits in the extracted batch.
    EventQueue eq;
    bool b_was_scheduled = false;
    Event b([] {});
    Event a([&] { b_was_scheduled = b.scheduled(); });
    eq.schedule(&a, 10);
    eq.schedule(&b, 10);
    eq.run();
    EXPECT_TRUE(b_was_scheduled);
    EXPECT_FALSE(b.scheduled());
}

TEST(EventQueueTest, BatchSelfRescheduleRunsAgainSameTick)
{
    EventQueue eq;
    int fires = 0;
    Event a([&] {
        if (++fires == 1)
            eq.schedule(&a, eq.now()); // run once more this tick
    });
    eq.schedule(&a, 30);
    Event peer([] {});
    eq.schedule(&peer, 30);
    eq.run();
    EXPECT_EQ(fires, 2);
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueueTest, LongBurstDispatchesInPrioritySeqOrder)
{
    // Enough same-tick events to cross the burst threshold into the
    // batch path: the total order must be indistinguishable from the
    // one-at-a-time walk.
    EventQueue eq;
    std::vector<int> order;
    std::vector<std::unique_ptr<Event>> evs;
    for (int i = 0; i < 32; ++i) {
        const int prio = (i % 3) * 10; // data / default / cpu
        evs.push_back(std::make_unique<Event>(
            [&order, i] { order.push_back(i); }, prio));
    }
    for (auto &e : evs)
        eq.schedule(e.get(), 100);
    eq.run();
    ASSERT_EQ(order.size(), 32u);
    // Priority ascending; equal priorities in schedule (seq) order.
    for (std::size_t i = 1; i < order.size(); ++i) {
        const int pa = (order[i - 1] % 3) * 10;
        const int pb = (order[i] % 3) * 10;
        EXPECT_LE(pa, pb);
        if (pa == pb)
            EXPECT_LT(order[i - 1], order[i]);
    }
    EXPECT_EQ(eq.dispatched(), 32u);
}

TEST(EventQueueTest, LongBurstPeerDescheduleAndReschedule)
{
    // Mid-burst mutation with the batch path active: an early event
    // cancels one later batch entry and moves another to a later
    // tick.  Both must behave exactly as under direct dispatch.
    // Schedule order (all default priority, one tick): ten leaders,
    // the mutator, its two targets, ten trailers.  The leaders burn
    // the direct-dispatch budget, so the mutator — and the targets it
    // touches — are genuine batch entries when it runs.
    EventQueue eq;
    int cancelled_fired = 0, moved_at = -1, fired = 0;
    std::vector<std::unique_ptr<Event>> evs;
    Event victim([&cancelled_fired] { ++cancelled_fired; });
    Event mover([&moved_at, &eq] {
        moved_at = static_cast<int>(eq.now());
    });
    Event mutator([&eq, &victim, &mover] {
        eq.deschedule(&victim);
        eq.schedule(&mover, eq.now() + 50);
    });
    for (int i = 0; i < 10; ++i)
        evs.push_back(std::make_unique<Event>([&fired] { ++fired; }));
    for (auto &e : evs)
        eq.schedule(e.get(), 10);
    eq.schedule(&mutator, 10);
    eq.schedule(&victim, 10);
    eq.schedule(&mover, 10);
    std::vector<std::unique_ptr<Event>> trailers;
    for (int i = 0; i < 10; ++i)
        trailers.push_back(
            std::make_unique<Event>([&fired] { ++fired; }));
    for (auto &e : trailers)
        eq.schedule(e.get(), 10);
    eq.run();
    EXPECT_EQ(fired, 20);
    EXPECT_EQ(cancelled_fired, 0);
    EXPECT_EQ(moved_at, 60);
    EXPECT_EQ(eq.now(), 60u);
    EXPECT_EQ(eq.counters().deschedules, 1u);
}

TEST(EventQueueTest, LongBurstNewHighPriorityEventCutsIn)
{
    // A same-tick event scheduled from inside the batch at a higher
    // priority must cut in before the lower-priority batch remainder
    // (the drain in the dispatch loop).  The injector sits deep
    // enough in the cpu crowd to be a batch entry itself.
    EventQueue eq;
    std::vector<int> order;
    std::vector<std::unique_ptr<Event>> cpu_evs;
    Event injected([&order] { order.push_back(-1); },
                   Event::prioData);
    Event injector([&order, &eq, &injected] {
        order.push_back(0);
        eq.schedule(&injected, eq.now());
    }, Event::prioCpu);
    for (int i = 1; i <= 20; ++i)
        cpu_evs.push_back(std::make_unique<Event>(
            [&order, i] { order.push_back(i); }, Event::prioCpu));
    for (int i = 0; i < 10; ++i)
        eq.schedule(cpu_evs[static_cast<size_t>(i)].get(), 5);
    eq.schedule(&injector, 5);
    for (int i = 10; i < 20; ++i)
        eq.schedule(cpu_evs[static_cast<size_t>(i)].get(), 5);
    eq.run();
    ASSERT_EQ(order.size(), 22u);
    EXPECT_EQ(order[9], 10);  // last leader
    EXPECT_EQ(order[10], 0);  // injector, dispatched from the batch
    EXPECT_EQ(order[11], -1); // injected data event beats the rest
    EXPECT_EQ(order[12], 11);
    EXPECT_EQ(order.back(), 20);
}

} // namespace
} // namespace fbdp
