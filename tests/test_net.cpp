// Unit tests for channels (FIFO + fault surface), the network (routing,
// causality threading, accounting), and the fault injector.
#include <gtest/gtest.h>

#include <vector>

#include "net/fault_injector.hpp"
#include "net/network.hpp"
#include "sim/scheduler.hpp"

namespace graybox::net {
namespace {

Message make_msg(ProcessId from, ProcessId to, std::uint64_t counter,
                 MsgType type = MsgType::kRequest) {
  Message m;
  m.type = type;
  m.from = from;
  m.to = to;
  m.ts = clk::Timestamp{counter, from};
  return m;
}

/// A clock of `pid` in a system of `n` that has ticked once: what a send
/// stamps, and distinguishable from a fabricated message's empty clock.
clk::VectorClock clocked(ProcessId pid, std::size_t n) {
  clk::VectorClock vc(pid, n);
  vc.tick();
  return vc;
}

// --- Channel ---------------------------------------------------------------

class ChannelTest : public ::testing::Test {
 protected:
  sim::Scheduler sched;
  std::vector<Message> delivered;

  std::unique_ptr<Channel> make_channel(DelayModel delay) {
    return std::make_unique<Channel>(
        sched, delay, Rng(7),
        [this](const Message& m) { delivered.push_back(m); });
  }
};

TEST_F(ChannelTest, DeliversAfterFixedDelay) {
  auto ch = make_channel(DelayModel::fixed(10));
  ch->enqueue(make_msg(0, 1, 5));
  sched.run_until(9);
  EXPECT_TRUE(delivered.empty());
  sched.run_until(10);
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].ts.counter, 5u);
}

TEST_F(ChannelTest, FifoOrderWithFixedDelay) {
  auto ch = make_channel(DelayModel::fixed(5));
  for (std::uint64_t i = 0; i < 10; ++i) ch->enqueue(make_msg(0, 1, i));
  sched.run_all();
  ASSERT_EQ(delivered.size(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i)
    EXPECT_EQ(delivered[i].ts.counter, i);
}

TEST_F(ChannelTest, FifoOrderWithRandomDelays) {
  // Even with wildly variable delays, delivery must respect send order
  // (Communication Spec: channels are FIFO).
  auto ch = make_channel(DelayModel::uniform(1, 100));
  for (std::uint64_t i = 0; i < 50; ++i) {
    ch->enqueue(make_msg(0, 1, i));
    sched.run_for(3);  // interleave sends with partial delivery
  }
  sched.run_for(500);
  ASSERT_EQ(delivered.size(), 50u);
  for (std::uint64_t i = 0; i < 50; ++i)
    EXPECT_EQ(delivered[i].ts.counter, i);
}

TEST_F(ChannelTest, DropRemovesExactlyOne) {
  auto ch = make_channel(DelayModel::fixed(10));
  ch->enqueue(make_msg(0, 1, 1));
  ch->enqueue(make_msg(0, 1, 2));
  ch->fault_drop(0);
  sched.run_all();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].ts.counter, 2u);
  EXPECT_EQ(ch->dropped_by_fault(), 1u);
}

TEST_F(ChannelTest, DuplicateDeliversTwice) {
  auto ch = make_channel(DelayModel::fixed(10));
  Message original = make_msg(0, 1, 1);
  original.vc = clocked(0, 3);
  ch->enqueue(original);
  ch->fault_duplicate(0);
  sched.run_all();
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[0].ts.counter, 1u);
  EXPECT_EQ(delivered[1].ts.counter, 1u);
  EXPECT_EQ(delivered[0].vc, original.vc);
  EXPECT_EQ(delivered[1].vc, original.vc);
}

TEST_F(ChannelTest, CorruptRewritesPayloadKeepsIdentity) {
  auto ch = make_channel(DelayModel::fixed(10));
  Message original = make_msg(0, 1, 1);
  original.uid = 77;
  original.vc = clocked(0, 3);
  original.taint.add(5);
  ch->enqueue(original);
  // A corrupt payload carries no clock and no taint of its own.
  Message corrupted = make_msg(0, 1, 999, MsgType::kRelease);
  ch->fault_corrupt(0, corrupted);
  sched.run_all();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].ts.counter, 999u);
  EXPECT_EQ(delivered[0].type, MsgType::kRelease);
  // Physical identity and causal metadata preserved.
  EXPECT_EQ(delivered[0].uid, 77u);
  EXPECT_EQ(delivered[0].vc, original.vc);
  ASSERT_EQ(delivered[0].taint.size(), 1u);
  EXPECT_TRUE(delivered[0].taint.contains(5));
}

TEST_F(ChannelTest, SwapReordersDelivery) {
  auto ch = make_channel(DelayModel::fixed(10));
  ch->enqueue(make_msg(0, 1, 1));
  ch->enqueue(make_msg(0, 1, 2));
  ch->fault_swap(0, 1);
  sched.run_all();
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[0].ts.counter, 2u);
  EXPECT_EQ(delivered[1].ts.counter, 1u);
}

TEST_F(ChannelTest, InjectFabricatesDelivery) {
  auto ch = make_channel(DelayModel::fixed(10));
  ch->fault_inject(make_msg(0, 1, 42));
  sched.run_all();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].ts.counter, 42u);
}

TEST_F(ChannelTest, ClearSilencesEverything) {
  auto ch = make_channel(DelayModel::fixed(10));
  for (std::uint64_t i = 0; i < 5; ++i) ch->enqueue(make_msg(0, 1, i));
  ch->fault_clear();
  sched.run_all();
  EXPECT_TRUE(delivered.empty());
  EXPECT_EQ(ch->dropped_by_fault(), 5u);
  EXPECT_EQ(ch->in_flight(), 0u);
}

TEST_F(ChannelTest, InjectFoldsTickTimeIntoArrivalFloor) {
  // Regression: fault_inject scheduled its delivery tick at
  // max(now, last_arrival_) but never folded that time back into
  // last_arrival_, so the documented monotone-arrival invariant was
  // silently broken whenever the channel had already drained (stale floor
  // below now).
  auto ch = make_channel(DelayModel::fixed(10));
  ch->enqueue(make_msg(0, 1, 1));  // arrival (and floor) = 10
  sched.run_all();                 // delivered; floor left at 10
  EXPECT_EQ(ch->last_arrival(), 10u);
  sched.schedule_at(25, [&] { ch->fault_inject(make_msg(0, 1, 42)); });
  sched.run_until(25);
  // The fabricated message's tick is at t=25; the floor must cover it.
  EXPECT_EQ(ch->last_arrival(), 25u);
  sched.run_all();
  ASSERT_EQ(delivered.size(), 2u);
}

TEST_F(ChannelTest, DuplicateFoldsTickTimeIntoArrivalFloor) {
  auto ch = make_channel(DelayModel::fixed(10));
  ch->enqueue(make_msg(0, 1, 1));
  sched.schedule_at(4, [&] { ch->fault_duplicate(0); });
  sched.run_until(4);
  // Duplicate tick lands at max(4, 10) = 10 — already covered, and the
  // floor must stay exactly there (monotone, no regression below).
  EXPECT_EQ(ch->last_arrival(), 10u);
  sched.run_all();
  ASSERT_EQ(delivered.size(), 2u);
}

TEST_F(ChannelTest, ClearForgetsDelayFloorAndStaleTicks) {
  // Regression: fault_clear dropped the queue but kept last_arrival_ at
  // the cleared tail and left the cleared backlog's ticks armed. A
  // post-clear message then (a) inherited the dead backlog's delay floor
  // and (b) could be delivered *early* by a stale tick. An improperly
  // initialized channel must forget everything.
  auto ch = make_channel(DelayModel::fixed(50));
  ch->enqueue(make_msg(0, 1, 1));  // arrival 50, tick armed at 50
  sched.schedule_at(10, [&] {
    ch->fault_clear();
    EXPECT_EQ(ch->last_arrival(), 10u);  // floor reset to now
    ch->enqueue(make_msg(0, 1, 2));      // arrival 10 + 50 = 60
  });
  sched.run_until(59);
  // Pre-fix the stale tick at t=50 delivered the new message 10 early.
  EXPECT_TRUE(delivered.empty());
  sched.run_until(60);
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].ts.counter, 2u);
}

TEST_F(ChannelTest, InjectStampsDistinctSpuriousUids) {
  // Regression: fabricated messages all carried uid = 0, so every spurious
  // message aliased every other one (and uid-0 legacy traffic) in the
  // monitors' send/delivery correlation.
  auto ch = make_channel(DelayModel::fixed(5));
  ch->fault_inject(make_msg(0, 1, 1));
  ch->fault_inject(make_msg(0, 1, 2));
  sched.run_all();
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_TRUE(is_spurious_uid(delivered[0].uid));
  EXPECT_TRUE(is_spurious_uid(delivered[1].uid));
  EXPECT_NE(delivered[0].uid, delivered[1].uid);
}

TEST_F(ChannelTest, InjectKeepsCallerProvidedUid) {
  // Scenario tests may fabricate messages with an explicit identity; only
  // uid-less messages get a spurious stamp.
  auto ch = make_channel(DelayModel::fixed(5));
  Message fake = make_msg(0, 1, 1);
  fake.uid = 1234;
  ch->fault_inject(fake);
  sched.run_all();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].uid, 1234u);
}

TEST_F(ChannelTest, AccountingCounters) {
  auto ch = make_channel(DelayModel::fixed(1));
  ch->enqueue(make_msg(0, 1, 1));
  ch->enqueue(make_msg(0, 1, 2));
  sched.run_all();
  EXPECT_EQ(ch->enqueued(), 2u);
  EXPECT_EQ(ch->delivered(), 2u);
}

// --- Message ring wraparound -------------------------------------------------
//
// The queue behind a channel is a ring buffer whose head walks forward with
// every delivery; once traffic exceeds the initial capacity the logical
// queue straddles the physical wrap point. These tests park the queue in
// that wrapped state and then exercise the positional fault surface, which
// is exactly where an index-translation bug would corrupt order.

TEST_F(ChannelTest, RingWraparoundKeepsFifoUnderSustainedTraffic) {
  auto ch = make_channel(DelayModel::fixed(3));
  // Interleave enqueue/deliver far past any power-of-two capacity so the
  // head wraps many times while the queue stays short.
  std::uint64_t next = 0;
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 7; ++i) ch->enqueue(make_msg(0, 1, next++));
    sched.run_for(2);  // partial drains keep a straddling backlog
  }
  sched.run_all();
  ASSERT_EQ(delivered.size(), next);
  for (std::uint64_t i = 0; i < next; ++i)
    EXPECT_EQ(delivered[i].ts.counter, i);
}

TEST_F(ChannelTest, FaultSwapOnWrappedQueue) {
  auto ch = make_channel(DelayModel::fixed(100));
  // Wrap the head: push/pop cycles move head_ near the end of the initial
  // 8-slot block, then leave a backlog that straddles the boundary.
  for (std::uint64_t i = 0; i < 6; ++i) ch->enqueue(make_msg(0, 1, i));
  sched.run_all();  // head has advanced 6 slots
  delivered.clear();
  for (std::uint64_t i = 0; i < 6; ++i)
    ch->enqueue(make_msg(0, 1, 100 + i));  // physically wraps
  ch->fault_swap(0, 5);  // swap across the physical wrap point
  const auto view = ch->contents();
  EXPECT_EQ(view[0].ts.counter, 105u);
  EXPECT_EQ(view[5].ts.counter, 100u);
  sched.run_all();
  ASSERT_EQ(delivered.size(), 6u);
  EXPECT_EQ(delivered[0].ts.counter, 105u);
  EXPECT_EQ(delivered[5].ts.counter, 100u);
  for (std::uint64_t i = 1; i < 5; ++i)
    EXPECT_EQ(delivered[i].ts.counter, 100 + i);
}

TEST_F(ChannelTest, FaultDropAndDuplicateOnWrappedQueue) {
  auto ch = make_channel(DelayModel::fixed(100));
  for (std::uint64_t i = 0; i < 5; ++i) ch->enqueue(make_msg(0, 1, i));
  sched.run_all();
  delivered.clear();
  for (std::uint64_t i = 0; i < 6; ++i) ch->enqueue(make_msg(0, 1, 200 + i));
  ch->fault_drop(4);          // erase shifts across the wrap
  ch->fault_duplicate(1);     // insert shifts across the wrap
  const auto view = ch->contents();
  ASSERT_EQ(view.size(), 6u);
  EXPECT_EQ(view[1].ts.counter, 201u);
  EXPECT_EQ(view[2].ts.counter, 201u);  // the duplicate, right behind
  EXPECT_EQ(view[3].ts.counter, 202u);
  EXPECT_EQ(view[4].ts.counter, 203u);
  EXPECT_EQ(view[5].ts.counter, 205u);  // 204 was dropped
  sched.run_all();
  EXPECT_EQ(delivered.size(), 6u);
}

TEST_F(ChannelTest, ComposedSameTickFaultsOnWrappedQueue) {
  // The explorer composes several targeted faults at one grid position —
  // all inside a single tick, with no deliveries between them. Each
  // fault's indices address the queue AS LEFT BY THE PREVIOUS ONE (not
  // the pre-tick snapshot): swap first relocates messages, then drop and
  // duplicate see the post-swap order. Pinned here across the physical
  // ring-wrap boundary, where a stale-snapshot or index-translation bug
  // would silently target the wrong message.
  auto ch = make_channel(DelayModel::fixed(100));
  for (std::uint64_t i = 0; i < 6; ++i) ch->enqueue(make_msg(0, 1, i));
  sched.run_all();  // head sits near the end of the initial 8-slot block
  delivered.clear();
  for (std::uint64_t i = 0; i < 7; ++i)
    ch->enqueue(make_msg(0, 1, 600 + i));  // physically wraps
  // Queue: 600 601 602 603 604 605 606
  ch->fault_swap(1, 6);   // -> 600 606 602 603 604 605 601
  ch->fault_drop(3);      // -> 600 606 602 604 605 601
  ch->fault_duplicate(0); // -> 600 600 606 602 604 605 601
  const std::uint64_t want[] = {600, 600, 606, 602, 604, 605, 601};
  const auto view = ch->contents();
  ASSERT_EQ(view.size(), 7u);
  for (std::size_t i = 0; i < 7; ++i)
    EXPECT_EQ(view[i].ts.counter, want[i]) << "in-flight index " << i;
  // Tick accounting composes too: the drop's orphaned tick no-ops and the
  // duplicate adds one, so exactly 7 messages deliver, in the faulted
  // order.
  sched.run_all();
  ASSERT_EQ(delivered.size(), 7u);
  for (std::size_t i = 0; i < 7; ++i)
    EXPECT_EQ(delivered[i].ts.counter, want[i]) << "delivery " << i;
  EXPECT_EQ(ch->dropped_by_fault(), 1u);
}

TEST_F(ChannelTest, FaultClearThenRefillOnWrappedQueue) {
  auto ch = make_channel(DelayModel::fixed(10));
  for (std::uint64_t i = 0; i < 7; ++i) ch->enqueue(make_msg(0, 1, i));
  sched.run_all();
  delivered.clear();
  for (std::uint64_t i = 0; i < 5; ++i) ch->enqueue(make_msg(0, 1, 300 + i));
  ch->fault_clear();  // resets the ring while wrapped
  EXPECT_TRUE(ch->contents().empty());
  for (std::uint64_t i = 0; i < 10; ++i) ch->enqueue(make_msg(0, 1, 400 + i));
  sched.run_all();
  ASSERT_EQ(delivered.size(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i)
    EXPECT_EQ(delivered[i].ts.counter, 400 + i);
}

TEST_F(ChannelTest, FaultInjectGrowsWrappedQueue) {
  auto ch = make_channel(DelayModel::fixed(100));
  for (std::uint64_t i = 0; i < 6; ++i) ch->enqueue(make_msg(0, 1, i));
  sched.run_all();
  delivered.clear();
  // Fill past the physical capacity with the head mid-block: push_back has
  // to grow and linearize a wrapped queue without reordering it.
  for (std::uint64_t i = 0; i < 9; ++i) ch->enqueue(make_msg(0, 1, 500 + i));
  ch->fault_inject(make_msg(0, 1, 999));
  const auto view = ch->contents();
  ASSERT_EQ(view.size(), 10u);
  for (std::uint64_t i = 0; i < 9; ++i)
    EXPECT_EQ(view[i].ts.counter, 500 + i);
  EXPECT_EQ(view.back().ts.counter, 999u);
  sched.run_all();
  ASSERT_EQ(delivered.size(), 10u);
  EXPECT_EQ(delivered.back().ts.counter, 999u);
}

// --- Network -----------------------------------------------------------------

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : net(sched, 3, DelayModel::fixed(5), Rng(11)) {
    for (ProcessId pid = 0; pid < 3; ++pid) {
      net.set_handler(pid, [this, pid](const Message& m) {
        received[pid].push_back(m);
      });
    }
  }
  sim::Scheduler sched;
  Network net;
  std::vector<Message> received[3];
};

TEST_F(NetworkTest, RoutesToRecipient) {
  net.send(0, 2, MsgType::kRequest, clk::Timestamp{1, 0});
  sched.run_all();
  EXPECT_EQ(received[0].size(), 0u);
  EXPECT_EQ(received[1].size(), 0u);
  ASSERT_EQ(received[2].size(), 1u);
  EXPECT_EQ(received[2][0].from, 0u);
}

TEST_F(NetworkTest, AssignsUniqueIncreasingUids) {
  net.send(0, 1, MsgType::kRequest, clk::Timestamp{1, 0});
  net.send(1, 2, MsgType::kReply, clk::Timestamp{2, 1});
  sched.run_all();
  ASSERT_EQ(received[1].size(), 1u);
  ASSERT_EQ(received[2].size(), 1u);
  EXPECT_LT(received[1][0].uid, received[2][0].uid);
  EXPECT_NE(received[1][0].uid, 0u);
}

TEST_F(NetworkTest, ThreadsVectorClocksThroughMessages) {
  net.send(0, 1, MsgType::kRequest, clk::Timestamp{1, 0});
  sched.run_all();
  // After delivery, 1's vclock dominates 0's at-send clock.
  ASSERT_EQ(received[1].size(), 1u);
  EXPECT_EQ(received[1][0].vc.size(), net.size());
  EXPECT_TRUE(received[1][0].vc.happened_before(net.vclock(1)));
}

TEST_F(NetworkTest, LocalEventTicksClock) {
  const auto before = net.vclock(1).component(1);
  net.local_event(1);
  EXPECT_EQ(net.vclock(1).component(1), before + 1);
}

TEST_F(NetworkTest, InFlightCountsAcrossChannels) {
  net.send(0, 1, MsgType::kRequest, clk::Timestamp{1, 0});
  net.send(2, 1, MsgType::kRequest, clk::Timestamp{1, 2});
  EXPECT_EQ(net.in_flight(), 2u);
  sched.run_all();
  EXPECT_EQ(net.in_flight(), 0u);
}

TEST_F(NetworkTest, SendAndDeliveryObserversFire) {
  int sends = 0, deliveries = 0;
  net.add_send_observer([&](const Message&) { ++sends; });
  net.add_delivery_observer([&](const Message&) { ++deliveries; });
  net.send(0, 1, MsgType::kRequest, clk::Timestamp{1, 0});
  EXPECT_EQ(sends, 1);
  EXPECT_EQ(deliveries, 0);
  sched.run_all();
  EXPECT_EQ(deliveries, 1);
}

TEST_F(NetworkTest, TypeAndWrapperAccounting) {
  net.send(0, 1, MsgType::kRequest, clk::Timestamp{1, 0}, true);
  net.send(0, 1, MsgType::kReply, clk::Timestamp{2, 0});
  net.send(0, 1, MsgType::kRelease, clk::Timestamp{3, 0});
  EXPECT_EQ(net.total_sent(), 3u);
  EXPECT_EQ(net.sent_by_wrapper(), 1u);
  EXPECT_EQ(net.sent_of_type(MsgType::kRequest), 1u);
  EXPECT_EQ(net.sent_of_type(MsgType::kReply), 1u);
  EXPECT_EQ(net.sent_of_type(MsgType::kRelease), 1u);
}

TEST_F(NetworkTest, FabricatedMessageWithEmptyVcStillDelivered) {
  Message fake = make_msg(0, 1, 9);
  net.channel(0, 1).fault_inject(fake);
  sched.run_all();
  ASSERT_EQ(received[1].size(), 1u);
}

TEST_F(NetworkTest, SpuriousUidsUniqueAcrossChannels) {
  // The spurious-uid counter is network-wide: injections on different
  // channels must never collide.
  net.channel(0, 1).fault_inject(make_msg(0, 1, 1));
  net.channel(1, 2).fault_inject(make_msg(1, 2, 2));
  sched.run_all();
  ASSERT_EQ(received[1].size(), 1u);
  ASSERT_EQ(received[2].size(), 1u);
  EXPECT_TRUE(is_spurious_uid(received[1][0].uid));
  EXPECT_TRUE(is_spurious_uid(received[2][0].uid));
  EXPECT_NE(received[1][0].uid, received[2][0].uid);
}

TEST_F(NetworkTest, PartitionDropsCrossSideSendsUntilHealed) {
  net.set_partition(0b001);  // {0} vs {1, 2}
  net.send(0, 1, MsgType::kRequest, clk::Timestamp{1, 0});  // cross: lost
  net.send(1, 2, MsgType::kReply, clk::Timestamp{2, 1});    // same side
  sched.run_all();
  EXPECT_EQ(received[1].size(), 0u);
  ASSERT_EQ(received[2].size(), 1u);
  EXPECT_EQ(net.dropped_by_partition(), 1u);
  // The send still happened from the sender's point of view.
  EXPECT_EQ(net.total_sent(), 2u);

  net.set_partition(0);  // heal
  net.send(0, 1, MsgType::kRequest, clk::Timestamp{3, 0});
  sched.run_all();
  ASSERT_EQ(received[1].size(), 1u);
  EXPECT_EQ(net.dropped_by_partition(), 1u);
}

TEST_F(NetworkTest, PartitionLeavesInFlightMessagesAlone) {
  net.send(0, 1, MsgType::kRequest, clk::Timestamp{1, 0});  // on the wire
  net.set_partition(0b001);
  sched.run_all();
  // The cut severs the link, not messages already in transit.
  ASSERT_EQ(received[1].size(), 1u);
  EXPECT_EQ(net.dropped_by_partition(), 0u);
}

TEST(NetworkPartition, ConnectedSendsReachPidsAbove64) {
  // With no partition set, partitioned() must not shift the mask by a pid:
  // at N=128 a shift by 64 or more is undefined behaviour (UBSan aborts).
  sim::Scheduler sched;
  Network net(sched, 128, DelayModel::fixed(1), Rng(5));
  std::vector<ProcessId> from_of(128, 128);
  for (ProcessId pid = 0; pid < 128; ++pid) {
    net.set_handler(pid, [&from_of, pid](const Message& m) {
      from_of[pid] = m.from;
    });
  }
  net.send(100, 3, MsgType::kRequest, clk::Timestamp{1, 100});
  net.send(3, 100, MsgType::kReply, clk::Timestamp{2, 3});
  net.send(127, 64, MsgType::kRelease, clk::Timestamp{3, 127});
  sched.run_all();
  EXPECT_EQ(from_of[3], 100u);
  EXPECT_EQ(from_of[100], 3u);
  EXPECT_EQ(from_of[64], 127u);
  EXPECT_EQ(net.dropped_by_partition(), 0u);
}

TEST_F(NetworkTest, TouchListsEachChangedPidOnceUntilTaken) {
  std::vector<ProcessId> touched;
  net.send(0, 1, MsgType::kRequest, clk::Timestamp{1, 0});  // touches 0
  net.local_event(0);                                       // deduplicated
  net.touch(2);
  net.take_touched(touched);
  EXPECT_EQ(touched, (std::vector<ProcessId>{0, 2}));
  sched.run_all();  // the delivery touches the receiver
  net.take_touched(touched);
  EXPECT_EQ(touched, (std::vector<ProcessId>{1}));
  net.take_touched(touched);
  EXPECT_TRUE(touched.empty());
}

TEST_F(NetworkTest, MessageToString) {
  Message m = make_msg(0, 1, 9);
  m.from_wrapper = true;
  EXPECT_EQ(m.to_string(), "request(9.0) 0->1 [wrapper]");
}

// --- FaultInjector -------------------------------------------------------------

class FaultInjectorTest : public ::testing::Test {
 protected:
  FaultInjectorTest()
      : net(sched, 3, DelayModel::fixed(50), Rng(13)),
        injector(sched, net, Rng(17), [this](ProcessId pid, Rng&) {
          corrupted.push_back(pid);
        }) {
    for (ProcessId pid = 0; pid < 3; ++pid) {
      net.set_handler(pid, [this](const Message& m) {
        delivered.push_back(m);
      });
    }
  }
  sim::Scheduler sched;
  Network net;
  std::vector<Message> delivered;
  std::vector<ProcessId> corrupted;
  FaultInjector injector;
};

TEST_F(FaultInjectorTest, MessageFaultsNeedTargets) {
  EXPECT_FALSE(injector.inject(FaultKind::kMessageDrop));
  EXPECT_FALSE(injector.inject(FaultKind::kMessageDuplicate));
  EXPECT_FALSE(injector.inject(FaultKind::kMessageCorrupt));
  EXPECT_FALSE(injector.inject(FaultKind::kMessageReorder));
  EXPECT_EQ(injector.total_injected(), 0u);
  EXPECT_EQ(injector.last_fault_time(), kNever);
}

TEST_F(FaultInjectorTest, DropReducesInFlight) {
  net.send(0, 1, MsgType::kRequest, clk::Timestamp{1, 0});
  EXPECT_TRUE(injector.inject(FaultKind::kMessageDrop));
  EXPECT_EQ(net.in_flight(), 0u);
  EXPECT_EQ(injector.count(FaultKind::kMessageDrop), 1u);
}

TEST_F(FaultInjectorTest, DuplicateIncreasesInFlight) {
  net.send(0, 1, MsgType::kRequest, clk::Timestamp{1, 0});
  EXPECT_TRUE(injector.inject(FaultKind::kMessageDuplicate));
  EXPECT_EQ(net.in_flight(), 2u);
}

TEST_F(FaultInjectorTest, ReorderNeedsTwoMessagesInOneChannel) {
  net.send(0, 1, MsgType::kRequest, clk::Timestamp{1, 0});
  net.send(2, 1, MsgType::kRequest, clk::Timestamp{1, 2});
  // Two messages in flight but in *different* channels: reorder unavailable.
  EXPECT_FALSE(injector.inject(FaultKind::kMessageReorder));
  net.send(0, 1, MsgType::kReply, clk::Timestamp{2, 0});
  EXPECT_TRUE(injector.inject(FaultKind::kMessageReorder));
}

TEST_F(FaultInjectorTest, SpuriousMessageArrives) {
  EXPECT_TRUE(injector.inject(FaultKind::kSpuriousMessage));
  sched.run_all();
  EXPECT_EQ(delivered.size(), 1u);
}

TEST_F(FaultInjectorTest, ProcessCorruptRoutesToCallback) {
  EXPECT_TRUE(injector.inject(FaultKind::kProcessCorrupt));
  EXPECT_EQ(corrupted.size(), 1u);
  EXPECT_LT(corrupted[0], 3u);
}

TEST_F(FaultInjectorTest, ChannelClearEmptiesOnePair) {
  for (int i = 0; i < 3; ++i)
    net.send(0, 1, MsgType::kRequest, clk::Timestamp{1, 0});
  // Repeat until the random pair selection hits channel 0->1.
  while (net.in_flight() == 3) injector.inject(FaultKind::kChannelClear);
  EXPECT_EQ(net.in_flight(), 0u);
}

TEST_F(FaultInjectorTest, BurstInjectsRequestedCount) {
  for (int i = 0; i < 10; ++i)
    net.send(0, 1, MsgType::kRequest, clk::Timestamp{1, 0});
  injector.burst(5, FaultMix::all());
  EXPECT_EQ(injector.total_injected(), 5u);
}

TEST_F(FaultInjectorTest, ScheduledBurstFiresAtTime) {
  net.send(0, 1, MsgType::kRequest, clk::Timestamp{1, 0});
  injector.schedule_burst(20, 1, FaultMix::process_only());
  sched.run_until(19);
  EXPECT_EQ(injector.total_injected(), 0u);
  sched.run_until(20);
  EXPECT_EQ(injector.total_injected(), 1u);
  EXPECT_EQ(injector.last_fault_time(), 20u);
}

TEST_F(FaultInjectorTest, ContinuousInjectsAtInterval) {
  injector.schedule_continuous(10, 50, 10, FaultMix::process_only());
  sched.run_until(100);
  EXPECT_EQ(injector.count(FaultKind::kProcessCorrupt), 4u);  // 10,20,30,40
}

TEST_F(FaultInjectorTest, InjectRandomSkipsInapplicableKinds) {
  // Empty network traffic: among {drop, corrupt-process}, only process
  // corruption has a target, so the random pick must fall through to it.
  FaultMix mix = FaultMix::only(FaultKind::kMessageDrop);
  mix.process_corrupt = true;
  EXPECT_TRUE(injector.inject_random(mix));
  EXPECT_EQ(injector.count(FaultKind::kProcessCorrupt), 1u);
  EXPECT_EQ(injector.count(FaultKind::kMessageDrop), 0u);
}

TEST_F(FaultInjectorTest, MixOnlyRestrictsKinds) {
  const FaultMix mix = FaultMix::only(FaultKind::kMessageDrop);
  EXPECT_FALSE(injector.inject_random(mix));  // nothing in flight
  net.send(0, 1, MsgType::kRequest, clk::Timestamp{1, 0});
  EXPECT_TRUE(injector.inject_random(mix));
  EXPECT_EQ(injector.count(FaultKind::kMessageDrop), 1u);
  EXPECT_EQ(injector.total_injected(), 1u);
}

TEST_F(FaultInjectorTest, FaultMixEnabledKinds) {
  EXPECT_EQ(FaultMix::all().enabled_kinds().size(), kFaultKindCount);
  EXPECT_EQ(FaultMix::only(FaultKind::kProcessCorrupt).enabled_kinds().size(),
            1u);
  EXPECT_FALSE(FaultMix::channel_only().enabled(FaultKind::kProcessCorrupt));
  EXPECT_TRUE(FaultMix::process_only().enabled(FaultKind::kProcessCorrupt));
}

TEST_F(FaultInjectorTest, FaultKindNames) {
  EXPECT_STREQ(to_string(FaultKind::kMessageDrop), "message-drop");
  EXPECT_STREQ(to_string(FaultKind::kProcessCorrupt), "process-corrupt");
}

}  // namespace
}  // namespace graybox::net
