// Unit tests for the modified Lamport program: queue discipline, grants,
// release handling, the paper's two modifications, and stale-entry
// retirement from corrupted states.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "me/lamport.hpp"
#include "net/network.hpp"
#include "sim/scheduler.hpp"

namespace graybox::me {
namespace {

class LamportTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kN = 3;

  explicit LamportTest(LamportOptions options = {})
      : net(sched, kN, net::DelayModel::fixed(1), Rng(5)) {
    for (ProcessId pid = 0; pid < kN; ++pid) {
      procs.push_back(std::make_unique<LamportMe>(pid, net, options));
      auto* p = procs.back().get();
      net.set_handler(pid,
                      [p](const net::Message& m) { p->on_message(m); });
    }
  }

  LamportMe& p(ProcessId pid) { return *procs[pid]; }
  void settle() { sched.run_all(); }

  bool queue_has(ProcessId at, ProcessId entry_pid) {
    for (const auto& e : p(at).queue())
      if (e.pid == entry_pid) return true;
    return false;
  }

  sim::Scheduler sched;
  net::Network net;
  std::vector<std::unique_ptr<LamportMe>> procs;
};

TEST_F(LamportTest, InitialStateEmptyQueue) {
  for (ProcessId pid = 0; pid < kN; ++pid) {
    EXPECT_TRUE(p(pid).thinking());
    EXPECT_TRUE(p(pid).queue().empty());
  }
}

TEST_F(LamportTest, RequestInsertsOwnEntryAndBroadcasts) {
  p(0).request_cs();
  EXPECT_TRUE(queue_has(0, 0));
  EXPECT_EQ(net.sent_of_type(net::MsgType::kRequest), kN - 1);
}

TEST_F(LamportTest, SoloRequestEntersAfterAcks) {
  p(0).request_cs();
  settle();
  EXPECT_TRUE(p(0).eating());
  // Everyone replied; grants recorded.
  EXPECT_TRUE(p(0).granted(1));
  EXPECT_TRUE(p(0).granted(2));
}

TEST_F(LamportTest, PeersLearnRequestsViaQueue) {
  p(0).request_cs();
  settle();
  EXPECT_TRUE(queue_has(1, 0));
  EXPECT_TRUE(queue_has(2, 0));
}

TEST_F(LamportTest, ReleaseBroadcastsAndRetiresEntries) {
  p(0).request_cs();
  settle();
  p(0).release_cs();
  EXPECT_FALSE(queue_has(0, 0));
  settle();
  EXPECT_EQ(net.sent_of_type(net::MsgType::kRelease), kN - 1);
  EXPECT_FALSE(queue_has(1, 0));
  EXPECT_FALSE(queue_has(2, 0));
}

TEST_F(LamportTest, MutualExclusionUnderContention) {
  p(0).request_cs();
  p(1).request_cs();
  p(2).request_cs();
  std::size_t max_eating = 0;
  std::uint64_t entries = 0;
  for (int round = 0; round < 400; ++round) {
    if (!sched.step()) break;
    std::size_t eating = 0;
    for (ProcessId pid = 0; pid < kN; ++pid)
      if (p(pid).eating()) ++eating;
    max_eating = std::max(max_eating, eating);
    for (ProcessId pid = 0; pid < kN; ++pid) {
      if (p(pid).eating()) {
        p(pid).release_cs();
        ++entries;
      }
    }
  }
  EXPECT_LE(max_eating, 1u);
  EXPECT_EQ(entries, 3u);
}

TEST_F(LamportTest, FcfsByTimestampOrder) {
  p(0).request_cs();
  p(1).request_cs();  // same tick: {1,0} lt {1,1}
  settle();
  EXPECT_TRUE(p(0).eating());
  EXPECT_TRUE(p(1).hungry());
  p(0).release_cs();
  settle();
  EXPECT_TRUE(p(1).eating());
}

TEST_F(LamportTest, QueueKeepsOneEntryPerProcess) {
  // Modification 1: a replayed/duplicated old request must not create a
  // second entry; the newest replaces.
  p(0).request_cs();
  settle();
  net::Message dup;
  dup.type = net::MsgType::kRequest;
  dup.from = 0;
  dup.to = 1;
  dup.ts = clk::Timestamp{777, 0};
  p(1).on_message(dup);
  std::size_t count = 0;
  for (const auto& e : p(1).queue())
    if (e.pid == 0) ++count;
  EXPECT_EQ(count, 1u);
  EXPECT_EQ(p(1).view_of(0).counter, 777u);
}

TEST_F(LamportTest, QueueSortedByTimestamp) {
  p(2).request_cs();
  settle();
  p(2).release_cs();
  settle();
  p(0).request_cs();
  p(1).request_cs();
  settle();
  // Both entries present at process 2, earliest first.
  const auto& q = p(2).queue();
  ASSERT_GE(q.size(), 2u);
  for (std::size_t i = 1; i < q.size(); ++i)
    EXPECT_TRUE(!clk::lt(q[i].ts, q[i - 1].ts));
}

TEST_F(LamportTest, ReplyCarriesCurrentReqAndGrants) {
  p(0).request_cs();
  settle();
  // Grants derive from last_heard: everyone's reply exceeded REQ0.
  EXPECT_TRUE(clk::lt(p(0).req(), p(0).last_heard(1)));
  EXPECT_TRUE(clk::lt(p(0).req(), p(0).last_heard(2)));
}

TEST_F(LamportTest, StaleEntryRetiredByReply) {
  // A corrupted (fabricated) old entry for a peer is retired by the next
  // reply from that peer, because the reply proves the peer's REQ moved on.
  p(1).fault_insert_queue_entry(0, clk::Timestamp{1, 0});
  p(1).request_cs();
  settle();
  EXPECT_FALSE(queue_has(1, 0));
  EXPECT_TRUE(p(1).eating());
}

TEST_F(LamportTest, StaleEntryRetiredByRelease) {
  p(0).request_cs();
  settle();
  // Corrupt 1's entry for 0 to something older than 0's actual request.
  p(1).fault_clear_queue();
  p(1).fault_insert_queue_entry(0, clk::Timestamp{0, 0});
  p(0).release_cs();
  settle();
  EXPECT_FALSE(queue_has(1, 0));
}

TEST_F(LamportTest, GenuineEarlierEntryNotRetiredByReply) {
  // 0 requests first; 1 requests later. 0's reply to 1 carries REQ0 (its
  // outstanding request), which must NOT retire 0's genuine entry at 1.
  p(0).request_cs();
  settle();  // everyone knows 0's request
  p(1).request_cs();
  settle();
  EXPECT_TRUE(queue_has(1, 0));
  EXPECT_TRUE(p(1).hungry());  // correctly blocked behind 0
}

TEST_F(LamportTest, CorruptedHighLastHeardHealsOnNextMessage) {
  p(0).fault_set_last_heard(1, clk::Timestamp{1'000'000, 1});
  p(1).request_cs();
  const auto req1 = p(1).req();
  settle();
  EXPECT_EQ(p(0).last_heard(1), req1);
}

TEST_F(LamportTest, MissingOwnEntryDoesNotWedgeEntry) {
  // Modification 2: entry depends on *other* processes' entries only, so a
  // corrupted-away own entry cannot block the CS forever.
  p(0).request_cs();
  p(0).fault_clear_queue();
  settle();
  EXPECT_TRUE(p(0).eating());
}

TEST_F(LamportTest, TotalHandlerToleratesCorruptMessages) {
  net::Message junk;
  junk.type = net::MsgType::kRelease;
  junk.from = 77;  // out of range
  junk.to = 0;
  junk.ts = clk::Timestamp{5, 1};
  p(0).on_message(junk);
  junk.from = 0;  // self
  p(0).on_message(junk);
  EXPECT_TRUE(p(0).thinking());
  EXPECT_TRUE(p(0).queue().empty());
}

TEST_F(LamportTest, CorruptedStateRemainsOperable) {
  Rng rng(31);
  for (int i = 0; i < 50; ++i) {
    p(0).corrupt_state(rng);
    for (ProcessId k = 1; k < kN; ++k) {
      (void)p(0).knows_earlier(k);
      (void)p(0).view_of(k);
      (void)p(0).granted(k);
    }
    (void)p(0).queue();
  }
  SUCCEED();
}

TEST_F(LamportTest, ViewOfPrefersQueueEntry) {
  p(0).fault_insert_queue_entry(1, clk::Timestamp{5, 1});
  p(0).fault_set_last_heard(1, clk::Timestamp{9, 1});
  EXPECT_EQ(p(0).view_of(1), (clk::Timestamp{5, 1}));
  p(0).fault_clear_queue();
  EXPECT_EQ(p(0).view_of(1), (clk::Timestamp{9, 1}));
}

// --- head_only_release ablation -------------------------------------------

class LamportHeadOnlyTest : public LamportTest {
 protected:
  LamportHeadOnlyTest()
      : LamportTest(LamportOptions{.head_only_release = true}) {}
};

TEST_F(LamportHeadOnlyTest, FaultFreeBehaviourUnchanged) {
  p(0).request_cs();
  p(1).request_cs();
  settle();
  EXPECT_TRUE(p(0).eating());
  p(0).release_cs();
  settle();
  EXPECT_TRUE(p(1).eating());
  p(1).release_cs();
  settle();
  EXPECT_TRUE(p(0).thinking());
  EXPECT_TRUE(p(1).thinking());
}

TEST_F(LamportHeadOnlyTest, CorruptedEntryWedgesForever) {
  // The A2 ablation: a fabricated earliest entry for a silent process is
  // never retired, so the requester waits forever.
  p(1).fault_insert_queue_entry(0, clk::Timestamp{1, 0});
  p(1).request_cs();
  settle();
  EXPECT_TRUE(p(1).hungry());           // wedged
  EXPECT_TRUE(queue_has(1, 0));         // stale entry still there
}

TEST(LamportSingleProcess, EntersImmediatelyWithNoPeers) {
  sim::Scheduler sched;
  net::Network net(sched, 1, net::DelayModel::fixed(1), Rng(7));
  LamportMe solo(0, net);
  net.set_handler(0, [&](const net::Message& m) { solo.on_message(m); });
  solo.request_cs();
  EXPECT_TRUE(solo.eating());
  solo.release_cs();
  EXPECT_TRUE(solo.thinking());
  EXPECT_TRUE(solo.queue().empty());
}

}  // namespace
}  // namespace graybox::me
