#include "otw/tw/queues.hpp"

#include <gtest/gtest.h>

#include "otw/tw/pending_set.hpp"

namespace otw::tw {
namespace {

Event ev(std::uint64_t recv, ObjectId sender, std::uint64_t seq,
         std::uint64_t instance) {
  Event e;
  e.recv_time = VirtualTime{recv};
  e.sender = sender;
  e.receiver = 0;
  e.seq = seq;
  e.instance = instance;
  return e;
}

Position pos(std::uint64_t recv, ObjectId sender, std::uint64_t seq,
             std::uint64_t instance = 0) {
  return Position{EventKey{VirtualTime{recv}, sender, seq}, instance};
}

// ------------------------------------------------------------ input queue --
//
// Every behavioural test runs against all three PendingEventSet
// implementations: the input-queue contract is implementation-independent.

class InputQueueAllKinds : public ::testing::TestWithParam<QueueKind> {
 protected:
  std::unique_ptr<PendingEventSet> set_ = make_pending_set(GetParam());
  PendingEventSet& q = *set_;
};

INSTANTIATE_TEST_SUITE_P(
    Kinds, InputQueueAllKinds, ::testing::ValuesIn(kAllQueueKinds),
    [](const ::testing::TestParamInfo<QueueKind>& info) {
      return to_string(info.param);
    });

TEST_P(InputQueueAllKinds, ReportsItsKind) {
  EXPECT_EQ(q.kind(), GetParam());
}

TEST_P(InputQueueAllKinds, ProcessesInKeyOrder) {
  EXPECT_FALSE(q.insert(ev(30, 1, 0, 0)));
  EXPECT_FALSE(q.insert(ev(10, 1, 1, 1)));
  EXPECT_FALSE(q.insert(ev(20, 2, 0, 2)));
  EXPECT_EQ(q.advance().recv_time, VirtualTime{10});
  EXPECT_EQ(q.advance().recv_time, VirtualTime{20});
  EXPECT_EQ(q.advance().recv_time, VirtualTime{30});
  EXPECT_EQ(q.peek_next(), nullptr);
}

TEST_P(InputQueueAllKinds, StragglerDetection) {
  q.insert(ev(10, 1, 0, 0));
  q.insert(ev(30, 1, 1, 1));
  q.advance();
  q.advance();  // both processed
  // An event before the processed tail is a straggler.
  EXPECT_TRUE(q.insert(ev(20, 2, 0, 2)));
  // An event after the tail is not.
  EXPECT_FALSE(q.insert(ev(40, 2, 1, 3)));
}

TEST_P(InputQueueAllKinds, UnprocessedInsertIsNeverStraggler) {
  q.insert(ev(30, 1, 0, 0));
  EXPECT_FALSE(q.insert(ev(10, 1, 1, 1)));  // nothing processed yet
  EXPECT_EQ(q.peek_next()->recv_time, VirtualTime{10});
}

TEST_P(InputQueueAllKinds, EqualTimeTieBreakBySenderSeq) {
  q.insert(ev(10, 2, 0, 0));
  q.insert(ev(10, 1, 1, 1));
  q.insert(ev(10, 1, 0, 2));
  EXPECT_EQ(q.advance().sender, 1u);  // (10,1,0)
  EXPECT_EQ(q.advance().seq, 1u);     // (10,1,1)
  EXPECT_EQ(q.advance().sender, 2u);  // (10,2,0)
}

TEST_P(InputQueueAllKinds, RewindReexposesProcessedEvents) {
  q.insert(ev(10, 1, 0, 0));
  q.insert(ev(20, 1, 1, 1));
  q.insert(ev(30, 1, 2, 2));
  q.advance();
  q.advance();
  q.advance();
  q.rewind_to_after(pos(10, 1, 0));
  ASSERT_NE(q.peek_next(), nullptr);
  EXPECT_EQ(q.peek_next()->recv_time, VirtualTime{20});
  EXPECT_EQ(q.processed_count(), 1u);
}

TEST_P(InputQueueAllKinds, ProcessedAfterCountsRollbackLength) {
  for (std::uint64_t i = 0; i < 5; ++i) {
    q.insert(ev(10 * (i + 1), 1, i, i));
  }
  for (int i = 0; i < 5; ++i) q.advance();
  EXPECT_EQ(q.processed_after(pos(20, 1, 1, 1)), 3u);  // 30, 40, 50
  EXPECT_EQ(q.processed_after(pos(50, 1, 4, 4)), 0u);
  EXPECT_EQ(q.processed_after(Position::before_all()), 5u);
}

// A migration or snapshot cut can fall after the first unprocessed event:
// nothing processed lies after it (the multiset used to walk past the end).
TEST_P(InputQueueAllKinds, ProcessedAfterAPositionPastTheBoundaryIsZero) {
  for (std::uint64_t i = 0; i < 3; ++i) {
    q.insert(ev(10 * (i + 1), 1, i, i));
  }
  q.advance();  // 10 processed; 20 and 30 unprocessed
  EXPECT_EQ(q.processed_after(pos(25, 0, 0)), 0u);
  EXPECT_EQ(q.processed_after(pos(20, 1, 1, 1)), 0u);
  EXPECT_EQ(q.processed_after(pos(5, 0, 0)), 1u);
}

TEST_P(InputQueueAllKinds, StragglerNotCountedInProcessedAfter) {
  q.insert(ev(10, 1, 0, 0));
  q.insert(ev(30, 1, 1, 1));
  q.advance();
  q.advance();
  const Event straggler = ev(20, 2, 0, 2);
  EXPECT_TRUE(q.insert(straggler));
  // Only the 30 was processed after the straggler's key.
  EXPECT_EQ(q.processed_after(straggler.position()), 1u);
}

TEST_P(InputQueueAllKinds, AnnihilationOfUnprocessed) {
  const Event pos = ev(10, 1, 0, 7);
  q.insert(pos);
  const Event anti = pos.make_anti();
  EXPECT_EQ(q.find_match(anti), MatchStatus::Unprocessed);
  q.erase_match(anti);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.find_match(anti), MatchStatus::NotFound);
}

TEST_P(InputQueueAllKinds, AnnihilationDetectsProcessed) {
  const Event pos = ev(10, 1, 0, 7);
  q.insert(pos);
  q.advance();
  EXPECT_EQ(q.find_match(pos.make_anti()), MatchStatus::Processed);
}

TEST_P(InputQueueAllKinds, EraseMatchOfProcessedThrowsWithoutRewind) {
  const Event pos = ev(10, 1, 0, 7);
  q.insert(pos);
  q.advance();
  EXPECT_THROW(q.erase_match(pos.make_anti()), ContractViolation);
  // After a rewind (rollback) the erase is legal.
  q.rewind_to_after(Position::before_all());
  q.erase_match(pos.make_anti());
  EXPECT_TRUE(q.empty());
}

TEST_P(InputQueueAllKinds, MatchDistinguishesInstances) {
  q.insert(ev(10, 1, 0, 7));
  Event other = ev(10, 1, 0, 8);  // same key, different instance
  EXPECT_EQ(q.find_match(other.make_anti()), MatchStatus::NotFound);
}

TEST_P(InputQueueAllKinds, EraseMatchAdvancesBoundaryWhenNeeded) {
  const Event a = ev(10, 1, 0, 0);
  const Event b = ev(20, 1, 1, 1);
  q.insert(a);
  q.insert(b);
  // Boundary points at `a`; erasing it must move the boundary to `b`.
  q.erase_match(a.make_anti());
  ASSERT_NE(q.peek_next(), nullptr);
  EXPECT_EQ(q.peek_next()->recv_time, VirtualTime{20});
}

TEST_P(InputQueueAllKinds, FossilCollectDropsOnlyProcessedPrefix) {
  for (std::uint64_t i = 0; i < 4; ++i) {
    q.insert(ev(10 * (i + 1), 1, i, i));
  }
  q.advance();
  q.advance();  // 10, 20 processed
  EXPECT_EQ(q.fossil_collect_before(pos(20, 1, 1, 1)), 1u);  // drops 10 only
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.fossil_collect_before(pos(100, 9, 9)), 1u);  // drops 20 (processed)
  EXPECT_EQ(q.size(), 2u);  // unprocessed 30, 40 survive
}

TEST_P(InputQueueAllKinds, NextUnprocessedTime) {
  EXPECT_TRUE(q.next_unprocessed_time().is_infinity());
  q.insert(ev(42, 1, 0, 0));
  EXPECT_EQ(q.next_unprocessed_time(), VirtualTime{42});
  q.advance();
  EXPECT_TRUE(q.next_unprocessed_time().is_infinity());
}

TEST_P(InputQueueAllKinds, RejectsAntiMessages) {
  EXPECT_THROW(q.insert(ev(1, 0, 0, 0).make_anti()), ContractViolation);
}

// ----------------------------------------------------------- OutputQueue --

TEST(OutputQueue, ExtractAfterSplitsBycause) {
  OutputQueue q;
  q.record(pos(10, 0, 0), ev(15, 0, 0, 0));
  q.record(pos(20, 0, 1), ev(25, 0, 1, 1));
  q.record(pos(30, 0, 2), ev(35, 0, 2, 2));
  auto invalid = q.extract_after(pos(15, 0, 0));
  ASSERT_EQ(invalid.size(), 2u);
  EXPECT_EQ(invalid[0].cause, pos(20, 0, 1));
  EXPECT_EQ(invalid[1].cause, pos(30, 0, 2));
  EXPECT_EQ(q.size(), 1u);
}

TEST(OutputQueue, ExtractAtExactKeyKeepsIt) {
  OutputQueue q;
  q.record(pos(10, 0, 0), ev(15, 0, 0, 0));
  auto invalid = q.extract_after(pos(10, 0, 0));
  EXPECT_TRUE(invalid.empty());
  EXPECT_EQ(q.size(), 1u);
}

TEST(OutputQueue, MultipleSendsFromOneEventShareCause) {
  OutputQueue q;
  q.record(pos(10, 0, 0), ev(15, 0, 0, 0));
  q.record(pos(10, 0, 0), ev(16, 0, 1, 1));
  auto invalid = q.extract_after(pos(5, 0, 0));
  EXPECT_EQ(invalid.size(), 2u);
}

TEST(OutputQueue, FossilCollectBySendTime) {
  OutputQueue q;
  q.record(pos(10, 0, 0), ev(15, 0, 0, 0));
  q.record(pos(20, 0, 1), ev(25, 0, 1, 1));
  q.fossil_collect_before(VirtualTime{20});
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.entries().front().cause, pos(20, 0, 1));
}

// ------------------------------------------------------------ StateQueue --

std::unique_ptr<ObjectState> state_of(std::uint64_t v) {
  return std::make_unique<PodState<std::uint64_t>>(v);
}

std::uint64_t value_of(const ObjectState& s) {
  return static_cast<const PodState<std::uint64_t>&>(s).value();
}

TEST(StateQueue, LatestBeforeFindsRestorePoint) {
  StateQueue q;
  q.save(Position::before_all(), state_of(0));
  q.save(pos(10, 1, 0), state_of(1));
  q.save(pos(20, 1, 1), state_of(2));
  const auto* entry = q.latest_before(pos(15, 9, 9));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(value_of(*entry->state), 1u);
}

TEST(StateQueue, LatestBeforeExactKeyGoesEarlier) {
  StateQueue q;
  q.save(Position::before_all(), state_of(0));
  q.save(pos(10, 1, 0), state_of(1));
  const auto* entry = q.latest_before(pos(10, 1, 0));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(value_of(*entry->state), 0u);
}

TEST(StateQueue, DropFromRemovesInvalidCheckpoints) {
  StateQueue q;
  q.save(Position::before_all(), state_of(0));
  q.save(pos(10, 1, 0), state_of(1));
  q.save(pos(20, 1, 1), state_of(2));
  q.drop_from(pos(10, 1, 0));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.latest_before(pos(99, 9, 9))->pos, Position::before_all());
}

TEST(StateQueue, SaveRequiresIncreasingKeys) {
  StateQueue q;
  q.save(pos(10, 1, 0), state_of(1));
  EXPECT_THROW(q.save(pos(10, 1, 0), state_of(2)), ContractViolation);
  EXPECT_THROW(q.save(pos(5, 1, 0), state_of(2)), ContractViolation);
}

TEST(StateQueue, FossilKeepsLatestBeforeGvt) {
  StateQueue q;
  q.save(Position::before_all(), state_of(0));
  q.save(pos(10, 1, 0), state_of(1));
  q.save(pos(20, 1, 1), state_of(2));
  q.save(pos(30, 1, 2), state_of(3));
  const Position keeper = q.fossil_collect(VirtualTime{25});
  EXPECT_EQ(keeper, pos(20, 1, 1));
  EXPECT_EQ(q.size(), 2u);  // 20 and 30 survive
}

TEST(StateQueue, FossilWithNothingCollectable) {
  StateQueue q;
  q.save(pos(10, 1, 0), state_of(1));
  const Position keeper = q.fossil_collect(VirtualTime{5});
  EXPECT_EQ(keeper, pos(10, 1, 0));
  EXPECT_EQ(q.size(), 1u);
}

TEST(StateQueue, FossilAtInfinityKeepsOnlyLatest) {
  StateQueue q;
  q.save(Position::before_all(), state_of(0));
  q.save(pos(10, 1, 0), state_of(1));
  q.save(pos(20, 1, 1), state_of(2));
  q.fossil_collect(VirtualTime::infinity());
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(value_of(*q.back().state), 2u);
}

}  // namespace
}  // namespace otw::tw
