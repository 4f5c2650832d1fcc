// Unit tests of the benchmark's own arithmetic: span self time and
// coverage, open-loop timing from due time, and golden-file checking.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common.hpp"
#include "openloop.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

TEST(SpanSelfTime, SubtractsChildrenOnce) {
  // root [0, 10] with children [1, 4] and [3, 6] (overlap counted once)
  // and a grandchild [2, 3] under the first child.
  std::vector<Span> spans = {
      {"root", 0.0, 10.0, -1, 1},
      {"a", 1.0, 4.0, 0, 1},
      {"b", 3.0, 6.0, 0, 1},
      {"a.1", 2.0, 3.0, 1, 1},
  };
  const std::vector<double> self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 5.0);  // [1, 6] covered
  EXPECT_DOUBLE_EQ(self[1], 3.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[2], 3.0);
  EXPECT_DOUBLE_EQ(self[3], 1.0);
  EXPECT_DOUBLE_EQ(root_coverage(spans), 0.5);
}

TEST(SpanSelfTime, ClipsChildrenToParent) {
  std::vector<Span> spans = {
      {"root", 0.0, 4.0, -1, 7},
      {"late", 3.0, 9.0, 0, 7},  // only [3, 4] lies inside the root
  };
  const std::vector<double> self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 3.0);
  EXPECT_DOUBLE_EQ(self[1], 6.0);
}

TEST(SpanSelfTime, TracerTotalsSumSelfTimePerName) {
  Tracer t;
  const auto root = t.record("item", -1, 1, 0.0, 10.0);
  t.record("stage", root, 1, 0.0, 2.0);
  t.record("stage", root, 1, 2.0, 5.0);
  const auto totals = t.totals();
  EXPECT_DOUBLE_EQ(totals.at("stage").self_ms, 5.0);
  EXPECT_EQ(totals.at("stage").count, 2u);
  EXPECT_DOUBLE_EQ(totals.at("item").self_ms, 5.0);
}

TEST(OpenLoop, DueTimesIgnoreWhenRequestsWereSent) {
  const OpenLoopClock clock(100.0, 200.0);  // one request per 5 ms
  EXPECT_DOUBLE_EQ(clock.due_ms(0), 100.0);
  EXPECT_DOUBLE_EQ(clock.due_ms(3), 115.0);
}

TEST(OpenLoop, LatencyRunsFromDueTimeNotSendTime) {
  // The generator stalled: due at 10 ms, sent at 60 ms, answered 5 ms
  // after sending. A client of an open system waited 55 ms, not 5 ms.
  RequestTimes t;
  t.due_ms = 10.0;
  t.sent_ms = 60.0;
  t.recv_ms = 65.0;
  EXPECT_DOUBLE_EQ(open_loop_latency_ms(t), 55.0);
  EXPECT_DOUBLE_EQ(lateness_ms(t), 50.0);
}

TEST(Golden, CorruptedDigestIsCaught) {
  const std::string path = ::testing::TempDir() + "perfbench_golden_test";
  Golden g;
  g[0] = Expected{true, 0x1111, 0x2222, ""};
  g[1] = Expected{false, 0, 0, "validation_failed"};
  ASSERT_TRUE(write_golden(path, g, "# test\n"));
  auto read = read_golden(path);
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(judge(read->at(0), true, "ok", 0x1111, 0x2222), Verdict::kOk);
  EXPECT_EQ(judge(read->at(1), false, "validation_failed", 0, 0),
            Verdict::kExpectedFailure);

  // Flip one digit of item 0's CSV digest on disk: the same output is
  // now a mismatch.
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const auto at = text.find("0000000000002222");
  ASSERT_NE(at, std::string::npos);
  text[at + 15] = '3';
  std::ofstream(path) << text;
  read = read_golden(path);
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(judge(read->at(0), true, "ok", 0x1111, 0x2222),
            Verdict::kMismatch);
  std::remove(path.c_str());
}

TEST(Golden, KnownDefectOnlyExcusesItsOwnCode) {
  const Expected defect{false, 0, 0, "validation_failed"};
  EXPECT_EQ(judge(defect, false, "internal", 0, 0), Verdict::kMismatch);
  // A fixed defect is not excused by the golden file: the caller must
  // validate the new table before counting it ok.
  EXPECT_EQ(judge(defect, true, "ok", 1, 2), Verdict::kMismatch);
}

}  // namespace
}  // namespace perfbench
