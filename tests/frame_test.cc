#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/serde.h"
#include "dataflow/frame.h"
#include "dataflow/operator.h"

namespace pregelix {
namespace {

TEST(FrameTest, AppendAndReadBack) {
  FrameTupleAppender appender(1024, 2);
  const Slice t1[2] = {Slice("key1"), Slice("payload-one")};
  const Slice t2[2] = {Slice("k2"), Slice("")};
  const Slice t3[2] = {Slice(""), Slice("only-payload")};
  ASSERT_TRUE(appender.Append(t1));
  ASSERT_TRUE(appender.Append(t2));
  ASSERT_TRUE(appender.Append(t3));
  EXPECT_EQ(appender.tuple_count(), 3);

  const std::string frame = appender.Take();
  EXPECT_EQ(frame.size(), 1024u);
  FrameTupleAccessor acc(2);
  acc.Reset(Slice(frame));
  ASSERT_EQ(acc.tuple_count(), 3);
  EXPECT_EQ(acc.field(0, 0).ToString(), "key1");
  EXPECT_EQ(acc.field(0, 1).ToString(), "payload-one");
  EXPECT_EQ(acc.field(1, 0).ToString(), "k2");
  EXPECT_EQ(acc.field(1, 1).ToString(), "");
  EXPECT_EQ(acc.field(2, 0).ToString(), "");
  EXPECT_EQ(acc.field(2, 1).ToString(), "only-payload");
}

TEST(FrameTest, AppenderResetsAfterTake) {
  FrameTupleAppender appender(256, 1);
  const Slice t[1] = {Slice("x")};
  ASSERT_TRUE(appender.Append(t));
  appender.Take();
  EXPECT_TRUE(appender.empty());
  ASSERT_TRUE(appender.Append(t));
  EXPECT_EQ(appender.tuple_count(), 1);
}

TEST(FrameTest, FullFrameRejectsThenFitsAfterFlush) {
  FrameTupleAppender appender(128, 1);
  // Tuple = 4 (offset) + 70 (data); two of them plus slots exceed 128.
  const std::string big(70, 'a');
  const Slice t[1] = {Slice(big)};
  ASSERT_TRUE(appender.Append(t));
  ASSERT_FALSE(appender.Append(t));
  appender.Take();
  ASSERT_TRUE(appender.Append(t));
}

TEST(FrameTest, OversizedTupleGrowsEmptyFrame) {
  FrameTupleAppender appender(64, 2);
  const std::string huge(1000, 'z');
  const Slice t[2] = {Slice("k"), Slice(huge)};
  ASSERT_TRUE(appender.Append(t));
  const std::string frame = appender.Take();
  EXPECT_GT(frame.size(), 1000u);
  FrameTupleAccessor acc(2);
  acc.Reset(Slice(frame));
  ASSERT_EQ(acc.tuple_count(), 1);
  EXPECT_EQ(acc.field(0, 1).size(), 1000u);
}

TEST(FrameTest, AppendRawPreservesTuple) {
  FrameTupleAppender a(512, 3);
  const Slice t[3] = {Slice("f0"), Slice("f11"), Slice("f222")};
  ASSERT_TRUE(a.Append(t));
  const std::string frame = a.Take();
  FrameTupleAccessor acc(3);
  acc.Reset(Slice(frame));

  FrameTupleAppender b(512, 3);
  ASSERT_TRUE(b.AppendRaw(acc.tuple_bytes(0)));
  const std::string frame2 = b.Take();
  FrameTupleAccessor acc2(3);
  acc2.Reset(Slice(frame2));
  EXPECT_EQ(acc2.field(0, 0).ToString(), "f0");
  EXPECT_EQ(acc2.field(0, 1).ToString(), "f11");
  EXPECT_EQ(acc2.field(0, 2).ToString(), "f222");
}

TEST(FrameTest, TupleFieldFromRawMatchesAccessor) {
  FrameTupleAppender a(512, 3);
  const Slice t[3] = {Slice("alpha"), Slice(""), Slice("gamma")};
  ASSERT_TRUE(a.Append(t));
  const std::string frame = a.Take();
  FrameTupleAccessor acc(3);
  acc.Reset(Slice(frame));
  const Slice raw = acc.tuple_bytes(0);
  EXPECT_EQ(TupleFieldFromRaw(raw, 3, 0).ToString(), "alpha");
  EXPECT_EQ(TupleFieldFromRaw(raw, 3, 1).ToString(), "");
  EXPECT_EQ(TupleFieldFromRaw(raw, 3, 2).ToString(), "gamma");
}

TEST(FrameTest, ManyTuplesRoundTrip) {
  FrameTupleAppender appender(32 * 1024, 2);
  std::vector<std::string> keys;
  int count = 0;
  for (;; ++count) {
    keys.push_back(OrderedKeyI64(count));
    const std::string payload = "p" + std::to_string(count);
    const Slice t[2] = {Slice(keys.back()), Slice(payload)};
    if (!appender.Append(t)) break;
  }
  EXPECT_GT(count, 500);
  const std::string frame = appender.Take();
  FrameTupleAccessor acc(2);
  acc.Reset(Slice(frame));
  ASSERT_EQ(acc.tuple_count(), count);
  for (int i = 0; i < count; i += 97) {
    EXPECT_EQ(DecodeOrderedI64(acc.field(i, 0).data()), i);
    EXPECT_EQ(acc.field(i, 1).ToString(), "p" + std::to_string(i));
  }
}

}  // namespace
}  // namespace pregelix
