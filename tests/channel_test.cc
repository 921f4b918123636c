#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/serde.h"
#include "common/temp_dir.h"
#include "dataflow/channel.h"
#include "dataflow/tuple_run.h"
#include "io/file.h"

namespace pregelix {
namespace {

class ChannelTest : public ::testing::Test {
 protected:
  TempDir dir_{"channel-test"};
  std::atomic<bool> abort_{false};
};

TEST_F(ChannelTest, PipelinedFifoSingleSender) {
  FrameChannel channel(4, FrameChannel::Policy::kPipelined, "", nullptr,
                       &abort_, 1);
  ASSERT_TRUE(channel.Put("one").ok());
  ASSERT_TRUE(channel.Put("two").ok());
  ASSERT_TRUE(channel.CloseSender().ok());
  std::string frame;
  ASSERT_TRUE(channel.Get(&frame));
  EXPECT_EQ(frame, "one");
  ASSERT_TRUE(channel.Get(&frame));
  EXPECT_EQ(frame, "two");
  EXPECT_FALSE(channel.Get(&frame));
}

TEST_F(ChannelTest, BackpressureBlocksThenDrains) {
  FrameChannel channel(2, FrameChannel::Policy::kPipelined, "", nullptr,
                       &abort_, 1);
  std::atomic<int> sent{0};
  std::thread sender([&]() {
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(channel.Put("frame-" + std::to_string(i)).ok());
      sent.fetch_add(1);
    }
    ASSERT_TRUE(channel.CloseSender().ok());
  });
  int received = 0;
  std::string frame;
  while (channel.Get(&frame)) {
    EXPECT_EQ(frame, "frame-" + std::to_string(received));
    ++received;
  }
  sender.join();
  EXPECT_EQ(received, 100);
  EXPECT_EQ(sent.load(), 100);
}

TEST_F(ChannelTest, MultipleSendersAllClose) {
  FrameChannel channel(8, FrameChannel::Policy::kPipelined, "", nullptr,
                       &abort_, 3);
  std::vector<std::thread> senders;
  for (int s = 0; s < 3; ++s) {
    senders.emplace_back([&channel, s]() {
      for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(channel.Put("s" + std::to_string(s)).ok());
      }
      ASSERT_TRUE(channel.CloseSender().ok());
    });
  }
  int received = 0;
  std::string frame;
  while (channel.Get(&frame)) ++received;
  for (auto& t : senders) t.join();
  EXPECT_EQ(received, 30);
}

TEST_F(ChannelTest, AbortUnblocksSender) {
  FrameChannel channel(1, FrameChannel::Policy::kPipelined, "", nullptr,
                       &abort_, 1);
  ASSERT_TRUE(channel.Put("fills-the-queue").ok());
  std::thread aborter([this]() {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    abort_.store(true);
  });
  Status s = channel.Put("blocks-until-abort");
  EXPECT_TRUE(s.IsAborted());
  aborter.join();
}

TEST_F(ChannelTest, AbortUnblocksReceiver) {
  FrameChannel channel(4, FrameChannel::Policy::kPipelined, "", nullptr,
                       &abort_, 1);
  std::thread aborter([this]() {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    abort_.store(true);
  });
  std::string frame;
  EXPECT_FALSE(channel.Get(&frame));  // no sender ever closes
  aborter.join();
}

TEST_F(ChannelTest, MaterializingSpillsAndReplays) {
  WorkerMetrics metrics;
  FrameChannel channel(2, FrameChannel::Policy::kSenderMaterialize,
                       dir_.path() + "/spill", &metrics, &abort_, 1);
  // Far more frames than capacity: materializing never blocks.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(channel.Put("frame-" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(channel.CloseSender().ok());
  std::string frame;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(channel.Get(&frame));
    EXPECT_EQ(frame, "frame-" + std::to_string(i));
  }
  EXPECT_FALSE(channel.Get(&frame));
  // The spill traffic was metered against the sender.
  EXPECT_GT(metrics.Snapshot().disk_write_bytes, 0u);
  EXPECT_GT(metrics.Snapshot().disk_read_bytes, 0u);
}

TEST_F(ChannelTest, MaterializingEmptyStream) {
  FrameChannel channel(2, FrameChannel::Policy::kSenderMaterialize,
                       dir_.path() + "/empty", nullptr, &abort_, 1);
  ASSERT_TRUE(channel.CloseSender().ok());
  std::string frame;
  EXPECT_FALSE(channel.Get(&frame));
}

TEST(TupleRunTest, WriteReadRoundTrip) {
  TempDir dir("tuple-run");
  WorkerMetrics metrics;
  TupleRunWriter writer(dir.path() + "/r", 512, 2, &metrics);
  for (int i = 0; i < 300; ++i) {
    const std::string key = OrderedKeyI64(i);
    const std::string payload = "p" + std::to_string(i);
    const Slice fields[2] = {Slice(key), Slice(payload)};
    ASSERT_TRUE(writer.Append(fields).ok());
  }
  ASSERT_TRUE(writer.Finish().ok());
  EXPECT_EQ(writer.count(), 300u);

  TupleRunReader reader(dir.path() + "/r", 2, &metrics);
  ASSERT_TRUE(reader.Init().ok());
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(reader.Valid());
    EXPECT_EQ(DecodeOrderedI64(reader.field(0).data()), i);
    EXPECT_EQ(reader.field(1).ToString(), "p" + std::to_string(i));
    ASSERT_TRUE(reader.Next().ok());
  }
  EXPECT_FALSE(reader.Valid());
}

// Only an empty path is the empty relation. A missing run is an error, not
// an empty relation, and opening it creates nothing.
TEST(TupleRunTest, EmptyPathIsEmptyAndMissingRunIsAnError) {
  TupleRunReader none("", 2, nullptr);
  ASSERT_TRUE(none.Init().ok());
  EXPECT_FALSE(none.Valid());

  TempDir dir("tuple-run-missing");
  const std::string missing = dir.path() + "/lost-run";
  TupleRunReader lost(missing, 2, nullptr);
  EXPECT_FALSE(lost.Init().ok());
  EXPECT_FALSE(FileExists(missing));

  TupleRunReader no_dir(dir.path() + "/no-such-dir/run", 2, nullptr);
  EXPECT_FALSE(no_dir.Init().ok());
}

TEST(TupleRunTest, EmptyRunIsValidRelation) {
  TempDir dir("tuple-run-empty");
  TupleRunWriter writer(dir.path() + "/e", 512, 2, nullptr);
  ASSERT_TRUE(writer.Finish().ok());  // no appends
  TupleRunReader reader(dir.path() + "/e", 2, nullptr);
  ASSERT_TRUE(reader.Init().ok());
  EXPECT_FALSE(reader.Valid());
}

}  // namespace
}  // namespace pregelix
