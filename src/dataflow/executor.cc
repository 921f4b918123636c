#include "dataflow/executor.h"

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "common/logging.h"
#include "common/mutex.h"
#include "common/metrics_registry.h"
#include "common/temp_dir.h"
#include "common/time_ledger.h"
#include "common/trace.h"
#include "dataflow/channel.h"
#include "dataflow/frame.h"
#include "dataflow/operator.h"
#include "dataflow/ops/loser_tree.h"
#include "dataflow/plan_verifier.h"
#include "dataflow/tuple_run.h"

namespace pregelix {

namespace {

/// Plain queue receiver.
class QueueSource : public FrameSource {
 public:
  explicit QueueSource(FrameChannel* channel) : channel_(channel) {}
  bool Next(std::string* frame) override { return channel_->Get(frame); }

 private:
  FrameChannel* channel_;
};

/// Decorator over every operator input: meters each delivered frame once
/// into the consumer clone's profile and the receive side of the
/// connector's EdgeProfile.
class ProfilingSource : public FrameSource {
 public:
  ProfilingSource(std::unique_ptr<FrameSource> inner, int field_count,
                  OperatorStats* op, EdgeProfile* edge)
      : inner_(std::move(inner)),
        accessor_(field_count),
        op_(op),
        edge_(edge) {}

  bool Next(std::string* frame) override {
    if (!inner_->Next(frame)) return false;
    accessor_.Reset(Slice(*frame));
    const uint64_t tuples = static_cast<uint64_t>(accessor_.tuple_count());
    ++op_->frames_in;
    op_->bytes_in += frame->size();
    op_->tuples_in += tuples;
    edge_->tuples_recv.fetch_add(tuples, std::memory_order_relaxed);
    return true;
  }

 private:
  std::unique_ptr<FrameSource> inner_;
  FrameTupleAccessor accessor_;
  OperatorStats* op_;
  EdgeProfile* edge_;
};

/// One sender's stream at a merging receiver: the run reader's tuple cursor
/// refilled from the sender's channel instead of a run file. A failed
/// receive is parked on the channel and surfaced by RunJob, so the stream
/// just ends and the cursor itself never fails.
class ChannelCursor final : public TupleCursor {
 public:
  ChannelCursor(FrameChannel* channel, int field_count)
      : TupleCursor(field_count), channel_(channel) {}

  Status Init() { return Advance(); }

 private:
  Status NextFrame(std::string* frame) override {
    return channel_->Get(frame) ? Status::OK() : Status::NotFound();
  }

  FrameChannel* channel_;
};

/// Receiver side of the m-to-n partitioning merging connector: merges the
/// per-sender sorted frame streams into one sorted stream (the paper's
/// "priority queue" coordination at the receiver) with the sort's loser
/// tree, whose tie rule delivers equal keys in sender order.
class MergingSource : public FrameSource {
 public:
  MergingSource(const std::vector<FrameChannel*>& channels, int field_count,
                int key_field, size_t frame_size, WorkerMetrics* metrics)
      : tree_(cursors_, key_field),
        metrics_(metrics),
        appender_(frame_size, field_count) {
    for (FrameChannel* channel : channels) {
      cursors_.push_back(std::make_unique<ChannelCursor>(channel, field_count));
    }
  }

  bool Next(std::string* frame) override {
    if (!primed_) {
      for (auto& cursor : cursors_) PREGELIX_CHECK_OK(cursor->Init());
      tree_.Init();
      primed_ = true;
    }
    uint64_t emitted = 0;
    // A full frame goes out; the winning tuple stays for the next call.
    while (tree_.winner() >= 0 &&
           appender_.AppendRaw(tree_.winner_cursor().tuple_bytes())) {
      ++emitted;
      PREGELIX_CHECK_OK(tree_.AdvanceWinner());
    }
    metrics_->AddCpuOps(emitted);
    if (appender_.empty()) return false;
    *frame = appender_.Take();
    return true;
  }

 private:
  std::vector<std::unique_ptr<ChannelCursor>> cursors_;
  LoserTree<ChannelCursor> tree_;
  WorkerMetrics* metrics_;
  FrameTupleAppender appender_;
  bool primed_ = false;
};

/// Sender side of every connector: routes tuples to per-destination frames
/// and pushes full frames into the destination channels. Appending a tuple
/// meters nothing; each flushed frame publishes its tuples, its bytes and,
/// for a cross-worker hop, its network bytes once to every sink.
class ConnectorSender : public TupleSink {
 public:
  struct Destination {
    int dst_partition;
    int dst_worker;
    FrameChannel* channel;
  };

  ConnectorSender(const ConnectorSpec* spec, std::vector<Destination> dests,
                  int routing_fanout, int src_worker, size_t frame_size,
                  int field_count, WorkerMetrics* metrics,
                  MetricsRegistry* registry, const std::string& src_op_name,
                  OperatorStats* op_profile, EdgeProfile* edge_profile)
      : spec_(spec),
        dests_(std::move(dests)),
        routing_fanout_(routing_fanout),
        src_worker_(src_worker),
        metrics_(metrics),
        op_profile_(op_profile),
        edge_profile_(edge_profile) {
    appenders_.reserve(dests_.size());
    for (size_t i = 0; i < dests_.size(); ++i) {
      appenders_.emplace_back(frame_size, field_count);
    }
    const MetricLabels labels{{"operator", src_op_name},
                              {"worker", std::to_string(src_worker_)}};
    tuples_out_ = registry->GetCounter("pregelix.dataflow.tuples_out", labels);
    frames_out_ =
        registry->GetCounter("pregelix.dataflow.connector_frames", labels);
    bytes_out_ =
        registry->GetCounter("pregelix.dataflow.connector_bytes", labels);
  }

  Status Append(std::span<const Slice> fields) override {
    PREGELIX_CHECK(!closed_);
    size_t d = 0;
    if (dests_.size() > 1) {
      d = spec_->Route(fields[spec_->key_field],
                       static_cast<uint32_t>(routing_fanout_));
      PREGELIX_DCHECK(d < dests_.size());
    }
    FrameTupleAppender& appender = appenders_[d];
    if (!appender.Append(fields)) {
      PREGELIX_RETURN_NOT_OK(Flush(d));
      PREGELIX_CHECK(appender.Append(fields)) << "tuple cannot fit any frame";
    }
    return Status::OK();
  }

  Status Close() override {
    if (closed_) return Status::OK();
    closed_ = true;
    for (size_t d = 0; d < dests_.size(); ++d) {
      PREGELIX_RETURN_NOT_OK(Flush(d));
      PREGELIX_RETURN_NOT_OK(dests_[d].channel->CloseSender());
    }
    return Status::OK();
  }

 private:
  Status Flush(size_t d) {
    FrameTupleAppender& appender = appenders_[d];
    if (appender.empty()) return Status::OK();
    const uint64_t tuples = static_cast<uint64_t>(appender.tuple_count());
    std::string frame = appender.Take();
    const uint64_t bytes = frame.size();
    // The sinks: the cost meter, the registry, the clone's profile and the
    // edge's profile.
    metrics_->AddCpuOps(tuples);
    if (dests_[d].dst_worker != src_worker_) metrics_->AddNet(bytes);
    tuples_out_->Add(tuples);
    frames_out_->Increment();
    bytes_out_->Add(bytes);
    op_profile_->tuples_out += tuples;
    ++op_profile_->frames_out;
    op_profile_->bytes_out += bytes;
    edge_profile_->tuples_sent.fetch_add(tuples, std::memory_order_relaxed);
    edge_profile_->frames.fetch_add(1, std::memory_order_relaxed);
    edge_profile_->bytes.fetch_add(bytes, std::memory_order_relaxed);
    return dests_[d].channel->Put(std::move(frame));
  }

  const ConnectorSpec* spec_;
  std::vector<Destination> dests_;
  int routing_fanout_;
  int src_worker_;
  WorkerMetrics* metrics_;
  Counter* tuples_out_;
  Counter* frames_out_;
  Counter* bytes_out_;
  OperatorStats* op_profile_;
  EdgeProfile* edge_profile_;
  std::vector<FrameTupleAppender> appenders_;
  bool closed_ = false;
};

/// The activation's Chrome-trace event, built from its ledger attachment so
/// the trace carries the nanoseconds the profile and /profilez carry: args
/// are the partition and every non-zero `<category>_ns`.
void TraceActivation(Tracer* tracer, const std::string& op_name, int worker,
                     int partition, const LedgerAttachment& t) {
  if (!tracer->enabled()) return;
  TraceEvent event;
  event.name = op_name;
  event.category = trace_cat::kOperator;
  event.worker = worker;
  event.start_us = tracer->MicrosAt(t.start_ns);
  event.duration_us = tracer->MicrosAt(t.end_ns) - event.start_us;
  event.args.emplace_back("partition", partition);
  for (int c = 0; c < kNumTimeCategories; ++c) {
    const int64_t ns = t.ns[static_cast<size_t>(c)];
    if (ns != 0) {
      event.args.emplace_back(std::string(kTimeCategoryNames[c]) + "_ns", ns);
    }
  }
  tracer->Record(std::move(event));
}

/// All channels of one connector instance.
struct ConnectorChannels {
  // For non-merging kinds: one MPSC channel per destination partition.
  // For the merging kind: one channel per (src, dst) pair, indexed
  // [src * num_dst + dst].
  std::vector<std::unique_ptr<FrameChannel>> channels;
  bool merging = false;
  int num_src = 0;
  int num_dst = 0;

  FrameChannel* at(int src, int dst) const {
    return merging ? channels[src * num_dst + dst].get()
                   : channels[dst].get();
  }
};

}  // namespace

Status RunJob(SimulatedCluster& cluster, const JobSpec& spec,
              void* runtime_context) {
  PlanProfile profile;
  return RunJob(cluster, spec, runtime_context, profile);
}

Status RunJob(SimulatedCluster& cluster, const JobSpec& spec,
              void* runtime_context, PlanProfile& profile) {
  const ClusterConfig& config = cluster.config();

  // --- Admission: static plan verification (DESIGN.md §18) ----------------
  // Runs in every build before any channel or task exists; an invalid plan
  // never starts executing. Pure analysis — zero cost on the tuple path.
  {
    const PlanVerifyResult verdict =
        VerifyPlan(spec, PlanVerifyOptionsFrom(config));
    CountVerification(cluster.registry(), verdict);
    if (!verdict.ok()) {
      return Status::InvalidArgument(verdict.Render(spec.name()));
    }
  }

  std::atomic<bool> abort{false};
  const uint64_t job_start_ns = TimeLedger::NowNs();
  profile.InitFromJob(
      spec, [&cluster](int p) { return cluster.worker_of_partition(p); });

  // --- Build channels per connector ---------------------------------------
  std::vector<ConnectorChannels> conn_channels(spec.connectors().size());
  for (size_t ci = 0; ci < spec.connectors().size(); ++ci) {
    const ConnectorSpec& c = spec.connectors()[ci];
    const int num_src = spec.ops()[c.src_op].num_partitions;
    const int num_dst = spec.ops()[c.dst_op].num_partitions;
    ConnectorChannels& cc = conn_channels[ci];
    cc.num_src = num_src;
    cc.num_dst = num_dst;

    if (c.kind == ConnectorKind::kMToNPartitionMerge) {
      // Sender-side materialization: a pipelined merging receiver could
      // deadlock under backpressure, which is why the paper pairs the
      // merging connector with materialization.
      cc.merging = true;
      cc.channels.resize(static_cast<size_t>(num_src) * num_dst);
      for (int s = 0; s < num_src; ++s) {
        const int src_worker = cluster.worker_of_partition(s);
        for (int d = 0; d < num_dst; ++d) {
          const std::string spill = cluster.worker_dir(src_worker) +
                                    "/conn-" + std::to_string(ci) + "-s" +
                                    std::to_string(s) + "-d" +
                                    std::to_string(d) + "-" +
                                    std::to_string(cluster.NextFileId());
          cc.channels[static_cast<size_t>(s) * num_dst + d] =
              std::make_unique<FrameChannel>(
                  config.channel_capacity_frames,
                  FrameChannel::Policy::kSenderMaterialize, spill,
                  &cluster.metrics(src_worker), &abort, /*num_senders=*/1);
        }
      }
    } else {
      if (c.kind == ConnectorKind::kOneToOne) {
        PREGELIX_CHECK(num_src == num_dst)
            << "one-to-one connector requires equal partition counts";
      }
      // Every other kind pipelines through one bounded channel per
      // destination, which never spills.
      cc.channels.resize(num_dst);
      for (int d = 0; d < num_dst; ++d) {
        const int senders = c.kind == ConnectorKind::kOneToOne ? 1 : num_src;
        cc.channels[d] = std::make_unique<FrameChannel>(
            config.channel_capacity_frames, FrameChannel::Policy::kPipelined,
            /*spill_path=*/"", /*spill_metrics=*/nullptr, &abort, senders);
      }
    }
  }

  // --- Build tasks ----------------------------------------------------------
  struct Task {
    int op;
    int partition;
    std::unique_ptr<TaskContext> ctx;
    std::unique_ptr<Operator> instance;
  };
  std::vector<Task> tasks;

  for (size_t oi = 0; oi < spec.ops().size(); ++oi) {
    const JobSpec::OpEntry& entry = spec.ops()[oi];
    for (int p = 0; p < entry.num_partitions; ++p) {
      Task task;
      task.op = static_cast<int>(oi);
      task.partition = p;
      auto ctx = std::make_unique<TaskContext>();
      ctx->partition = p;
      ctx->worker = cluster.worker_of_partition(p);
      ctx->num_partitions = entry.num_partitions;
      ctx->frame_size = config.frame_size;
      ctx->metrics = &cluster.metrics(ctx->worker);
      ctx->cache = &cluster.cache(ctx->worker);
      ctx->tracer = cluster.tracer();
      ctx->registry = cluster.registry();
      ctx->scratch_dir = cluster.partition_dir(p);
      PREGELIX_CHECK(EnsureDir(ctx->scratch_dir));
      ctx->config = &config;
      ctx->runtime_context = runtime_context;
      ctx->profile = profile.slot(static_cast<int>(oi), p);

      // Inputs, ordered by dst_input index.
      std::vector<std::pair<int, std::unique_ptr<FrameSource>>> inputs;
      for (size_t ci = 0; ci < spec.connectors().size(); ++ci) {
        const ConnectorSpec& c = spec.connectors()[ci];
        if (c.dst_op != static_cast<int>(oi)) continue;
        const ConnectorChannels& cc = conn_channels[ci];
        std::unique_ptr<FrameSource> src;
        if (cc.merging) {
          std::vector<FrameChannel*> column;
          column.reserve(cc.num_src);
          for (int s = 0; s < cc.num_src; ++s) {
            column.push_back(cc.at(s, p));
          }
          src = std::make_unique<MergingSource>(
              column, c.field_count, c.key_field, config.frame_size,
              ctx->metrics);
        } else {
          src = std::make_unique<QueueSource>(cc.at(0, p));
        }
        inputs.emplace_back(
            c.dst_input, std::make_unique<ProfilingSource>(
                             std::move(src), c.field_count, ctx->profile,
                             profile.edge_slot(static_cast<int>(ci))));
      }
      std::sort(inputs.begin(), inputs.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      for (auto& [idx, src] : inputs) {
        ctx->inputs.push_back(std::move(src));
      }

      // Outputs, ordered by src_output index.
      std::vector<std::pair<int, std::unique_ptr<TupleSink>>> outputs;
      for (size_t ci = 0; ci < spec.connectors().size(); ++ci) {
        const ConnectorSpec& c = spec.connectors()[ci];
        if (c.src_op != static_cast<int>(oi)) continue;
        const ConnectorChannels& cc = conn_channels[ci];
        std::vector<ConnectorSender::Destination> dests;
        int fanout = cc.num_dst;
        switch (c.kind) {
          case ConnectorKind::kOneToOne:
            dests.push_back({p, cluster.worker_of_partition(p), cc.at(0, p)});
            fanout = 1;
            break;
          case ConnectorKind::kMToOne:
            dests.push_back({0, cluster.worker_of_partition(0), cc.at(0, 0)});
            fanout = 1;
            break;
          case ConnectorKind::kMToNPartition:
          case ConnectorKind::kMToNPartitionMerge:
            for (int d = 0; d < cc.num_dst; ++d) {
              dests.push_back(
                  {d, cluster.worker_of_partition(d), cc.at(p, d)});
            }
            break;
        }
        outputs.emplace_back(
            c.src_output,
            std::make_unique<ConnectorSender>(
                &c, std::move(dests), fanout, ctx->worker, config.frame_size,
                c.field_count, ctx->metrics, ctx->registry,
                entry.descriptor->name(), ctx->profile,
                profile.edge_slot(static_cast<int>(ci))));
      }
      std::sort(outputs.begin(), outputs.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      for (auto& [idx, sink] : outputs) {
        ctx->outputs.push_back(std::move(sink));
      }

      task.instance = entry.descriptor->Create(p);
      task.ctx = std::move(ctx);
      tasks.push_back(std::move(task));
    }
  }

  // --- Run ------------------------------------------------------------------
  // Each activation runs on a task thread of the cluster's pool (DESIGN.md
  // §13).
  Mutex status_mutex{"executor_status", LockRank::kExecutorStatus};
  Status first_error;
  std::vector<std::function<void()>> activations;
  activations.reserve(tasks.size());
  for (Task& task : tasks) {
    activations.push_back([&spec, &task, &abort, &status_mutex,
                           &first_error]() {
      // Time ledger (DESIGN.md §20): the whole activation is attributed,
      // base category compute, labeled with the operator name so the
      // category×operator hierarchy can be rebuilt from the cells. The
      // attachment is the activation's one timer: its record below feeds
      // the profile wall and the trace event.
      const std::string& op_name = spec.ops()[task.op].descriptor->name();
      TimeLedger::AttachCurrentThread(task.ctx->worker, TimeCategory::kCompute,
                                      op_name);
      Status s = task.instance->Run(*task.ctx);
      if (s.ok()) {
        // Close outputs (end-of-stream) and drain unread inputs so upstream
        // senders are never left blocked on a full channel.
        for (auto& out : task.ctx->outputs) {
          Status cs = out->Close();
          if (!cs.ok() && s.ok()) s = cs;
        }
        std::string discard;
        for (auto& in : task.ctx->inputs) {
          while (in->Next(&discard)) {
          }
        }
      }
      if (!s.ok()) {
        MutexLock lock(&status_mutex);
        if (first_error.ok()) {
          first_error = Status(s.code(), spec.name() + "/" + op_name + "[" +
                                             std::to_string(task.partition) +
                                             "]: " + s.message());
        }
        abort.store(true);
      }
      const LedgerAttachment timed = TimeLedger::DetachCurrentThread();
      task.ctx->profile->AddActivation(timed);
      TraceActivation(task.ctx->tracer, op_name, task.ctx->worker,
                      task.partition, timed);
    });
  }
  {
    // The caller (superstep driver or a nested checkpoint/load run) spends
    // the whole job parked here: the superstep barrier.
    ScopedTimeCategory barrier(TimeCategory::kBarrierWait);
    cluster.RunOnTaskThreads(std::move(activations));
  }

  // A failed receive (injected channel.recv fault or spill read error) makes
  // Get return false, which a task cannot distinguish from end-of-stream.
  // The channel parks the real status; surface it as the job error.
  if (first_error.ok()) {
    for (const ConnectorChannels& cc : conn_channels) {
      for (const auto& channel : cc.channels) {
        if (channel == nullptr) continue;
        Status cs = channel->fault_status();
        if (!cs.ok()) {
          first_error = Status(cs.code(), spec.name() + ": " + cs.message());
          break;
        }
      }
      if (!first_error.ok()) break;
    }
  }

  profile.Finalize(TimeLedger::NowNs() - job_start_ns);
  return first_error;
}

}  // namespace pregelix
