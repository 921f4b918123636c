#ifndef PREGELIX_DATAFLOW_OPERATOR_H_
#define PREGELIX_DATAFLOW_OPERATOR_H_

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "buffer/buffer_cache.h"
#include "common/config.h"
#include "common/metrics.h"
#include "common/slice.h"
#include "common/status.h"

namespace pregelix {

struct OperatorStats;  // dataflow/plan_profile.h

/// Pull interface for an operator input: a stream of frames fed by a
/// connector (plain queue or merging receiver).
class FrameSource {
 public:
  virtual ~FrameSource() = default;
  /// Fills *frame with the next frame; false at end-of-stream.
  virtual bool Next(std::string* frame) = 0;
};

/// Push interface for an operator output: tuples flow into the connector's
/// sender side, which partitions them into per-destination frames.
class TupleSink {
 public:
  virtual ~TupleSink() = default;
  /// Appends a tuple given as field slices.
  virtual Status Append(std::span<const Slice> fields) = 0;
  /// Flushes buffered frames and signals end-of-stream downstream. The
  /// executor calls this after Operator::Run returns; operators may call it
  /// earlier.
  virtual Status Close() = 0;
};

/// Everything one operator clone sees at runtime (the analog of Hyracks'
/// IHyracksTaskContext). The `runtime_context` is the per-job hook the
/// Pregelix layer uses to reach partition-local state (vertex indexes, Msg
/// run files, the cached GS tuple) — paper Section 5.7 "Runtime Context".
struct TaskContext {
  int partition = 0;
  int worker = 0;
  int num_partitions = 1;
  size_t frame_size = 32 * 1024;
  WorkerMetrics* metrics = nullptr;
  BufferCache* cache = nullptr;
  Tracer* tracer = nullptr;           ///< cluster tracer; never null under RunJob
  MetricsRegistry* registry = nullptr;  ///< cluster registry; never null under RunJob
  std::string scratch_dir;          ///< partition-local scratch directory
  const ClusterConfig* config = nullptr;
  void* runtime_context = nullptr;  ///< job-defined per-cluster state
  /// Plan-profile slot of this (operator, partition) clone; never null under
  /// RunJob. Written only by this clone's task thread: the executor meters
  /// frames here, and operators and the kernels they drive add memory
  /// high-water marks, spill volume and the relations they read or write.
  OperatorStats* profile = nullptr;

  std::vector<std::unique_ptr<FrameSource>> inputs;
  std::vector<std::unique_ptr<TupleSink>> outputs;

  FrameSource& input(int i) { return *inputs[i]; }
  TupleSink& output(int i) { return *outputs[i]; }
};

/// One operator clone, executing on one partition.
class Operator {
 public:
  virtual ~Operator() = default;
  virtual Status Run(TaskContext& ctx) = 0;
};

// ---------------------------------------------------------------------------
// Physical properties (static plan verification, DESIGN.md §18).
//
// Declared, not inferred: the plan generator states what each operator
// output *provides* and each input *requires*; dataflow/plan_verifier.h
// propagates the declarations topologically through the connector graph and
// rejects plans whose requirements their inputs do not meet. An undeclared
// stream provides nothing (unsorted, arbitrarily placed) — declarations are
// obligations the operator's implementation must honor.

/// Per-partition tuple-order guarantee of a stream.
enum class Sortedness {
  kUnsorted,     ///< no order guarantee
  kSortedByKey,  ///< non-decreasing raw-byte order on the edge's key field
};

/// How a stream's tuples are placed across partitions.
enum class Partitioning {
  kArbitrary,  ///< no placement guarantee
  kHashByKey,  ///< equal keys share a partition (partitioned by the
               ///< connector's key function, ConnectorSpec::Route)
  kSingleton,  ///< the whole stream lives on a single partition
};

struct StreamProperties {
  Sortedness sorted = Sortedness::kUnsorted;
  Partitioning partitioned = Partitioning::kArbitrary;
};

/// Static shape + property declarations of one logical operator. Port counts
/// of -1 leave the count unconstrained (operators predating the verifier);
/// missing `outputs`/`inputs` entries default to "provides nothing" /
/// "requires nothing".
struct OperatorSignature {
  int num_inputs = -1;
  int num_outputs = -1;
  /// outputs[i]: what output port i provides.
  std::vector<StreamProperties> outputs;
  /// inputs[i]: what input port i requires of its delivered stream.
  std::vector<StreamProperties> inputs;
  /// Peak per-clone working memory the operator plans to pin (bytes; 0 =
  /// negligible). Input to the verifier's budget-feasibility rule.
  size_t memory_bytes = 0;

  StreamProperties output(int i) const {
    return i >= 0 && i < static_cast<int>(outputs.size()) ? outputs[i]
                                                          : StreamProperties{};
  }
  StreamProperties input(int i) const {
    return i >= 0 && i < static_cast<int>(inputs.size()) ? inputs[i]
                                                         : StreamProperties{};
  }
};

/// Factory for operator clones; one descriptor per logical operator in a
/// job specification.
class OperatorDescriptor {
 public:
  virtual ~OperatorDescriptor() = default;
  virtual std::string name() const = 0;
  virtual std::unique_ptr<Operator> Create(int partition) = 0;
  /// Declared shape and physical properties; the default declares nothing.
  virtual OperatorSignature signature() const { return {}; }
};

/// Descriptor wrapping a plain function; the workhorse for plan generation.
class LambdaOperatorDescriptor : public OperatorDescriptor {
 public:
  using Fn = std::function<Status(TaskContext&)>;

  LambdaOperatorDescriptor(std::string name, Fn fn)
      : name_(std::move(name)), fn_(std::move(fn)) {}

  std::string name() const override { return name_; }
  OperatorSignature signature() const override { return signature_; }

  /// Fluent property declarations (used by the plan builders; see
  /// dataflow/plan_verifier.h).
  LambdaOperatorDescriptor* DeclarePorts(int num_inputs, int num_outputs) {
    signature_.num_inputs = num_inputs;
    signature_.num_outputs = num_outputs;
    if (num_outputs >= 0) signature_.outputs.resize(num_outputs);
    if (num_inputs >= 0) signature_.inputs.resize(num_inputs);
    return this;
  }
  LambdaOperatorDescriptor* DeclareOutput(int port, StreamProperties provides) {
    if (port >= static_cast<int>(signature_.outputs.size())) {
      signature_.outputs.resize(port + 1);
    }
    signature_.outputs[port] = provides;
    return this;
  }
  LambdaOperatorDescriptor* DeclareInput(int port, StreamProperties required) {
    if (port >= static_cast<int>(signature_.inputs.size())) {
      signature_.inputs.resize(port + 1);
    }
    signature_.inputs[port] = required;
    return this;
  }
  LambdaOperatorDescriptor* DeclareMemoryBytes(size_t bytes) {
    signature_.memory_bytes = bytes;
    return this;
  }

  std::unique_ptr<Operator> Create(int partition) override {
    class FnOperator : public Operator {
     public:
      explicit FnOperator(Fn* fn) : fn_(fn) {}
      Status Run(TaskContext& ctx) override { return (*fn_)(ctx); }

     private:
      Fn* fn_;
    };
    return std::make_unique<FnOperator>(&fn_);
  }

 private:
  std::string name_;
  Fn fn_;
  OperatorSignature signature_;
};

/// Reads field `f` out of pre-encoded tuple bytes (the raw format described
/// in frame.h) without a frame.
inline Slice TupleFieldFromRaw(const Slice& tuple, int field_count, int f) {
  const char* base = tuple.data();
  auto end_of = [&](int i) {
    uint32_t v;
    memcpy(&v, base + 4 * i, 4);
    return v;
  };
  const uint32_t start = f == 0 ? 0 : end_of(f - 1);
  return Slice(base + 4u * field_count + start, end_of(f) - start);
}

}  // namespace pregelix

#endif  // PREGELIX_DATAFLOW_OPERATOR_H_
