#ifndef PREGELIX_DATAFLOW_JOB_H_
#define PREGELIX_DATAFLOW_JOB_H_

#include <memory>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"
#include "common/serde.h"
#include "dataflow/operator.h"

namespace pregelix {

/// Inter-operator data exchange pattern (paper Section 4 "Connectors").
enum class ConnectorKind {
  kOneToOne,            ///< partition i feeds partition i (sticky/local)
  kMToNPartition,       ///< repartition by key, unordered arrival
  kMToNPartitionMerge,  ///< repartition; receiver merges sorted sender runs
  kMToOne,              ///< all partitions feed partition 0 (aggregator)
};

/// Edge of the job DAG.
struct ConnectorSpec {
  int src_op = -1;
  int src_output = 0;
  int dst_op = -1;
  int dst_input = 0;
  ConnectorKind kind = ConnectorKind::kMToNPartition;
  /// Field used for routing and for the merge order.
  int key_field = 0;
  /// Tuple width on this edge (needed by the merging receiver).
  int field_count = 2;

  /// An 8-byte key is an OrderedI64 vertex id and goes to partition
  /// vid mod n, negative vids mapped into [0, n): the load, message and
  /// mutation connectors place Vertex and Msg alike, and partition p holds
  /// the vids p, p + n, p + 2n, ... of a dense id range, so a per-partition
  /// array indexed by vid / n covers it without gaps. Any other key goes to
  /// its raw bytes' Hash64 mod n. Either way the partition is a function of
  /// the key bytes, the very bytes the sort and merge path orders by, so
  /// equal keys share a partition and compare equal in the merge.
  uint32_t Route(const Slice& key, uint32_t n) const {
    if (key.size() != 8) return static_cast<uint32_t>(Hash64(key) % n);
    const int64_t r = DecodeOrderedI64(key.data()) % static_cast<int64_t>(n);
    return static_cast<uint32_t>(r < 0 ? r + n : r);
  }
};

/// A dataflow job: operators plus connectors, submitted to the executor.
/// The per-operator partition count plays the role of Hyracks' location
/// constraints: the Pregelix plan generator pins join/group-by clones to the
/// Vertex partitions by simply using the same partition count and relying on
/// the executor's fixed partition->worker map (sticky scheduling, paper
/// Section 5.3.4).
class JobSpec {
 public:
  struct OpEntry {
    std::shared_ptr<OperatorDescriptor> descriptor;
    int num_partitions;
  };

  /// Returns the operator id used in ConnectorSpec.
  int AddOperator(std::shared_ptr<OperatorDescriptor> op, int num_partitions) {
    ops_.push_back(OpEntry{std::move(op), num_partitions});
    return static_cast<int>(ops_.size()) - 1;
  }

  void Connect(ConnectorSpec spec) {
    PREGELIX_CHECK(spec.src_op >= 0 &&
                   spec.src_op < static_cast<int>(ops_.size()));
    PREGELIX_CHECK(spec.dst_op >= 0 &&
                   spec.dst_op < static_cast<int>(ops_.size()));
    PREGELIX_CHECK(spec.src_output >= 0 && spec.dst_input >= 0);
    // The key must name a field the edge actually carries; the merging
    // receiver and the hash router both index fields by it.
    PREGELIX_CHECK(spec.key_field >= 0 &&
                   spec.field_count >= spec.key_field + 1);
    connectors_.push_back(std::move(spec));
  }

  const std::vector<OpEntry>& ops() const { return ops_; }
  const std::vector<ConnectorSpec>& connectors() const { return connectors_; }

  /// Descriptive name for logs.
  void set_name(std::string name) { name_ = std::move(name); }
  const std::string& name() const { return name_; }

 private:
  std::string name_ = "job";
  std::vector<OpEntry> ops_;
  std::vector<ConnectorSpec> connectors_;
};

}  // namespace pregelix

#endif  // PREGELIX_DATAFLOW_JOB_H_
