#include "dataflow/plan_verifier.h"

#include <algorithm>
#include <map>
#include <queue>
#include <sstream>
#include <string>
#include <vector>

#include "common/metrics_registry.h"

namespace pregelix {
namespace {

const char* KindName(ConnectorKind kind) {
  switch (kind) {
    case ConnectorKind::kOneToOne:
      return "kOneToOne";
    case ConnectorKind::kMToNPartition:
      return "kMToNPartition";
    case ConnectorKind::kMToNPartitionMerge:
      return "kMToNPartitionMerge";
    case ConnectorKind::kMToOne:
      return "kMToOne";
  }
  return "?";
}

/// "compute-msgs(op 1)"; tolerates out-of-range ids (the rule reporting
/// them still needs a name).
std::string OpRef(const JobSpec& spec, int op) {
  if (op < 0 || op >= static_cast<int>(spec.ops().size())) {
    return "<invalid>(op " + std::to_string(op) + ")";
  }
  return spec.ops()[op].descriptor->name() + "(op " + std::to_string(op) + ")";
}

/// "connector #0 [kMToNPartitionMerge] gen(op 0, output 0) -> sink(op 1,
/// input 0)".
std::string EdgeRef(const JobSpec& spec, int ci) {
  const ConnectorSpec& c = spec.connectors()[ci];
  auto op_name = [&spec](int op) -> std::string {
    return op >= 0 && op < static_cast<int>(spec.ops().size())
               ? spec.ops()[op].descriptor->name()
               : "<invalid>";
  };
  std::ostringstream out;
  out << "connector #" << ci << " [" << KindName(c.kind) << "] "
      << op_name(c.src_op) << "(op " << c.src_op << ", output " << c.src_output
      << ") -> " << op_name(c.dst_op) << "(op " << c.dst_op << ", input "
      << c.dst_input << ")";
  return out.str();
}

/// What the connector delivers to each receiving clone, given what the
/// source output provides per sending clone.
StreamProperties Delivered(const ConnectorSpec& c, int num_src,
                           const StreamProperties& src) {
  StreamProperties out;
  switch (c.kind) {
    case ConnectorKind::kOneToOne:
      out = src;  // the same stream, partition-local
      break;
    case ConnectorKind::kMToNPartition:
      out.sorted = Sortedness::kUnsorted;  // unordered arrival
      out.partitioned = Partitioning::kHashByKey;
      break;
    case ConnectorKind::kMToNPartitionMerge:
      out.sorted = Sortedness::kSortedByKey;  // the receiver merges runs
      out.partitioned = Partitioning::kHashByKey;
      break;
    case ConnectorKind::kMToOne:
      out.sorted = num_src == 1 ? src.sorted : Sortedness::kUnsorted;
      out.partitioned = Partitioning::kSingleton;
      break;
  }
  return out;
}

bool Satisfies(const StreamProperties& delivered,
               const StreamProperties& required) {
  if (required.sorted == Sortedness::kSortedByKey &&
      delivered.sorted != Sortedness::kSortedByKey) {
    return false;
  }
  if (required.partitioned == Partitioning::kHashByKey &&
      delivered.partitioned == Partitioning::kArbitrary) {
    return false;  // a singleton stream trivially co-locates equal keys
  }
  if (required.partitioned == Partitioning::kSingleton &&
      delivered.partitioned != Partitioning::kSingleton) {
    return false;
  }
  return true;
}

const char* SortednessName(Sortedness s) {
  return s == Sortedness::kSortedByKey ? "sorted-by-key" : "unsorted";
}

const char* PartitioningName(Partitioning p) {
  switch (p) {
    case Partitioning::kArbitrary:
      return "arbitrary";
    case Partitioning::kHashByKey:
      return "hash-by-key";
    case Partitioning::kSingleton:
      return "singleton";
  }
  return "?";
}

class Verifier {
 public:
  Verifier(const JobSpec& spec, const PlanVerifyOptions& opts)
      : spec_(spec), opts_(opts), num_ops_(static_cast<int>(spec.ops().size())) {}

  PlanVerifyResult Run() {
    CheckOperators();
    CheckEdges();
    CheckPorts();
    CheckAcyclicAndConnected();
    if (acyclic_) PropagateProperties();
    CheckBudget();
    return std::move(result_);
  }

 private:
  void Add(const std::string& rule, int op, int connector,
           const std::string& message) {
    result_.violations.push_back(PlanViolation{rule, message, op, connector});
  }

  bool EdgeEndpointsValid(const ConnectorSpec& c) const {
    return c.src_op >= 0 && c.src_op < num_ops_ && c.dst_op >= 0 &&
           c.dst_op < num_ops_;
  }

  void CheckOperators() {
    for (int i = 0; i < num_ops_; ++i) {
      if (spec_.ops()[i].num_partitions < 1) {
        Add("op-partitions", i, -1,
            OpRef(spec_, i) + ": num_partitions is " +
                std::to_string(spec_.ops()[i].num_partitions) +
                "; every operator needs at least 1 partition");
      }
    }
  }

  void CheckEdges() {
    const auto& conns = spec_.connectors();
    for (int ci = 0; ci < static_cast<int>(conns.size()); ++ci) {
      const ConnectorSpec& c = conns[ci];
      if (!EdgeEndpointsValid(c)) {
        Add("edge-endpoints", -1, ci,
            "connector #" + std::to_string(ci) + ": operator id out of range (src_op=" +
                std::to_string(c.src_op) + ", dst_op=" +
                std::to_string(c.dst_op) + ", ops=" +
                std::to_string(num_ops_) + ")");
        continue;  // every other edge rule needs valid endpoints
      }
      if (c.src_output < 0 || c.dst_input < 0) {
        Add("edge-ports", -1, ci,
            EdgeRef(spec_, ci) + ": negative port index");
      }
      if (c.key_field < 0 || c.field_count < c.key_field + 1) {
        Add("edge-key-field", -1, ci,
            EdgeRef(spec_, ci) + ": key_field " + std::to_string(c.key_field) +
                " is not a field of a " + std::to_string(c.field_count) +
                "-field tuple (need field_count >= key_field + 1)");
      }
      const int src_parts = spec_.ops()[c.src_op].num_partitions;
      const int dst_parts = spec_.ops()[c.dst_op].num_partitions;
      if (c.kind == ConnectorKind::kOneToOne && src_parts != dst_parts) {
        Add("partition-one-to-one", -1, ci,
            EdgeRef(spec_, ci) + ": kOneToOne needs equal partition counts, got " +
                std::to_string(src_parts) + " -> " + std::to_string(dst_parts));
      }
      if (c.kind == ConnectorKind::kMToOne && dst_parts != 1) {
        Add("partition-m-to-one", -1, ci,
            EdgeRef(spec_, ci) + ": kMToOne gathers into exactly 1 dst partition, got " +
                std::to_string(dst_parts));
      }
    }
  }

  void CheckPorts() {
    // Per operator: connected input/output port indices must be exactly
    // 0..k-1, each used once (the executor binds ports by sorted position,
    // so a gap or a duplicate silently misbinds), and must match the
    // declared port counts when the operator declares any.
    std::vector<std::map<int, std::vector<int>>> in_ports(num_ops_);
    std::vector<std::map<int, std::vector<int>>> out_ports(num_ops_);
    const auto& conns = spec_.connectors();
    for (int ci = 0; ci < static_cast<int>(conns.size()); ++ci) {
      const ConnectorSpec& c = conns[ci];
      if (!EdgeEndpointsValid(c) || c.src_output < 0 || c.dst_input < 0) {
        continue;
      }
      out_ports[c.src_op][c.src_output].push_back(ci);
      in_ports[c.dst_op][c.dst_input].push_back(ci);
    }
    for (int i = 0; i < num_ops_; ++i) {
      const OperatorSignature sig = spec_.ops()[i].descriptor->signature();
      CheckPortSet(i, in_ports[i], sig.num_inputs, /*is_input=*/true);
      CheckPortSet(i, out_ports[i], sig.num_outputs, /*is_input=*/false);
    }
  }

  void CheckPortSet(int op, const std::map<int, std::vector<int>>& ports,
                    int declared, bool is_input) {
    const char* side = is_input ? "input" : "output";
    for (const auto& [port, edges] : ports) {
      if (is_input && edges.size() > 1) {
        Add("input-single-writer", op, edges[1],
            OpRef(spec_, op) + ": input " + std::to_string(port) + " has " +
                std::to_string(edges.size()) +
                " writers (connectors #" + std::to_string(edges[0]) + " and #" +
                std::to_string(edges[1]) + "); every input has one writer");
      } else if (!is_input && edges.size() > 1) {
        Add("port-contiguous", op, edges[1],
            OpRef(spec_, op) + ": output " + std::to_string(port) +
                " feeds " + std::to_string(edges.size()) +
                " connectors; the executor binds one sender per output port");
      }
    }
    // Contiguity: used ports must be 0..k-1.
    int next = 0;
    for (const auto& [port, edges] : ports) {
      if (port != next) {
        Add("port-contiguous", op, edges[0],
            OpRef(spec_, op) + ": " + side + " ports used are not contiguous "
                "from 0 (gap before " + side + " " + std::to_string(port) +
                "); the executor binds ports by position");
        break;
      }
      ++next;
    }
    if (declared >= 0 && static_cast<int>(ports.size()) != declared) {
      Add("port-contiguous", op, -1,
          OpRef(spec_, op) + ": declares " + std::to_string(declared) + " " +
              side + " port(s) but " + std::to_string(ports.size()) +
              " are connected" +
              (static_cast<int>(ports.size()) < declared
                   ? " (dangling " + std::string(side) + " port)"
                   : ""));
    }
  }

  void CheckAcyclicAndConnected() {
    // Kahn's algorithm over valid edges; leftovers have a cycle.
    std::vector<std::vector<int>> succ(num_ops_);
    std::vector<int> indegree(num_ops_, 0);
    std::vector<bool> touched(num_ops_, false);
    for (const ConnectorSpec& c : spec_.connectors()) {
      if (!EdgeEndpointsValid(c)) continue;
      succ[c.src_op].push_back(c.dst_op);
      ++indegree[c.dst_op];
      touched[c.src_op] = touched[c.dst_op] = true;
    }
    std::queue<int> ready;
    for (int i = 0; i < num_ops_; ++i) {
      if (indegree[i] == 0) ready.push(i);
    }
    while (!ready.empty()) {
      const int op = ready.front();
      ready.pop();
      topo_order_.push_back(op);
      for (int next : succ[op]) {
        if (--indegree[next] == 0) ready.push(next);
      }
    }
    if (static_cast<int>(topo_order_.size()) != num_ops_) {
      acyclic_ = false;
      // Walk successors among the leftover ops until one repeats.
      std::vector<bool> leftover(num_ops_, false);
      int start = -1;
      for (int i = 0; i < num_ops_; ++i) {
        if (indegree[i] > 0) {
          leftover[i] = true;
          if (start < 0) start = i;
        }
      }
      std::vector<int> path;
      std::vector<bool> on_path(num_ops_, false);
      int at = start;
      while (!on_path[at]) {
        on_path[at] = true;
        path.push_back(at);
        for (int next : succ[at]) {
          if (leftover[next]) {
            at = next;
            break;
          }
        }
      }
      std::string cycle;
      bool in_cycle = false;
      for (int op : path) {
        if (op == at) in_cycle = true;
        if (!in_cycle) continue;
        cycle += OpRef(spec_, op) + " -> ";
      }
      cycle += OpRef(spec_, at);
      Add("dag-acyclic", at, -1,
          "the connector graph has a cycle: " + cycle);
    }
    // Connectivity: in a multi-operator job, every operator must take part
    // in the dataflow (an untouched op is an orphan: either a dangling
    // producer or a sink nothing reaches).
    if (num_ops_ > 1) {
      for (int i = 0; i < num_ops_; ++i) {
        if (!touched[i]) {
          Add("graph-connected", i, -1,
              OpRef(spec_, i) +
                  ": not connected to the rest of the plan (no connector "
                  "touches it)");
        }
      }
    }
  }

  void PropagateProperties() {
    // delivered[op][input] = properties of the stream arriving at the port,
    // computed in topological order from declared source-output properties.
    const auto& conns = spec_.connectors();
    std::vector<std::map<int, StreamProperties>> delivered(num_ops_);
    std::vector<std::map<int, int>> via_edge(num_ops_);
    std::vector<int> order_of(num_ops_, 0);
    for (int i = 0; i < static_cast<int>(topo_order_.size()); ++i) {
      order_of[topo_order_[i]] = i;
    }
    std::vector<int> edge_order(conns.size());
    for (int ci = 0; ci < static_cast<int>(conns.size()); ++ci) {
      edge_order[ci] = ci;
    }
    std::sort(edge_order.begin(), edge_order.end(), [&](int a, int b) {
      return order_of[conns[a].src_op] < order_of[conns[b].src_op];
    });
    for (int ci : edge_order) {
      const ConnectorSpec& c = conns[ci];
      if (!EdgeEndpointsValid(c)) continue;
      const OperatorSignature src_sig =
          spec_.ops()[c.src_op].descriptor->signature();
      const StreamProperties provided = src_sig.output(c.src_output);
      if (c.kind == ConnectorKind::kMToNPartitionMerge &&
          provided.sorted != Sortedness::kSortedByKey) {
        Add("merge-sorted-input", -1, ci,
            EdgeRef(spec_, ci) +
                ": kMToNPartitionMerge merges sorted sender runs, but the "
                "source output declares " +
                SortednessName(provided.sorted) +
                " (declare Sortedness::kSortedByKey on the output, or use "
                "kMToNPartition)");
      }
      const int src_parts = spec_.ops()[c.src_op].num_partitions;
      delivered[c.dst_op][c.dst_input] = Delivered(c, src_parts, provided);
      via_edge[c.dst_op][c.dst_input] = ci;
    }
    for (int op = 0; op < num_ops_; ++op) {
      const OperatorSignature sig = spec_.ops()[op].descriptor->signature();
      for (int port = 0; port < static_cast<int>(sig.inputs.size()); ++port) {
        const StreamProperties required = sig.inputs[port];
        auto it = delivered[op].find(port);
        if (it == delivered[op].end()) continue;  // port rules report gaps
        if (!Satisfies(it->second, required)) {
          const int ci = via_edge[op][port];
          Add("input-requirements", op, ci,
              OpRef(spec_, op) + ": input " + std::to_string(port) +
                  " requires {" + SortednessName(required.sorted) + ", " +
                  PartitioningName(required.partitioned) + "} but " +
                  EdgeRef(spec_, ci) + " delivers {" +
                  SortednessName(it->second.sorted) + ", " +
                  PartitioningName(it->second.partitioned) + "}");
        }
      }
    }
  }

  void CheckBudget() {
    if (opts_.worker_ram_bytes == 0) return;
    // The engine is out-of-core: sort/group-by operators spill when their
    // byte-accounted budget fills, so an *oversubscribed* worker degrades
    // gracefully rather than failing. What cannot work is a single clone
    // whose declared working set — its budget plus the frames its merging
    // inputs pin (one read frame per sender run, held for the whole merge)
    // — exceeds the machine. That is a configuration error, caught here
    // before any task starts.
    std::vector<size_t> pinned_frames(num_ops_, 0);
    std::vector<int> pinned_via(num_ops_, -1);
    const auto& conns = spec_.connectors();
    for (int ci = 0; ci < static_cast<int>(conns.size()); ++ci) {
      const ConnectorSpec& c = conns[ci];
      if (!EdgeEndpointsValid(c)) continue;
      if (c.kind != ConnectorKind::kMToNPartitionMerge) continue;
      const size_t src_parts =
          static_cast<size_t>(spec_.ops()[c.src_op].num_partitions);
      pinned_frames[c.dst_op] += src_parts * opts_.frame_size;
      pinned_via[c.dst_op] = ci;
    }
    for (int i = 0; i < num_ops_; ++i) {
      const OperatorSignature sig = spec_.ops()[i].descriptor->signature();
      const size_t total = sig.memory_bytes + pinned_frames[i];
      if (total > opts_.worker_ram_bytes) {
        Add("budget-feasible", i, pinned_via[i],
            OpRef(spec_, i) + ": one clone needs " + std::to_string(total) +
                " bytes (" + std::to_string(sig.memory_bytes) +
                " declared working budget + " +
                std::to_string(pinned_frames[i]) +
                " merge-receive frames) but worker_ram_bytes is " +
                std::to_string(opts_.worker_ram_bytes) +
                "; shrink the declared budget or give the workers more RAM");
      }
    }
  }

  const JobSpec& spec_;
  const PlanVerifyOptions& opts_;
  const int num_ops_;
  PlanVerifyResult result_;
  std::vector<int> topo_order_;
  bool acyclic_ = true;
};

}  // namespace

PlanVerifyOptions PlanVerifyOptionsFrom(const ClusterConfig& config) {
  PlanVerifyOptions opts;
  opts.worker_ram_bytes = config.worker_ram_bytes;
  opts.frame_size = config.frame_size;
  return opts;
}

std::string PlanVerifyResult::Render(const std::string& job_name) const {
  if (violations.empty()) return "";
  std::ostringstream out;
  out << "plan verification failed for job '" << job_name << "': "
      << violations.size() << " error(s)";
  for (const PlanViolation& v : violations) {
    out << "\n  [" << v.rule << "] " << v.message;
  }
  return out.str();
}

PlanVerifyResult VerifyPlan(const JobSpec& spec,
                            const PlanVerifyOptions& opts) {
  return Verifier(spec, opts).Run();
}

Status VerifyPlanOrError(const JobSpec& spec, const PlanVerifyOptions& opts) {
  PlanVerifyResult result = VerifyPlan(spec, opts);
  if (result.ok()) return Status::OK();
  return Status::InvalidArgument(result.Render(spec.name()));
}

void CountVerification(MetricsRegistry* registry,
                       const PlanVerifyResult& result) {
  if (registry == nullptr) return;
  registry->GetCounter("pregelix.verifier.checks", {})->Increment();
  for (const PlanViolation& v : result.violations) {
    registry->GetCounter("pregelix.verifier.violations", {{"rule", v.rule}})
        ->Increment();
  }
}

}  // namespace pregelix
