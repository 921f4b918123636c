#include "dataflow/plan_profile.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <utility>

#include "common/json.h"
#include "common/logging.h"

namespace pregelix {

namespace {

std::string HumanBytes(uint64_t bytes) {
  char buf[32];
  if (bytes >= (uint64_t{1} << 30)) {
    snprintf(buf, sizeof(buf), "%.1f GB",
             static_cast<double>(bytes) / (uint64_t{1} << 30));
  } else if (bytes >= (uint64_t{1} << 20)) {
    snprintf(buf, sizeof(buf), "%.1f MB",
             static_cast<double>(bytes) / (uint64_t{1} << 20));
  } else if (bytes >= 1024) {
    snprintf(buf, sizeof(buf), "%.1f KB", static_cast<double>(bytes) / 1024);
  } else {
    snprintf(buf, sizeof(buf), "%llu B",
             static_cast<unsigned long long>(bytes));
  }
  return buf;
}

std::string HumanNs(uint64_t ns) {
  char buf[32];
  if (ns >= 1000000000ull) {
    snprintf(buf, sizeof(buf), "%.2f s", static_cast<double>(ns) / 1e9);
  } else if (ns >= 1000000ull) {
    snprintf(buf, sizeof(buf), "%.2f ms", static_cast<double>(ns) / 1e6);
  } else if (ns >= 1000ull) {
    snprintf(buf, sizeof(buf), "%.1f us", static_cast<double>(ns) / 1e3);
  } else {
    snprintf(buf, sizeof(buf), "%llu ns", static_cast<unsigned long long>(ns));
  }
  return buf;
}

}  // namespace

const char* ConnectorKindName(ConnectorKind kind) {
  switch (kind) {
    case ConnectorKind::kOneToOne:
      return "1:1";
    case ConnectorKind::kMToNPartition:
      return "m:n-partition";
    case ConnectorKind::kMToNPartitionMerge:
      return "m:n-partition-merge";
    case ConnectorKind::kMToOne:
      return "m:1";
  }
  return "?";
}

OperatorStats& OperatorStats::operator+=(const OperatorStats& o) {
  activations += o.activations;
  tuples_in += o.tuples_in;
  tuples_out += o.tuples_out;
  frames_in += o.frames_in;
  frames_out += o.frames_out;
  bytes_in += o.bytes_in;
  bytes_out += o.bytes_out;
  wall_ns += o.wall_ns;
  mem_hwm_bytes = std::max(mem_hwm_bytes, o.mem_hwm_bytes);
  spill_count += o.spill_count;
  spill_bytes += o.spill_bytes;
  return *this;
}

void PlanProfile::InitFromJob(
    const JobSpec& spec, const std::function<int(int)>& worker_of_partition) {
  job_name_ = spec.name();
  ops_.clear();
  edges_.clear();
  live_edges_.clear();

  ops_.reserve(spec.ops().size());
  for (size_t oi = 0; oi < spec.ops().size(); ++oi) {
    PlanOperatorProfile op;
    op.op = static_cast<int>(oi);
    op.name = spec.ops()[oi].descriptor->name();
    const int parts = spec.ops()[oi].num_partitions;
    op.partitions.resize(static_cast<size_t>(parts));
    for (int p = 0; p < parts; ++p) {
      op.partitions[static_cast<size_t>(p)].partition = p;
      op.partitions[static_cast<size_t>(p)].worker = worker_of_partition(p);
    }
    ops_.push_back(std::move(op));
  }

  edges_.reserve(spec.connectors().size());
  live_edges_.reserve(spec.connectors().size());
  for (const ConnectorSpec& c : spec.connectors()) {
    PlanEdgeProfile edge;
    edge.src_op = c.src_op;
    edge.dst_op = c.dst_op;
    edge.src_name = ops_[static_cast<size_t>(c.src_op)].name;
    edge.dst_name = ops_[static_cast<size_t>(c.dst_op)].name;
    edge.kind = c.kind;
    edges_.push_back(std::move(edge));
    live_edges_.push_back(std::make_unique<EdgeProfile>());
  }
}

void PlanProfile::Finalize(uint64_t job_wall_ns) {
  PREGELIX_CHECK(!finalized_) << "PlanProfile finalized twice";
  wall_ns_ = job_wall_ns;
  for (size_t ci = 0; ci < live_edges_.size(); ++ci) {
    const EdgeProfile& live = *live_edges_[ci];
    PlanEdgeProfile& edge = edges_[ci];
    edge.tuples_sent = live.tuples_sent.load(std::memory_order_relaxed);
    edge.tuples_recv = live.tuples_recv.load(std::memory_order_relaxed);
    edge.frames = live.frames.load(std::memory_order_relaxed);
    edge.bytes = live.bytes.load(std::memory_order_relaxed);
  }
  live_edges_.clear();
  finalized_ = true;
  ComputeDerived();
}

void PlanProfile::MergeFrom(const PlanProfile& other) {
  PREGELIX_CHECK(other.finalized_) << "merging a non-finalized PlanProfile";
  if (!finalized_) {
    // Empty accumulator adopting its first profile.
    job_name_ = other.job_name_;
    supersteps_merged_ = 0;
    wall_ns_ = 0;
    finalized_ = true;
  }
  for (const PlanOperatorProfile& theirs : other.ops_) {
    PlanOperatorProfile* mine = nullptr;
    for (PlanOperatorProfile& op : ops_) {
      if (op.name == theirs.name) {
        mine = &op;
        break;
      }
    }
    if (mine == nullptr) {
      PlanOperatorProfile copy = theirs;
      copy.op = static_cast<int>(ops_.size());
      ops_.push_back(std::move(copy));
      continue;
    }
    mine->label = mine->label.empty() ? theirs.label : mine->label;
    for (const PartitionStats& ps : theirs.partitions) {
      bool merged = false;
      for (PartitionStats& have : mine->partitions) {
        if (have.partition == ps.partition) {
          have.stats += ps.stats;
          merged = true;
          break;
        }
      }
      if (!merged) mine->partitions.push_back(ps);
    }
  }
  for (const PlanEdgeProfile& theirs : other.edges_) {
    PlanEdgeProfile* mine = nullptr;
    for (PlanEdgeProfile& edge : edges_) {
      if (edge.src_name == theirs.src_name &&
          edge.dst_name == theirs.dst_name && edge.kind == theirs.kind) {
        mine = &edge;
        break;
      }
    }
    if (mine == nullptr) {
      edges_.push_back(theirs);
      continue;
    }
    mine->tuples_sent += theirs.tuples_sent;
    mine->tuples_recv += theirs.tuples_recv;
    mine->frames += theirs.frames;
    mine->bytes += theirs.bytes;
  }
  // Re-anchor edge endpoints: merged-in operators may occupy new indexes.
  std::map<std::string, int> index_of;
  for (size_t i = 0; i < ops_.size(); ++i) {
    index_of.emplace(ops_[i].name, static_cast<int>(i));
    ops_[i].op = static_cast<int>(i);
  }
  for (PlanEdgeProfile& edge : edges_) {
    auto s = index_of.find(edge.src_name);
    auto d = index_of.find(edge.dst_name);
    edge.src_op = s == index_of.end() ? -1 : s->second;
    edge.dst_op = d == index_of.end() ? -1 : d->second;
  }
  wall_ns_ += other.wall_ns_;
  supersteps_merged_ += other.supersteps_merged_;
  ComputeDerived();
}

void PlanProfile::AttachLabels(
    const std::function<std::string(const std::string&)>& label) {
  for (PlanOperatorProfile& op : ops_) {
    std::string l = label(op.name);
    if (!l.empty()) op.label = std::move(l);
  }
}

void PlanProfile::ComputeDerived() {
  // Per-operator rollup and wall spread.
  std::map<int, uint64_t> worker_wall;
  for (PlanOperatorProfile& op : ops_) {
    op.total = OperatorStats{};
    std::vector<uint64_t> walls;
    walls.reserve(op.partitions.size());
    for (const PartitionStats& ps : op.partitions) {
      op.total += ps.stats;
      walls.push_back(ps.stats.wall_ns);
      worker_wall[ps.worker] += ps.stats.wall_ns;
    }
    if (walls.empty()) {
      op.min_wall_ns = op.median_wall_ns = op.max_wall_ns = 0;
      op.skew = 1.0;
      continue;
    }
    std::sort(walls.begin(), walls.end());
    op.min_wall_ns = walls.front();
    op.max_wall_ns = walls.back();
    op.median_wall_ns = walls[walls.size() / 2];
    op.skew = op.median_wall_ns == 0
                  ? 1.0
                  : static_cast<double>(op.max_wall_ns) /
                        static_cast<double>(op.median_wall_ns);
  }

  // Slowest worker: the one whose task clones accumulated the most wall
  // time (ties break toward the smaller id — std::map iterates in order).
  slowest_worker_ = -1;
  uint64_t slowest_wall = 0;
  for (const auto& [worker, wall] : worker_wall) {
    if (slowest_worker_ < 0 || wall > slowest_wall) {
      slowest_worker_ = worker;
      slowest_wall = wall;
    }
  }

  // Critical path: the heaviest operator chain through the DAG, costed by
  // each operator's wall time on the slowest worker (the chain a perfectly
  // parallel run still waits for).
  const size_t n = ops_.size();
  std::vector<uint64_t> cost(n, 0);
  for (size_t i = 0; i < n; ++i) {
    for (const PartitionStats& ps : ops_[i].partitions) {
      if (ps.worker == slowest_worker_) cost[i] += ps.stats.wall_ns;
    }
    ops_[i].on_critical_path = false;
  }
  std::vector<std::vector<int>> out_edges(n);
  std::vector<int> indegree(n, 0);
  for (const PlanEdgeProfile& edge : edges_) {
    if (edge.src_op < 0 || edge.dst_op < 0) continue;
    out_edges[static_cast<size_t>(edge.src_op)].push_back(edge.dst_op);
    ++indegree[static_cast<size_t>(edge.dst_op)];
  }
  // Kahn topological order (plan DAGs are acyclic by construction; any
  // cycle just drops out of the path computation).
  std::vector<int> order;
  order.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (indegree[i] == 0) order.push_back(static_cast<int>(i));
  }
  for (size_t head = 0; head < order.size(); ++head) {
    for (int next : out_edges[static_cast<size_t>(order[head])]) {
      if (--indegree[static_cast<size_t>(next)] == 0) order.push_back(next);
    }
  }
  std::vector<uint64_t> best(n, 0);
  std::vector<int> pred(n, -1);
  int end = -1;
  uint64_t end_best = 0;
  for (int i : order) {
    const size_t si = static_cast<size_t>(i);
    best[si] += cost[si];
    for (int next : out_edges[si]) {
      const size_t sn = static_cast<size_t>(next);
      if (best[si] > best[sn]) {
        best[sn] = best[si];
        pred[sn] = i;
      }
    }
    if (end < 0 || best[si] > end_best) {
      end = i;
      end_best = best[si];
    }
  }
  critical_path_.clear();
  critical_path_wall_ns_ = end < 0 ? 0 : end_best;
  for (int at = end; at >= 0; at = pred[static_cast<size_t>(at)]) {
    critical_path_.push_back(at);
    ops_[static_cast<size_t>(at)].on_critical_path = true;
  }
  std::reverse(critical_path_.begin(), critical_path_.end());
}

std::string PlanProfile::CriticalPathString() const {
  std::string out;
  for (int i : critical_path_) {
    if (!out.empty()) out += " -> ";
    out += ops_[static_cast<size_t>(i)].name;
  }
  return out;
}

uint64_t PlanProfile::TotalShuffleBytes() const {
  uint64_t total = 0;
  for (const PlanEdgeProfile& edge : edges_) total += edge.bytes;
  return total;
}

uint64_t PlanProfile::TotalSpillCount() const {
  uint64_t total = 0;
  for (const PlanOperatorProfile& op : ops_) total += op.total.spill_count;
  return total;
}

uint64_t PlanProfile::TotalSpillBytes() const {
  uint64_t total = 0;
  for (const PlanOperatorProfile& op : ops_) total += op.total.spill_bytes;
  return total;
}

std::vector<int> PlanProfile::TopByWall(int k) const {
  std::vector<int> idx(ops_.size());
  for (size_t i = 0; i < ops_.size(); ++i) idx[i] = static_cast<int>(i);
  std::stable_sort(idx.begin(), idx.end(), [this](int a, int b) {
    return ops_[static_cast<size_t>(a)].total.wall_ns >
           ops_[static_cast<size_t>(b)].total.wall_ns;
  });
  if (static_cast<int>(idx.size()) > k) idx.resize(static_cast<size_t>(k));
  return idx;
}

void PlanProfile::RenderTree(std::ostream& os) const {
  os << "plan " << job_name_;
  if (supersteps_merged_ > 1) {
    os << "  (cumulative over " << supersteps_merged_ << " supersteps)";
  }
  os << "\n  wall " << HumanNs(wall_ns_);
  if (slowest_worker_ >= 0) os << ", slowest worker " << slowest_worker_;
  if (!critical_path_.empty()) {
    os << "\n  critical path [" << HumanNs(critical_path_wall_ns_)
       << "]: " << CriticalPathString();
  }
  os << "\n";

  const size_t n = ops_.size();
  std::vector<std::vector<size_t>> children(n);
  std::vector<int> indegree(n, 0);
  for (size_t ci = 0; ci < edges_.size(); ++ci) {
    const PlanEdgeProfile& edge = edges_[ci];
    if (edge.src_op < 0 || edge.dst_op < 0) continue;
    children[static_cast<size_t>(edge.src_op)].push_back(ci);
    ++indegree[static_cast<size_t>(edge.dst_op)];
  }

  std::vector<bool> printed(n, false);
  auto print_op = [&](size_t i, const std::string& prefix) {
    const PlanOperatorProfile& op = ops_[i];
    os << op.name;
    if (op.on_critical_path) os << " *";
    if (!op.label.empty()) os << "  — " << op.label;
    os << "\n";
    const OperatorStats& t = op.total;
    os << prefix << "    act " << t.activations << " · in " << t.tuples_in
       << " t / " << t.frames_in << " fr / " << HumanBytes(t.bytes_in)
       << " · out " << t.tuples_out << " t / " << t.frames_out << " fr / "
       << HumanBytes(t.bytes_out) << "\n";
    char skew[32];
    snprintf(skew, sizeof(skew), "%.2f", op.skew);
    os << prefix << "    wall " << HumanNs(t.wall_ns) << " (min "
       << HumanNs(op.min_wall_ns) << " / med " << HumanNs(op.median_wall_ns)
       << " / max " << HumanNs(op.max_wall_ns) << " · skew " << skew
       << "x) · mem hwm " << HumanBytes(t.mem_hwm_bytes) << " · spills "
       << t.spill_count;
    if (t.spill_count > 0) os << " (" << HumanBytes(t.spill_bytes) << ")";
    os << "\n";
  };

  std::function<void(size_t, const std::string&)> walk =
      [&](size_t i, const std::string& prefix) {
        printed[i] = true;
        const std::vector<size_t>& kids = children[i];
        for (size_t k = 0; k < kids.size(); ++k) {
          const PlanEdgeProfile& edge = edges_[kids[k]];
          const bool last = k + 1 == kids.size();
          const size_t dst = static_cast<size_t>(edge.dst_op);
          os << prefix << (last ? "└─" : "├─") << "["
             << ConnectorKindName(edge.kind) << " · " << edge.tuples_sent
             << " t · " << edge.frames << " fr · " << HumanBytes(edge.bytes)
             << "]→ ";
          const std::string child_prefix = prefix + (last ? "  " : "│ ");
          if (printed[dst]) {
            os << ops_[dst].name << " (shown above)\n";
            continue;
          }
          print_op(dst, child_prefix);
          walk(dst, child_prefix);
        }
      };

  for (size_t i = 0; i < n; ++i) {
    if (indegree[i] != 0 || printed[i]) continue;
    print_op(i, "");
    walk(i, "");
  }
  // Disconnected leftovers (cycles cannot happen in our plans, but stay
  // total anyway).
  for (size_t i = 0; i < n; ++i) {
    if (printed[i] || indegree[i] == 0) continue;
    print_op(i, "");
    walk(i, "");
  }
}

void PlanProfile::WriteJson(std::ostream& os, bool include_timing) const {
  os << "{\"job\":\"";
  AppendJsonEscaped(os, job_name_);
  os << "\",\"supersteps_merged\":" << supersteps_merged_;
  if (include_timing) {
    os << ",\"wall_ns\":" << wall_ns_
       << ",\"slowest_worker\":" << slowest_worker_
       << ",\"critical_path_wall_ns\":" << critical_path_wall_ns_
       << ",\"critical_path\":[";
    for (size_t i = 0; i < critical_path_.size(); ++i) {
      if (i > 0) os << ",";
      os << "\"";
      AppendJsonEscaped(os, ops_[static_cast<size_t>(critical_path_[i])].name);
      os << "\"";
    }
    os << "]";
  }
  os << ",\"operators\":[";
  for (size_t i = 0; i < ops_.size(); ++i) {
    const PlanOperatorProfile& op = ops_[i];
    if (i > 0) os << ",";
    os << "{\"name\":\"";
    AppendJsonEscaped(os, op.name);
    os << "\",\"label\":\"";
    AppendJsonEscaped(os, op.label);
    os << "\"";
    auto stats_json = [&](const OperatorStats& s) {
      os << "\"activations\":" << s.activations
         << ",\"tuples_in\":" << s.tuples_in
         << ",\"tuples_out\":" << s.tuples_out
         << ",\"frames_in\":" << s.frames_in
         << ",\"frames_out\":" << s.frames_out
         << ",\"bytes_in\":" << s.bytes_in << ",\"bytes_out\":" << s.bytes_out
         << ",\"mem_hwm_bytes\":" << s.mem_hwm_bytes
         << ",\"spill_count\":" << s.spill_count
         << ",\"spill_bytes\":" << s.spill_bytes;
      if (include_timing) os << ",\"wall_ns\":" << s.wall_ns;
    };
    os << ",";
    stats_json(op.total);
    if (include_timing) {
      char skew[32];
      snprintf(skew, sizeof(skew), "%.3f", op.skew);
      os << ",\"min_wall_ns\":" << op.min_wall_ns
         << ",\"median_wall_ns\":" << op.median_wall_ns
         << ",\"max_wall_ns\":" << op.max_wall_ns << ",\"skew\":" << skew
         << ",\"on_critical_path\":"
         << (op.on_critical_path ? "true" : "false");
    }
    os << ",\"partitions\":[";
    for (size_t p = 0; p < op.partitions.size(); ++p) {
      const PartitionStats& ps = op.partitions[p];
      if (p > 0) os << ",";
      os << "{\"partition\":" << ps.partition << ",\"worker\":" << ps.worker
         << ",";
      stats_json(ps.stats);
      os << "}";
    }
    os << "]}";
  }
  os << "],\"connectors\":[";
  for (size_t i = 0; i < edges_.size(); ++i) {
    const PlanEdgeProfile& edge = edges_[i];
    if (i > 0) os << ",";
    os << "{\"src\":\"";
    AppendJsonEscaped(os, edge.src_name);
    os << "\",\"dst\":\"";
    AppendJsonEscaped(os, edge.dst_name);
    os << "\",\"kind\":\"" << ConnectorKindName(edge.kind)
       << "\",\"tuples_sent\":" << edge.tuples_sent
       << ",\"tuples_recv\":" << edge.tuples_recv
       << ",\"frames\":" << edge.frames << ",\"bytes\":" << edge.bytes << "}";
  }
  os << "]}";
}

}  // namespace pregelix
