#include "baselines/process_centric.h"

#include <algorithm>

#include "baselines/memory_meter.h"
#include "common/hash.h"
#include "common/logging.h"
#include "graph/text_io.h"
#include "pregel/vertex_format.h"

namespace pregelix {

namespace {

/// Per-entry overhead of a message-store slot (hash bucket + object refs).
constexpr uint64_t kMsgEntryOverhead = 16;

/// Logical bytes of the edge portion of a vertex record (for replication
/// accounting).
uint64_t EdgePortion(const Slice& record) {
  VertexRecordView view;
  if (!view.Parse(record).ok()) return 0;
  const uint64_t non_edge = 1 + 4 + view.value.size() + 4;
  return record.size() > non_edge ? record.size() - non_edge : 0;
}

}  // namespace

struct ProcessCentricEngine::Worker {
  explicit Worker(size_t budget, double overhead)
      : meter(budget, overhead) {}

  std::unordered_map<int64_t, std::string> vertices;
  uint64_t vertex_bytes = 0;  ///< logical resident vertex store size
  uint64_t edge_bytes = 0;    ///< edge share, for mirror replication
  std::unordered_map<int64_t, std::string> inbox;       ///< superstep input
  uint64_t inbox_bytes = 0;
  std::unordered_map<int64_t, std::string> next_inbox;  ///< being produced
  uint64_t next_inbox_bytes = 0;
  MemoryMeter meter;
  WorkerMetrics metrics;
};

ProcessCentricEngine::ProcessCentricEngine(Options options, int num_workers,
                                           size_t worker_ram_bytes,
                                           CostModelParams cost_params)
    : options_(std::move(options)),
      num_workers_(num_workers),
      worker_ram_bytes_(worker_ram_bytes),
      cost_params_(cost_params) {}

Status ProcessCentricEngine::Run(
    const DistributedFileSystem& dfs, const std::string& input_dir,
    PregelProgram* program, int max_supersteps, Result* result,
    std::unordered_map<int64_t, std::string>* values_out) {
  *result = Result();
  std::vector<std::unique_ptr<Worker>> workers;
  workers.reserve(num_workers_);
  for (int w = 0; w < num_workers_; ++w) {
    workers.push_back(std::make_unique<Worker>(worker_ram_bytes_,
                                               options_.overhead_factor));
  }
  auto worker_of = [&](int64_t vid) {
    return static_cast<int>(HashVid(vid) %
                            static_cast<uint64_t>(num_workers_));
  };
  auto snapshot_all = [&]() {
    std::vector<MetricsSnapshot> snaps;
    snaps.reserve(workers.size());
    for (auto& w : workers) snaps.push_back(w->metrics.Snapshot());
    return snaps;
  };
  auto delta = [](const std::vector<MetricsSnapshot>& a,
                  const std::vector<MetricsSnapshot>& b) {
    std::vector<MetricsSnapshot> d(a.size());
    for (size_t i = 0; i < a.size(); ++i) d[i] = b[i] - a[i];
    return d;
  };
  auto fail = [&](const std::string& stage, const Status& s) {
    result->succeeded = false;
    result->failure = options_.name + " failed during " + stage + ": " +
                      s.ToString();
    for (auto& w : workers) {
      result->peak_worker_bytes =
          std::max(result->peak_worker_bytes, w->meter.peak_bytes());
    }
    return Status::OK();  // a failed baseline run is a data point
  };

  // --- Load -----------------------------------------------------------------
  {
    const std::vector<MetricsSnapshot> before = snapshot_all();
    std::string record;
    Status load_status = ScanGraphDir(
        dfs, input_dir,
        [&](int64_t vid, const std::vector<int64_t>& dests) -> Status {
          PREGELIX_RETURN_NOT_OK(program->InitialVertex(vid, dests, &record));
          Worker& w = *workers[worker_of(vid)];
          w.metrics.AddDiskRead(10 + 8 * dests.size());  // text input
          w.metrics.AddCpuOps(1);
          // Loader working set: resident copy x load_skew (triplet
          // construction, partition skew) + extra immutable copies.
          const double load_factor =
              options_.load_skew + options_.extra_copies;
          PREGELIX_RETURN_NOT_OK(w.meter.Charge(
              static_cast<uint64_t>(record.size() * load_factor), "load"));
          if (options_.edge_replication > 1.0) {
            const uint64_t edge_part = EdgePortion(Slice(record));
            PREGELIX_RETURN_NOT_OK(w.meter.Charge(
                static_cast<uint64_t>(edge_part *
                                      (options_.edge_replication - 1.0)),
                "mirror replication"));
            w.edge_bytes += edge_part;
          }
          w.vertex_bytes += record.size();
          w.vertices.emplace(vid, record);
          return Status::OK();
        });
    if (!load_status.ok()) {
      if (load_status.IsOutOfMemory()) return fail("load", load_status);
      return load_status;
    }
    // Transient loader overhead is released after loading; the steady-state
    // store (plus mirrors) stays.
    for (auto& w : workers) {
      const double transient = options_.load_skew + options_.extra_copies - 1.0;
      if (transient > 0) {
        w->meter.Release(
            static_cast<uint64_t>(w->vertex_bytes * transient));
      }
      if (options_.vertices_on_disk || options_.spill_vertices) {
        // Vertex data itself lives on disk; only the processing buffer /
        // metadata fraction stays resident.
        const double resident = options_.vertices_on_disk
                                    ? options_.disk_resident_fraction
                                    : options_.resident_metadata_fraction;
        w->meter.Release(static_cast<uint64_t>(w->vertex_bytes *
                                               (1.0 - resident)));
        w->metrics.AddDiskWrite(w->vertex_bytes);
      }
    }
    result->load_sim_seconds =
        SimulatedStepSeconds(delta(before, snapshot_all()), cost_params_);
  }

  // --- Global state ---------------------------------------------------------
  GlobalAggHooks agg_hooks = program->GlobalAggregator();
  std::string global_aggregate = agg_hooks.initial;
  int64_t num_vertices = 0;
  int64_t num_edges = 0;
  for (auto& w : workers) {
    num_vertices += static_cast<int64_t>(w->vertices.size());
    for (auto& [vid, record] : w->vertices) {
      num_edges += VertexEdgeCount(Slice(record));
    }
  }
  const GroupCombiner combiner = program->MsgCombiner();

  // --- Superstep loop ---------------------------------------------------------
  ComputeInput input;
  ComputeOutput output;
  CollectingSink sent;
  output.sink = &sent;
  for (int64_t superstep = 1;
       max_supersteps == 0 || superstep <= max_supersteps; ++superstep) {
    const std::vector<MetricsSnapshot> before = snapshot_all();
    bool halt_and = true;
    uint64_t messages_sent = 0;
    std::string next_aggregate = agg_hooks.initial;

    // Delivers one message into its destination's next inbox with eager
    // combining; returns OutOfMemory when the store bursts the budget.
    auto deliver = [&](int wi, Worker& w, int64_t dst,
                       const std::string& payload) -> Status {
      ++messages_sent;
      Worker& dest = *workers[worker_of(dst)];
      if (worker_of(dst) != wi || !options_.sender_combining) {
        w.metrics.AddNet(payload.size() + 8);
      }
      auto it = dest.next_inbox.find(dst);
      uint64_t delta_bytes = 0;
      if (it == dest.next_inbox.end()) {
        std::string acc;
        combiner.init(Slice(payload), &acc);
        delta_bytes = acc.size() + kMsgEntryOverhead;
        dest.next_inbox.emplace(dst, std::move(acc));
      } else {
        const size_t old_size = it->second.size();
        combiner.step(Slice(payload), &it->second);
        delta_bytes =
            it->second.size() > old_size ? it->second.size() - old_size : 0;
      }
      dest.next_inbox_bytes += delta_bytes;
      dest.metrics.AddCpuOps(1);
      return dest.meter.Charge(
          static_cast<uint64_t>(delta_bytes * options_.message_overhead),
          "message store");
    };

    for (int wi = 0; wi < num_workers_; ++wi) {
      Worker& w = *workers[wi];
      // Managed-runtime pressure: the fuller the heap, the more the
      // collector steals from the mutator. This is what makes the
      // process-centric systems "perform super-linearly worse when the
      // volume of data assigned to a slave machine increases" (paper
      // Section 7.3) and gives them steeper size-scaling curves than
      // Pregelix in Figures 10-11.
      const double heap_fill =
          static_cast<double>(w.meter.used_bytes()) /
          static_cast<double>(w.meter.budget_bytes());
      const double pressure = 1.0 + 2.0 * heap_fill * heap_fill;
      const double tuple_cost = options_.cpu_ops_per_tuple * pressure;
      // GraphX: each superstep materializes new immutable vertex/edge RDDs
      // before the old ones are released.
      if (options_.extra_copies > 0) {
        Status s = w.meter.Charge(
            static_cast<uint64_t>(w.vertex_bytes * options_.extra_copies),
            "immutable dataset copy");
        if (!s.ok()) return fail("superstep (rdd copy)", s);
      }
      // Hama / Giraph-ooc: the whole vertex store streams through disk
      // every superstep.
      if (options_.vertices_on_disk || options_.spill_vertices) {
        w.metrics.AddDiskRead(w.vertex_bytes);
        w.metrics.AddDiskWrite(w.vertex_bytes);
      }

      // The process-centric scan: every vertex in the partition is visited;
      // halted vertices without messages are skipped cheaply but still cost
      // the iteration (no live-vertex index — paper Section 2.3).
      for (auto& [vid, record] : w.vertices) {
        auto inbox_it = w.inbox.find(vid);
        const bool has_msg = inbox_it != w.inbox.end();
        if (VertexHalt(Slice(record)) && !has_msg) {
          // Even skipped vertices cost the object-graph iteration.
          w.metrics.AddCpuOps(static_cast<uint64_t>(tuple_cost));
          continue;
        }
        input.vid = vid;
        input.vertex_exists = true;
        input.vertex_bytes = Slice(record);
        input.has_messages = has_msg;
        input.message_payload = has_msg ? Slice(inbox_it->second) : Slice();
        input.superstep = superstep;
        input.global_aggregate = Slice(global_aggregate);
        input.num_vertices = num_vertices;
        input.num_edges = num_edges;
        output.Clear();
        sent.messages.clear();
        PREGELIX_RETURN_NOT_OK(program->Compute(input, &output));
        if (!output.mutations.empty()) {
          return Status::NotSupported(
              options_.name + ": graph mutations are not supported by the "
                              "baseline engines");
        }
        w.metrics.AddCpuOps(
            static_cast<uint64_t>(tuple_cost * (2 + sent.messages.size())));

        // Vertex update in place.
        std::string new_record;
        if (output.vertex_dirty) {
          new_record = output.vertex_bytes;
        } else if (VertexHalt(Slice(record)) != output.voted_halt) {
          new_record = record;
          SetVertexHalt(&new_record, output.voted_halt);
        }
        if (!new_record.empty()) {
          if (new_record.size() > record.size()) {
            Status s = w.meter.Charge(new_record.size() - record.size(),
                                      "vertex growth");
            if (!s.ok()) return fail("superstep (vertex growth)", s);
          } else {
            w.meter.Release(record.size() - new_record.size());
          }
          w.vertex_bytes += new_record.size();
          w.vertex_bytes -= record.size();
          record = std::move(new_record);
        }

        halt_and = halt_and && output.voted_halt && sent.messages.empty();
        if (agg_hooks.valid() && output.has_aggregate) {
          agg_hooks.step(Slice(output.aggregate_contribution),
                         &next_aggregate);
        }

        // Deliver messages into the destination workers' next inboxes.
        for (const auto& [dst, payload] : sent.messages) {
          Status s = deliver(wi, w, dst, payload);
          if (!s.ok()) return fail("superstep (message store)", s);
        }
        // Consumed messages are freed as compute proceeds (the message
        // store drains while the next one fills).
        if (has_msg) {
          const uint64_t entry = inbox_it->second.size() + kMsgEntryOverhead;
          w.meter.Release(static_cast<uint64_t>(
              entry * options_.message_overhead));
          w.inbox_bytes = entry > w.inbox_bytes ? 0 : w.inbox_bytes - entry;
        }
      }
      // Messages to vertices that do not exist create them (receiver side).
      for (auto& [dst, payload] : w.inbox) {
        if (w.vertices.count(dst) > 0) continue;
        input.vid = dst;
        input.vertex_exists = false;
        input.vertex_bytes = Slice();
        input.has_messages = true;
        input.message_payload = Slice(payload);
        input.superstep = superstep;
        input.global_aggregate = Slice(global_aggregate);
        input.num_vertices = num_vertices;
        input.num_edges = num_edges;
        output.Clear();
        sent.messages.clear();
        PREGELIX_RETURN_NOT_OK(program->Compute(input, &output));
        if (output.vertex_dirty) {
          Status s = w.meter.Charge(output.vertex_bytes.size(),
                                    "vertex creation");
          if (!s.ok()) return fail("superstep (vertex creation)", s);
          w.vertex_bytes += output.vertex_bytes.size();
          w.vertices.emplace(dst, output.vertex_bytes);
          ++num_vertices;
        }
        halt_and = halt_and && output.voted_halt && sent.messages.empty();
        for (const auto& [mdst, payload] : sent.messages) {
          Status s = deliver(wi, w, mdst, payload);
          if (!s.ok()) return fail("superstep (message store)", s);
        }
      }
      if (options_.extra_copies > 0) {
        w.meter.Release(
            static_cast<uint64_t>(w.vertex_bytes * options_.extra_copies));
      }
    }

    // Barrier: consume inboxes, install next inboxes.
    for (auto& w : workers) {
      w->meter.Release(static_cast<uint64_t>(w->inbox_bytes *
                                             options_.message_overhead));
      w->inbox = std::move(w->next_inbox);
      w->inbox_bytes = w->next_inbox_bytes;
      w->next_inbox.clear();
      w->next_inbox_bytes = 0;
    }
    if (agg_hooks.valid()) {
      std::string finished = next_aggregate;
      if (agg_hooks.finish) agg_hooks.finish(&finished);
      global_aggregate = finished;
    }

    result->supersteps = superstep;
    result->supersteps_sim_seconds +=
        SimulatedStepSeconds(delta(before, snapshot_all()), cost_params_);

    if (halt_and && messages_sent == 0) break;
  }

  result->succeeded = true;
  result->final_aggregate = global_aggregate;
  if (values_out != nullptr) {
    values_out->clear();
    std::string line;
    for (auto& w : workers) {
      for (auto& [vid, record] : w->vertices) {
        PREGELIX_RETURN_NOT_OK(
            program->FormatVertex(vid, Slice(record), &line));
        // FormatVertex prefixes "<vid> "; keep just the value text.
        const size_t space = line.find(' ');
        (*values_out)[vid] =
            space == std::string::npos ? line : line.substr(space + 1);
      }
    }
  }
  result->avg_iteration_sim_seconds =
      result->supersteps == 0
          ? 0
          : result->supersteps_sim_seconds /
                static_cast<double>(result->supersteps);
  result->total_sim_seconds =
      result->load_sim_seconds + result->supersteps_sim_seconds;
  for (auto& w : workers) {
    result->peak_worker_bytes =
        std::max(result->peak_worker_bytes, w->meter.peak_bytes());
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// System configurations (constants documented in DESIGN.md Section 5)

ProcessCentricEngine::Options GiraphMemOptions() {
  ProcessCentricEngine::Options o;
  o.name = "Giraph-mem";
  o.overhead_factor = 2.5;
  o.cpu_ops_per_tuple = 3.0;  // JVM object iteration per vertex/message
  return o;
}

ProcessCentricEngine::Options GiraphOocOptions() {
  ProcessCentricEngine::Options o;
  o.name = "Giraph-ooc";
  o.overhead_factor = 2.5;
  o.spill_vertices = true;
  o.resident_metadata_fraction = 0.35;
  o.cpu_ops_per_tuple = 3.4;  // JVM iteration + spill bookkeeping
  return o;
}

ProcessCentricEngine::Options HamaOptions() {
  ProcessCentricEngine::Options o;
  o.name = "Hama";
  o.overhead_factor = 5.0;  // notoriously heavy BSP framework objects
  o.vertices_on_disk = true;
  o.disk_resident_fraction = 0.75;  // "limited" ooc: most data stays hot
  o.message_overhead = 3.0;  // memory-resident message objects
  o.cpu_ops_per_tuple = 4.5;
  return o;
}

ProcessCentricEngine::Options GraphLabOptions() {
  ProcessCentricEngine::Options o;
  o.name = "GraphLab";
  o.overhead_factor = 2.0;
  o.edge_replication = 2.8;   // vertex mirrors across machines
  o.cpu_ops_per_tuple = 0.25;  // lean C++ engine: fastest when data fits
  return o;
}

ProcessCentricEngine::Options GraphXOptions() {
  ProcessCentricEngine::Options o;
  o.name = "GraphX";
  o.overhead_factor = 2.0;
  o.extra_copies = 1.0;  // immutable RDDs: old + new generation coexist
  o.load_skew = 5.5;     // triplet construction + partition skew at load
  o.sender_combining = false;
  o.cpu_ops_per_tuple = 3.2;
  return o;
}

}  // namespace pregelix
