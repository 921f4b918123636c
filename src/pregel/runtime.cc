#include "pregel/runtime.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <limits>
#include <sstream>

#include "common/event_journal.h"
#include "common/fault_injection.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/retry.h"
#include "common/serde.h"
#include "common/temp_dir.h"
#include "common/time_ledger.h"
#include "common/trace.h"
#include "dataflow/executor.h"
#include "io/file.h"
#include "pregel/plans.h"
#include "pregel/vertex_format.h"
#include "pregel/watchdog.h"
#include "server/job_registry.h"
#include "storage/btree.h"
#include "storage/lsm_btree.h"

namespace pregelix {

namespace {

std::atomic<uint64_t> g_job_counter{0};

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<MetricsSnapshot> Delta(const std::vector<MetricsSnapshot>& before,
                                   const std::vector<MetricsSnapshot>& after) {
  std::vector<MetricsSnapshot> out(before.size());
  for (size_t i = 0; i < before.size(); ++i) {
    out[i] = after[i] - before[i];
  }
  return out;
}

MetricsSnapshot Sum(const std::vector<MetricsSnapshot>& deltas) {
  MetricsSnapshot total;
  for (const MetricsSnapshot& d : deltas) total += d;
  return total;
}

/// Compact "category=ns;..." rendering of a per-superstep ledger delta for
/// the superstep.end journal event; empty when every bucket is zero.
std::string LedgerDeltaString(
    const std::array<int64_t, kNumTimeCategories>& delta) {
  std::string out;
  for (int c = 0; c < kNumTimeCategories; ++c) {
    if (delta[c] == 0) continue;
    if (!out.empty()) out += ";";
    out += kTimeCategoryNames[c];
    out += "=";
    out += std::to_string(delta[c]);
  }
  return out;
}

std::string GsPath(const JobRuntimeContext& ctx) {
  return "jobs/" + ctx.job_id + "/gs";
}

/// Writes the GS tuple to the DFS, retrying transient faults. This is the
/// primary copy (paper Section 5.7); losing it silently would orphan the
/// job, so it gets its own fault point and retry budget. It is overwritten
/// in place: recovery never reads it, only the checkpoint's own `gs`,
/// which the MANIFEST checksums.
Status WriteGs(DistributedFileSystem* dfs, const JobRuntimeContext& ctx,
               const GlobalState& gs) {
  return RetryTransient("gs.write", [&]() -> Status {
    PREGELIX_RETURN_NOT_OK(fault::MaybeFail("pregel.gs.write"));
    return dfs->Overwrite(GsPath(ctx), gs.Encode());
  });
}

/// Publishes a job's start/finish to the observability registries (the
/// live status table and the event journal). Both sinks are process-global,
/// bounded, and lock-free when idle-ish, so every job publishes
/// unconditionally — `pregelix serve` / --admin-port then has live data
/// without any per-job opt-in.
void PublishJobStart(const JobRuntimeContext& ctx, const std::string& name) {
  server::JobStatusRegistry::Global().OnJobStart(ctx.job_id, name);
  EventJournal::Global().Append("job.start", ctx.job_id, -1,
                                {{"name", name}});
}

void PublishJobFinish(const JobRuntimeContext& ctx, const Status& s) {
  server::JobStatusRegistry::Global().OnJobFinish(ctx.job_id, s.ok(),
                                                  s.ToString());
  EventJournal::Global().Append(
      "job.finish", ctx.job_id, -1,
      {{"ok", s.ok() ? "true" : "false"},
       {"status", s.ok() ? "OK" : s.ToString()}});
}

}  // namespace

PregelixRuntime::PregelixRuntime(SimulatedCluster* cluster,
                                 DistributedFileSystem* dfs,
                                 CostModelParams cost_params)
    : cluster_(cluster), dfs_(dfs), cost_params_(cost_params) {}

Status PregelixRuntime::Run(PregelProgram* program,
                            const PregelixJobConfig& config,
                            JobResult* result) {
  JobRuntimeContext ctx;
  ctx.program = program;
  ctx.job_config = &config;
  ctx.cluster = cluster_;
  ctx.dfs = dfs_;
  ctx.job_id =
      config.job_id.empty()
          ? config.name + "-" + std::to_string(g_job_counter.fetch_add(1))
          : config.job_id;
  ctx.partitions.resize(cluster_->num_partitions());
  PublishJobStart(ctx, config.name);
  // Time ledger (DESIGN.md §20): the driver thread is attributed for the
  // whole job. Attach can refuse (already attached by an enclosing job or
  // the ledger is disabled); only a successful attach detaches.
  const bool ledger_attached = TimeLedger::AttachCurrentThread(
      TimeLedger::kDriverWorker, TimeCategory::kCompute, "driver");
  Status s = RunInternal(program, config, &ctx, /*do_load=*/true,
                         /*do_dump=*/!config.output_dir.empty(), result);
  if (ledger_attached) TimeLedger::DetachCurrentThread();
  PublishJobFinish(ctx, s);
  // A failed job keeps its DFS state (GS + checkpoints): with a stable
  // job_id, a later Run with resume=true picks up from the newest valid
  // checkpoint instead of re-running lost supersteps from the input.
  Cleanup(&ctx, /*keep_dfs=*/!s.ok() && !config.job_id.empty());
  return s;
}

Status PregelixRuntime::RunInternal(PregelProgram* program,
                                    const PregelixJobConfig& config,
                                    JobRuntimeContext* ctx, bool do_load,
                                    bool do_dump, JobResult* result) {
  const double wall_start = WallSeconds();
  result->superstep_stats.clear();
  result->recoveries = 0;
  result->plan_profile.reset();
  result->plan_decisions.clear();

  // Plan chooser setup. Storage resolves once at admission (the indexes are
  // built at load and never rebuilt mid-job); the join and the connector
  // get a feedback-driven PlanOptimizer iff either of them is kAuto (a
  // kAuto group-by resolves as the default hint does). RunPipeline reuses
  // one ctx across jobs, so chooser state resets here.
  ctx->current_storage = ResolveStorageAtAdmission(*ctx);
  ctx->has_prev_plan = false;
  const AutoKnobs knobs{config.join == JoinStrategy::kAuto,
                        config.groupby_connector == GroupByConnector::kAuto};
  if (knobs.join || knobs.connector) {
    ctx->optimizer = std::make_shared<PlanOptimizer>(
        knobs, cluster_->config().groupby_memory_bytes);
  } else {
    ctx->optimizer.reset();
  }

  // EXPLAIN ANALYZE support: one PlanProfile per superstep, merged into a
  // cumulative job profile.
  auto cumulative = std::make_shared<PlanProfile>();

  // Flags a superstep that runs far past the trailing-mean wall time while
  // it is still running (wedged exchange, pathological skew).
  StallWatchdog watchdog(config.stall_factor, cluster_->registry(),
                         config.name, ctx->job_id);

  // Buffer-cache misses (page loads) summed across workers, for the
  // per-superstep deltas in the progress log and EXPLAIN's rollup.
  auto cache_misses = [this]() {
    uint64_t misses = 0;
    for (int w = 0; w < cluster_->num_workers(); ++w) {
      misses += cluster_->cache(w).miss_count();
    }
    return misses;
  };

  auto init_gs_after_load = [&]() -> Status {
    GlobalState gs;
    gs.superstep = 0;
    gs.halt = false;
    gs.aggregate = program->GlobalAggregator().initial;
    for (const PartitionState& p : ctx->partitions) {
      gs.num_vertices += p.vertices;
      gs.num_edges += p.edges;
    }
    gs.live_vertices = gs.num_vertices;
    ctx->gs = gs;
    return WriteGs(dfs_, *ctx, gs);
  };

  auto load_from_input = [&]() -> Status {
    TraceSpan span(cluster_->tracer(), "pregel.load", trace_cat::kPregel,
                   kTraceDriverWorker);
    const std::vector<MetricsSnapshot> before = cluster_->SnapshotAll();
    JobSpec load = BuildLoadJob(ctx);
    PREGELIX_RETURN_NOT_OK(RunJob(*cluster_, load, ctx));
    result->load_sim_seconds += SimulatedStepSeconds(
        Delta(before, cluster_->SnapshotAll()), cost_params_);
    PREGELIX_RETURN_NOT_OK(init_gs_after_load());
    span.AddArg("vertices", ctx->gs.num_vertices);
    span.AddArg("edges", ctx->gs.num_edges);
    return Status::OK();
  };

  if (do_load) {
    if (config.resume) {
      // Crash restart: rebuild local state from the newest valid checkpoint
      // of this job_id; if none survives validation, load from scratch.
      int64_t resume = 0;
      bool restart = false;
      PREGELIX_RETURN_NOT_OK(Recover(ctx, &resume, &restart));
      if (restart) {
        PREGELIX_RETURN_NOT_OK(load_from_input());
      } else {
        ++result->recoveries;
      }
    } else {
      PREGELIX_RETURN_NOT_OK(load_from_input());
    }
  }

  int64_t last_checkpoint = -1;
  for (;;) {
    const int64_t superstep = ctx->gs.superstep + 1;
    if (config.max_supersteps > 0 && superstep > config.max_supersteps) {
      break;
    }
    // Superstep-scoped fault specs key off this; free when nothing is armed.
    if (fault::FaultInjector::Global().any_armed()) {
      fault::FaultInjector::Global().SetScope(superstep);
    }

    // --- Failure injection + failure manager (paper Section 5.5) ---------
    if (fail_at_superstep_ == superstep && fail_worker_ >= 0) {
      PLOG(Info) << "injecting failure of worker " << fail_worker_
                 << " before superstep " << superstep;
      fail_at_superstep_ = -1;
      // Machine state is gone: close every partition's storage handles
      // before wiping (handles of healthy partitions are rebuilt too — the
      // paper reloads the full state onto a fresh worker set).
      for (PartitionState& p : ctx->partitions) {
        p.vertex_index.reset();
        p.vid_index.reset();
        p.next_vid_index.reset();
      }
      PREGELIX_RETURN_NOT_OK(cluster_->FailWorker(fail_worker_));
      ++result->recoveries;
      int64_t resume = 0;
      bool restart = false;
      PREGELIX_RETURN_NOT_OK(Recover(ctx, &resume, &restart));
      if (restart) PREGELIX_RETURN_NOT_OK(load_from_input());
      continue;  // re-evaluate the loop with the recovered GS
    }

    // --- One superstep ----------------------------------------------------
    ctx->current_superstep = superstep;
    {
      MutexLock lock(&ctx->gs_mutex);
      ctx->pending_gs = GlobalState{};
    }
    ctx->vertices_added = 0;
    ctx->vertices_removed = 0;
    ctx->edges_delta = 0;

    server::JobStatusRegistry::Global().OnSuperstepStart(ctx->job_id,
                                                         superstep);
    EventJournal::Global().Append(
        "superstep.begin", ctx->job_id, superstep,
        {{"live", std::to_string(ctx->gs.live_vertices)}});

    TraceSpan step_span(cluster_->tracer(), "pregel.superstep",
                        trace_cat::kPregel, kTraceDriverWorker);
    const std::vector<MetricsSnapshot> before = cluster_->SnapshotAll();
    const uint64_t misses_before = cache_misses();
    // Time-ledger split of this superstep (DESIGN.md §20): the job's own
    // threads only, its activations (the step profile) plus the driver's
    // own attachment over the superstep, so neither another job nor the
    // observability server's threads leak into it.
    const LedgerAttachment driver_before = TimeLedger::PeekCurrentThread();
    const double step_wall = WallSeconds();
    // Resolve (and publish: fault point, journal, metrics, /jobs/<id>) the
    // physical plan before generating the superstep job. BuildSuperstepJob
    // re-resolves internally, but the optimizer memoizes per superstep so
    // the two calls agree and hysteresis state advances once.
    PlanDecisionRecord plan_record;
    PREGELIX_RETURN_NOT_OK(
        ResolveAndPublishPlan(ctx, cluster_->registry(), &plan_record));
    result->plan_decisions.push_back(plan_record);
    JobSpec spec = BuildSuperstepJob(ctx);
    auto step_profile = std::make_shared<PlanProfile>();
    const int64_t stalls_before = watchdog.stall_count();
    watchdog.Arm(superstep);
    const Status step_status = RunJob(*cluster_, spec, ctx, *step_profile);
    watchdog.Disarm(
        static_cast<uint64_t>((WallSeconds() - step_wall) * 1e9));
    const bool stalled = watchdog.stall_count() > stalls_before;
    PREGELIX_RETURN_NOT_OK(step_status);
    const std::vector<MetricsSnapshot> deltas =
        Delta(before, cluster_->SnapshotAll());
    const uint64_t misses_after = cache_misses();

    PREGELIX_RETURN_NOT_OK(AdvanceGlobalState(ctx));

    SuperstepStats stats;
    stats.superstep = superstep;
    stats.sim_seconds = SimulatedStepSeconds(deltas, cost_params_);
    stats.wall_seconds = WallSeconds() - step_wall;
    stats.live_vertices = ctx->gs.live_vertices;
    stats.messages = ctx->gs.messages;
    stats.used_left_outer_join =
        ctx->current_join == JoinStrategy::kLeftOuter;
    stats.groupby_used = ctx->current_groupby;
    stats.connector_used = ctx->current_connector;
    stats.cluster_delta = Sum(deltas);
    stats.cache_misses = misses_after - misses_before;
    AttachPaperPlanLabels(step_profile.get());
    stats.bytes_shuffled = step_profile->TotalShuffleBytes();
    stats.spill_count = step_profile->TotalSpillCount();
    stats.spill_bytes = step_profile->TotalSpillBytes();
    cumulative->MergeFrom(*step_profile);
    stats.profile = std::move(step_profile);

    // Feed the completed superstep back to the chooser; the next superstep's
    // Decide consumes exactly these observations.
    if (ctx->optimizer != nullptr) {
      OptimizerFeedback fb;
      fb.num_vertices = ctx->gs.num_vertices;
      fb.num_edges = ctx->gs.num_edges;
      fb.live_vertices = ctx->gs.live_vertices;
      fb.messages = ctx->gs.messages;
      fb.message_bytes = ctx->gs.message_bytes;
      fb.spill_count = stats.spill_count;
      fb.spill_bytes = stats.spill_bytes;
      fb.stalled = stalled;
      for (const PlanOperatorProfile& op : stats.profile->ops()) {
        if (op.name == "combine-msgs") fb.groupby_skew = op.skew;
      }
      ctx->optimizer->Observe(fb);
    }
    PLOG(Info) << "superstep " << superstep << " [" << config.name
               << "]: live=" << stats.live_vertices
               << " msgs=" << stats.messages << " shuffled_bytes="
               << stats.bytes_shuffled << " cache_misses="
               << stats.cache_misses << " spills=" << stats.spill_count
               << " plan="
               << PlanDecisionString(plan_record.plan);
    result->superstep_stats.push_back(stats);
    result->supersteps_sim_seconds += stats.sim_seconds;

    // Publish the completed superstep to the live status registry + journal
    // (what /jobs/<id> and /events serve). The cumulative profile is
    // re-serialized with the same deterministic, timing-free writer as
    // `pregelix explain`, so /jobs/<id> carries a stable profile document.
    {
      server::SuperstepBrief brief;
      brief.superstep = superstep;
      brief.wall_seconds = stats.wall_seconds;
      brief.sim_seconds = stats.sim_seconds;
      brief.live_vertices = stats.live_vertices;
      brief.messages = stats.messages;
      brief.bytes_shuffled = stats.bytes_shuffled;
      brief.spill_count = stats.spill_count;
      brief.left_outer_join = stats.used_left_outer_join;
      brief.plan = PlanDecisionString(plan_record.plan);
      const LedgerAttachment driver_after = TimeLedger::PeekCurrentThread();
      brief.ledger_ns = stats.profile->TotalLedgerNs();
      for (int c = 0; c < kNumTimeCategories; ++c) {
        brief.ledger_ns[c] += driver_after.ns[c] - driver_before.ns[c];
      }
      std::ostringstream profile_json;
      cumulative->WriteJson(profile_json, /*include_timing=*/false);
      server::JobStatusRegistry::Global().OnSuperstep(ctx->job_id, brief,
                                                      profile_json.str());
      std::vector<std::pair<std::string, std::string>> step_kv = {
          {"live", std::to_string(stats.live_vertices)},
          {"messages", std::to_string(stats.messages)},
          {"wall_ms",
           std::to_string(static_cast<int64_t>(stats.wall_seconds * 1e3))},
          {"shuffled_bytes", std::to_string(stats.bytes_shuffled)},
          {"spills", std::to_string(stats.spill_count)},
          {"join", stats.used_left_outer_join ? "left-outer" : "full-outer"},
          {"plan", PlanDecisionString(plan_record.plan)}};
      const std::string ledger_delta = LedgerDeltaString(brief.ledger_ns);
      if (!ledger_delta.empty()) {
        step_kv.emplace_back("ledger_ns", ledger_delta);
      }
      EventJournal::Global().Append("superstep.end", ctx->job_id, superstep,
                                    std::move(step_kv));
    }

    // Close the superstep span carrying the SuperstepStats the runtime just
    // computed, so one trace row tells the whole per-iteration story.
    step_span.AddArg("superstep", superstep);
    step_span.AddArg("live_vertices", stats.live_vertices);
    step_span.AddArg("messages", stats.messages);
    step_span.AddArg("left_outer_join", stats.used_left_outer_join ? 1 : 0);
    step_span.AddArg("sim_millis",
                     static_cast<int64_t>(stats.sim_seconds * 1e3));
    step_span.AddArg("cluster_cpu_ops",
                     static_cast<int64_t>(stats.cluster_delta.cpu_ops));
    step_span.AddArg(
        "cluster_net_bytes",
        static_cast<int64_t>(stats.cluster_delta.net_bytes));
    step_span.End();

    // --- Checkpoint at user-selected boundaries ---------------------------
    if (config.checkpoint_interval > 0 &&
        superstep % config.checkpoint_interval == 0 && !ctx->gs.halt) {
      TraceSpan ckpt_span(cluster_->tracer(), "pregel.checkpoint",
                          trace_cat::kPregel, kTraceDriverWorker);
      ckpt_span.AddArg("superstep", superstep);
      PREGELIX_RETURN_NOT_OK(WriteCheckpoint(ctx, superstep));
      last_checkpoint = superstep;
      server::JobStatusRegistry::Global().OnCheckpoint(ctx->job_id,
                                                       superstep);
      EventJournal::Global().Append("checkpoint.commit", ctx->job_id,
                                    superstep);
    }
    (void)last_checkpoint;

    if (ctx->gs.halt) break;
  }

  if (do_dump) {
    TraceSpan span(cluster_->tracer(), "pregel.dump", trace_cat::kPregel,
                   kTraceDriverWorker);
    const std::vector<MetricsSnapshot> before = cluster_->SnapshotAll();
    // The dump only reads the vertex index and truncates its output files
    // on open, so re-running it after a transient fault is idempotent.
    PREGELIX_RETURN_NOT_OK(RetryTransient("dump", [&]() -> Status {
      JobSpec dump = BuildDumpJob(ctx);
      return RunJob(*cluster_, dump, ctx);
    }));
    result->dump_sim_seconds = SimulatedStepSeconds(
        Delta(before, cluster_->SnapshotAll()), cost_params_);
  }

  result->plan_profile = std::move(cumulative);
  result->supersteps = ctx->gs.superstep;
  result->final_gs = ctx->gs;
  result->total_sim_seconds = result->load_sim_seconds +
                              result->supersteps_sim_seconds +
                              result->dump_sim_seconds;
  result->avg_iteration_sim_seconds =
      result->supersteps == 0
          ? 0
          : result->supersteps_sim_seconds /
                static_cast<double>(result->supersteps);
  result->wall_seconds = WallSeconds() - wall_start;
  return Status::OK();
}

Status PregelixRuntime::AdvanceGlobalState(JobRuntimeContext* ctx) {
  GlobalState gs;
  {
    MutexLock lock(&ctx->gs_mutex);
    gs = ctx->pending_gs;
  }
  gs.num_vertices = ctx->gs.num_vertices + ctx->vertices_added.load() -
                    ctx->vertices_removed.load();
  gs.num_edges = ctx->gs.num_edges + ctx->edges_delta.load();
  gs.messages = 0;
  gs.message_bytes = 0;
  for (PartitionState& p : ctx->partitions) {
    gs.messages += static_cast<int64_t>(p.next_msg_count);
    gs.message_bytes += static_cast<int64_t>(p.next_msg_bytes);
  }
  // Vertices added by resolve start life active; messages keep the job
  // alive via the halt contributions of their senders.
  if (ctx->vertices_added.load() > 0 || gs.messages > 0) {
    gs.halt = false;
  }

  // Install the superstep outputs: Msg_{i+1} replaces Msg_i, Vid_{i+1}
  // replaces Vid_i (sticky, partition-local swaps; no data moves). The
  // compute task that read Msg_i and Vid_i already deleted their files.
  for (PartitionState& p : ctx->partitions) {
    p.msg_path = p.next_msg_path;
    p.next_msg_path.clear();
    p.next_msg_count = 0;
    p.next_msg_bytes = 0;
    if (ctx->MaintainsVid()) {
      p.vid_index = std::move(p.next_vid_index);
      p.vid_extra_path = p.next_vid_extra_path;
      p.next_vid_extra_path.clear();
    }
  }
  ctx->gs = gs;
  return WriteGs(dfs_, *ctx, gs);
}

Status PregelixRuntime::WriteCheckpoint(JobRuntimeContext* ctx,
                                        int64_t superstep) {
  // Ledger: driver-side checkpoint bookkeeping. The snapshot job's task
  // threads attach independently; the driver's share (manifest, GS write,
  // the join barrier of the snapshot job) lands in checkpoint.
  ScopedTimeCategory checkpoint(TimeCategory::kCheckpoint);
  // The snapshot ops only read runtime state and write checkpoint files
  // (installed via temp + rename), so the whole sequence can be retried on
  // transient faults. The MANIFEST is written last: it is the commit
  // point, and recovery ignores any checkpoint without a valid one.
  return RetryTransient("checkpoint", [&]() -> Status {
    JobSpec ckpt = BuildCheckpointJob(ctx, superstep);
    PREGELIX_RETURN_NOT_OK(RunJob(*cluster_, ckpt, ctx));
    const std::string dir = CheckpointDir(*ctx, superstep);
    const std::string gs_encoded = ctx->gs.Encode();
    PREGELIX_RETURN_NOT_OK(fault::MaybeFail("pregel.gs.write"));
    PREGELIX_RETURN_NOT_OK(dfs_->Write(dir + "/gs", gs_encoded));

    std::string manifest;
    manifest += "superstep " + std::to_string(superstep) + "\n";
    manifest +=
        "partitions " + std::to_string(ctx->partitions.size()) + "\n";
    manifest += "gs " + std::to_string(gs_encoded.size()) + " " +
                std::to_string(Hash64(gs_encoded.data(), gs_encoded.size())) +
                "\n";
    for (const PartitionState& p : ctx->partitions) {
      for (const auto& f : p.ckpt_files) {
        manifest += "file " + f.name + " " + std::to_string(f.size) + " " +
                    std::to_string(f.checksum) + "\n";
      }
    }
    PREGELIX_RETURN_NOT_OK(fault::MaybeFail("pregel.checkpoint.manifest"));
    return dfs_->Write(dir + "/MANIFEST", manifest);
  });
}

Status PregelixRuntime::ValidateCheckpoint(JobRuntimeContext* ctx,
                                           int64_t superstep) {
  const std::string dir = CheckpointDir(*ctx, superstep);
  if (!dfs_->Exists(dir + "/MANIFEST")) {
    return Status::NotFound("checkpoint " + std::to_string(superstep) +
                            " has no manifest (crash before commit)");
  }
  std::string manifest;
  PREGELIX_RETURN_NOT_OK(dfs_->Read(dir + "/MANIFEST", &manifest));

  int64_t manifest_superstep = -1;
  size_t manifest_partitions = 0;
  uint64_t gs_size = 0, gs_checksum = 0;
  size_t files_listed = 0;
  size_t pos = 0;
  while (pos < manifest.size()) {
    size_t eol = manifest.find('\n', pos);
    if (eol == std::string::npos) eol = manifest.size();
    const std::string line = manifest.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    char name[256];
    long long step = 0;
    if (std::sscanf(line.c_str(), "superstep %lld", &step) == 1) {
      manifest_superstep = step;
      continue;
    }
    unsigned long long a = 0, b = 0;
    if (std::sscanf(line.c_str(), "partitions %llu", &a) == 1) {
      manifest_partitions = static_cast<size_t>(a);
      continue;
    }
    if (std::sscanf(line.c_str(), "gs %llu %llu", &a, &b) == 2) {
      gs_size = a;
      gs_checksum = b;
      continue;
    }
    if (std::sscanf(line.c_str(), "file %255s %llu %llu", name, &a, &b) ==
        3) {
      ++files_listed;
      const std::string rel = dir + "/" + name;
      if (!dfs_->Exists(rel)) {
        return Status::Corruption("checkpoint file missing: " + rel);
      }
      uint64_t size = 0;
      PREGELIX_RETURN_NOT_OK(GetFileSize(dfs_->Resolve(rel), &size));
      if (size != a) {
        return Status::Corruption(
            "checkpoint file " + rel + " torn: size " + std::to_string(size) +
            " != manifest " + std::to_string(a));
      }
      uint64_t checksum = 0;
      PREGELIX_RETURN_NOT_OK(ChecksumFile(dfs_->Resolve(rel), &checksum));
      if (checksum != b) {
        return Status::Corruption("checkpoint file " + rel +
                                  " checksum mismatch");
      }
      continue;
    }
    return Status::Corruption("unparseable manifest line: " + line);
  }
  if (manifest_superstep != superstep) {
    return Status::Corruption(
        "manifest superstep " + std::to_string(manifest_superstep) +
        " != dir " + std::to_string(superstep));
  }
  if (manifest_partitions != ctx->partitions.size()) {
    return Status::Corruption(
        "manifest partitions " + std::to_string(manifest_partitions) +
        " != cluster " + std::to_string(ctx->partitions.size()));
  }
  // Snapshots cover at least vertex+msg per partition (and vid for
  // left-outer-capable jobs).
  if (files_listed < 2 * ctx->partitions.size()) {
    return Status::Corruption("manifest lists " +
                              std::to_string(files_listed) +
                              " files; expected >= " +
                              std::to_string(2 * ctx->partitions.size()));
  }
  std::string gs_encoded;
  PREGELIX_RETURN_NOT_OK(dfs_->Read(dir + "/gs", &gs_encoded));
  if (gs_encoded.size() != gs_size ||
      Hash64(gs_encoded.data(), gs_encoded.size()) != gs_checksum) {
    return Status::Corruption("checkpoint gs torn at superstep " +
                              std::to_string(superstep));
  }
  return Status::OK();
}

Status PregelixRuntime::Recover(JobRuntimeContext* ctx,
                                int64_t* resume_superstep,
                                bool* restart_from_load) {
  // Ledger: recovery is checkpoint-path work (validation, state rebuild).
  ScopedTimeCategory checkpoint(TimeCategory::kCheckpoint);
  // List the checkpoints this job left on the DFS (newest first). Listing —
  // rather than counting down from the in-memory GS — lets a fresh driver
  // process resume a job whose in-memory state is gone.
  std::vector<int64_t> candidates;
  const std::string ckpt_root = "jobs/" + ctx->job_id + "/ckpt";
  if (dfs_->Exists(ckpt_root)) {
    std::vector<std::string> entries;
    PREGELIX_RETURN_NOT_OK(dfs_->List(ckpt_root, &entries));
    for (const std::string& e : entries) {
      if (!e.empty() && e.find_first_not_of("0123456789") == std::string::npos) {
        candidates.push_back(std::strtoll(e.c_str(), nullptr, 10));
      }
    }
  }
  std::sort(candidates.rbegin(), candidates.rend());

  for (int64_t s : candidates) {
    Status valid = ValidateCheckpoint(ctx, s);
    if (!valid.ok()) {
      PLOG(Warn) << "checkpoint " << s
                 << " rejected, falling back: " << valid.ToString();
      continue;
    }
    PLOG(Info) << "recovering from checkpoint at superstep " << s;
    JobSpec recovery = BuildRecoveryJob(ctx, s);
    PREGELIX_RETURN_NOT_OK(RunJob(*cluster_, recovery, ctx));
    const std::string gs_file = CheckpointDir(*ctx, s) + "/gs";
    std::string encoded;
    PREGELIX_RETURN_NOT_OK(dfs_->Read(gs_file, &encoded));
    GlobalState gs;
    PREGELIX_RETURN_NOT_OK(gs.Decode(encoded));
    ctx->gs = gs;
    PREGELIX_RETURN_NOT_OK(WriteGs(dfs_, *ctx, gs));
    *resume_superstep = s + 1;
    *restart_from_load = false;
    server::JobStatusRegistry::Global().OnRecovery(ctx->job_id, s);
    EventJournal::Global().Append("recovery.complete", ctx->job_id, s,
                                  {{"resume", std::to_string(s + 1)}});
    return Status::OK();
  }
  PLOG(Info) << "no valid checkpoint found; restarting from load";
  *restart_from_load = true;
  *resume_superstep = 1;
  server::JobStatusRegistry::Global().OnRecovery(ctx->job_id, -1);
  EventJournal::Global().Append("recovery.restart", ctx->job_id, -1,
                                {{"reason", "no valid checkpoint"}});
  return Status::OK();
}

void PregelixRuntime::Cleanup(JobRuntimeContext* ctx, bool keep_dfs) {
  for (int p = 0; p < static_cast<int>(ctx->partitions.size()); ++p) {
    PartitionState& state = ctx->partitions[p];
    // The directory goes next, so drop each index's pages instead of
    // writing them back first.
    for (OrderedIndex* index : std::initializer_list<OrderedIndex*>{
             state.vertex_index.get(), state.vid_index.get(),
             state.next_vid_index.get()}) {
      if (index == nullptr) continue;
      Status s = index->Destroy();
      if (!s.ok()) PLOG(Warn) << "index destroy: " << s.ToString();
    }
    state.vertex_index.reset();
    state.vid_index.reset();
    state.next_vid_index.reset();
    RemoveAll(ctx->PartitionDir(p));
  }
  if (keep_dfs) return;  // a resumable job's checkpoints must survive
  Status s = dfs_->DeleteRecursive("jobs/" + ctx->job_id);
  if (!s.ok()) {
    PLOG(Warn) << "job dir cleanup failed: " << s.ToString();
  }
}

Status PregelixRuntime::RunPipeline(
    const std::vector<std::pair<PregelProgram*, PregelixJobConfig>>& jobs,
    std::vector<JobResult>* results) {
  PREGELIX_CHECK(!jobs.empty());
  results->clear();
  results->resize(jobs.size());

  JobRuntimeContext ctx;
  ctx.cluster = cluster_;
  ctx.dfs = dfs_;
  ctx.job_id = jobs[0].second.name + "-pipeline-" +
               std::to_string(g_job_counter.fetch_add(1));
  ctx.partitions.resize(cluster_->num_partitions());
  PublishJobStart(ctx, jobs[0].second.name + "-pipeline");
  const bool ledger_attached = TimeLedger::AttachCurrentThread(
      TimeLedger::kDriverWorker, TimeCategory::kCompute, "driver");

  Status status;
  for (size_t j = 0; j < jobs.size(); ++j) {
    PregelProgram* program = jobs[j].first;
    const PregelixJobConfig& config = jobs[j].second;
    ctx.program = program;
    ctx.job_config = &config;

    if (j > 0) {
      // Compatible-job handoff: reactivate all vertices, clear Msg, rebuild
      // Vid for the next job (no DFS round trip, no re-load).
      status = PrepareNextPipelinedJob(&ctx);
      if (!status.ok()) break;
    }
    const bool last = j + 1 == jobs.size();
    status = RunInternal(program, config, &ctx, /*do_load=*/j == 0,
                         /*do_dump=*/last && !config.output_dir.empty(),
                         &(*results)[j]);
    if (!status.ok()) break;
  }
  if (ledger_attached) TimeLedger::DetachCurrentThread();
  PublishJobFinish(ctx, status);
  Cleanup(&ctx);
  return status;
}

Status PregelixRuntime::PrepareNextPipelinedJob(JobRuntimeContext* ctx) {
  const bool loj = ctx->MaintainsVid();
  for (int p = 0; p < static_cast<int>(ctx->partitions.size()); ++p) {
    PartitionState& state = ctx->partitions[p];
    if (!state.msg_path.empty()) {
      DeleteFileIfExists(state.msg_path);
      state.msg_path.clear();
    }
    if (!state.vid_extra_path.empty()) {
      DeleteFileIfExists(state.vid_extra_path);
      state.vid_extra_path.clear();
    }
    if (state.vid_index != nullptr) {
      Status s = state.vid_index->Destroy();
      if (!s.ok()) PLOG(Warn) << "vid destroy: " << s.ToString();
      state.vid_index.reset();
    }

    // Reactivate every vertex (all vertices start a Pregel job active) and
    // rebuild the live-vertex index if the next job uses the left-outer
    // plan. Updates are buffered so the scan never races its own writes.
    std::vector<std::pair<std::string, std::string>> reactivations;
    std::unique_ptr<IndexBulkLoader> vid_loader;
    if (loj) {
      PREGELIX_RETURN_NOT_OK(MakePipelineVidIndex(ctx, p, &state.vid_index));
      vid_loader = state.vid_index->NewBulkLoader();
    }
    std::unique_ptr<IndexIterator> it = state.vertex_index->NewIterator();
    PREGELIX_RETURN_NOT_OK(it->SeekToFirst());
    int64_t vertices = 0, edges = 0;
    int64_t min_vid = std::numeric_limits<int64_t>::max();
    int64_t max_vid = std::numeric_limits<int64_t>::min();
    while (it->Valid()) {
      if (VertexHalt(it->value())) {
        std::string record = it->value().ToString();
        SetVertexHalt(&record, false);
        reactivations.emplace_back(it->key().ToString(), std::move(record));
      }
      if (vid_loader != nullptr) {
        PREGELIX_RETURN_NOT_OK(vid_loader->Add(it->key(), Slice()));
      }
      ++vertices;
      edges += VertexEdgeCount(it->value());
      const int64_t vid = DecodeOrderedI64(it->key().data());
      min_vid = std::min(min_vid, vid);
      max_vid = std::max(max_vid, vid);
      PREGELIX_RETURN_NOT_OK(it->Next());
    }
    it.reset();
    if (vid_loader != nullptr) {
      PREGELIX_RETURN_NOT_OK(vid_loader->Finish());
    }
    for (const auto& [key, record] : reactivations) {
      PREGELIX_RETURN_NOT_OK(
          state.vertex_index->Upsert(Slice(key), Slice(record)));
    }
    state.vertices = vertices;
    state.edges = edges;
    state.min_vid = min_vid;
    state.max_vid = max_vid;
  }

  GlobalState gs;
  gs.superstep = 0;
  gs.halt = false;
  gs.aggregate = ctx->program->GlobalAggregator().initial;
  for (const PartitionState& p : ctx->partitions) {
    gs.num_vertices += p.vertices;
    gs.num_edges += p.edges;
  }
  gs.live_vertices = gs.num_vertices;
  ctx->gs = gs;
  return WriteGs(dfs_, *ctx, gs);
}

Status PregelixRuntime::MakePipelineVidIndex(JobRuntimeContext* ctx, int p,
                                             std::unique_ptr<BTree>* out) {
  const std::string dir = ctx->PartitionDir(p);
  PREGELIX_CHECK(EnsureDir(dir));
  const int worker = ctx->cluster->worker_of_partition(p);
  const std::string path =
      dir + "/vid-pipe-" + std::to_string(g_job_counter.fetch_add(1)) +
      ".btree";
  DeleteFileIfExists(path);
  return BTree::Open(&ctx->cluster->cache(worker), path, out);
}

}  // namespace pregelix
