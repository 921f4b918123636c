#include "common/metrics.h"

#include <algorithm>

namespace pregelix {

double SimulatedWorkerSeconds(const MetricsSnapshot& delta,
                              const CostModelParams& params) {
  const double cpu = static_cast<double>(delta.cpu_ops) / params.cpu_ops_per_sec;
  const double disk =
      static_cast<double>(delta.disk_read_bytes + delta.disk_write_bytes) /
      params.disk_bytes_per_sec;
  double t = cpu + disk;
  t += static_cast<double>(delta.disk_seeks) * params.seek_sec;
  t += static_cast<double>(delta.net_bytes) / params.net_bytes_per_sec;
  return t;
}

double OverlappedWorkerSeconds(const MetricsSnapshot& delta,
                               const CostModelParams& params) {
  const double cpu = static_cast<double>(delta.cpu_ops) / params.cpu_ops_per_sec;
  const double disk =
      static_cast<double>(delta.disk_read_bytes + delta.disk_write_bytes) /
          params.disk_bytes_per_sec +
      static_cast<double>(delta.disk_seeks) * params.seek_sec;
  const double net = static_cast<double>(delta.net_bytes) / params.net_bytes_per_sec;
  return std::max(cpu, std::max(disk, net));
}

double SimulatedStepSeconds(const std::vector<MetricsSnapshot>& deltas,
                            const CostModelParams& params) {
  double max_worker = 0.0;
  for (const MetricsSnapshot& d : deltas) {
    max_worker = std::max(max_worker, SimulatedWorkerSeconds(d, params));
  }
  return max_worker + params.barrier_sec +
         params.per_worker_coord_sec * static_cast<double>(deltas.size());
}

}  // namespace pregelix
