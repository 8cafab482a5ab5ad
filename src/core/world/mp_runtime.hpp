// Per-process World bring-up/teardown for the process-separated backend
// (DESIGN.md §13).
//
// Under LAMELLAR_BACKEND=mmap, run_world forks one OS process per PE over a
// shared MmapSegment.  Inside each child, an MpProcessRuntime is the
// WorldBackend: it owns that process's single World (over an MmapLamellae
// endpoint), restricts team rendezvous to full-world replicas, and
// retargets observability output (telemetry JSONL, one trace file per PE)
// to per-process paths so concurrent children never share a file and bench
// lines still merge.  Termination detection needs nothing here:
// World::quiesce_round runs on the Lamellae's atomics and barriers.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "common/config.hpp"
#include "core/world/world.hpp"
#include "lamellae/mmap_lamellae.hpp"

namespace lamellar {

class MpProcessRuntime final : public WorldBackend {
 public:
  /// Attach to `segment_name` as PE `pe` and bring up this process's World.
  MpProcessRuntime(const std::string& segment_name, pe_id pe,
                   RuntimeConfig cfg);
  ~MpProcessRuntime() override;
  MpProcessRuntime(const MpProcessRuntime&) = delete;
  MpProcessRuntime& operator=(const MpProcessRuntime&) = delete;

  World& world() { return *world_; }

  [[nodiscard]] const RuntimeConfig& config() const override { return cfg_; }
  obs::TraceCollector& tracer() override { return tracer_; }
  std::shared_ptr<TeamShared> rendezvous_team(
      pe_id pe, std::vector<pe_id> members) override;

  /// Orderly teardown: stop telemetry, emit this process's reports, shut
  /// the pool down (workers must stop polling the engine before World's
  /// members destruct), and publish clean detach to peers.  Runs from the
  /// destructor too, so the error path cannot skip it.
  void finish();

 private:
  RuntimeConfig cfg_;
  obs::TraceCollector tracer_;
  std::unique_ptr<World> world_;
  MmapLamellae* lamellae_ = nullptr;  // owned by world_
  std::unique_ptr<obs::TelemetrySampler> telemetry_;
  std::uint64_t next_team_uid_ = 1;
  bool finished_ = false;
};

/// Fork `npes` PE processes over a fresh shared segment, run the SPMD body
/// in each, join with crash detection, and propagate the first failure as
/// an Error naming the casualty (its captured stderr included).  Called by
/// run_world when cfg.backend == BackendKind::kMmap.
void run_world_mmap(std::size_t npes,
                    const std::function<void(World&)>& body,
                    const RuntimeConfig& cfg);

}  // namespace lamellar
