#include "core/world/mp_runtime.hpp"

#include <cstdio>
#include <numeric>

#include "common/process_group.hpp"
#include "obs/report.hpp"

namespace lamellar {

MpProcessRuntime::MpProcessRuntime(const std::string& segment_name, pe_id pe,
                                   RuntimeConfig cfg)
    : cfg_(std::move(cfg)),
      tracer_(!cfg_.trace_file.empty(), cfg_.trace_ring_capacity) {
  // Each process writes its own files: siblings are separate processes, so
  // unlike the in-process group there is no shared collector to merge into.
  for (std::string* path : {&cfg_.trace_file, &cfg_.metrics_file}) {
    if (!path->empty()) *path = obs::per_pe_path(*path, pe);
  }

  auto lam = std::make_unique<MmapLamellae>(segment_name, pe, cfg_);
  lamellae_ = lam.get();
  world_ = std::make_unique<World>(*this, std::move(lam), pe);

  std::vector<pe_id> all(world_->num_pes());
  std::iota(all.begin(), all.end(), 0);
  auto shared =
      std::make_shared<TeamShared>(0, std::move(all), world_->num_pes());
  world_->world_team_ = Team(world_.get(), std::move(shared));

  if (cfg_.metrics_interval_ms > 0) {
    telemetry_ = std::make_unique<obs::TelemetrySampler>(
        cfg_.metrics_interval_ms, cfg_.metrics_file,
        [this] {
          return std::vector<obs::MetricsSnapshot>{
              world_->metrics_snapshot()};
        });
    telemetry_->start();
  }
}

MpProcessRuntime::~MpProcessRuntime() {
  try {
    finish();
  } catch (...) {
    // Teardown on the error path must not mask the original exception.
  }
  world_.reset();
}

void MpProcessRuntime::finish() {
  if (finished_) return;
  finished_ = true;
  if (telemetry_) telemetry_->stop();
  write_run_reports(cfg_, {world_->metrics_snapshot()}, tracer_);
  // Workers poll the engine through the idle hook; they must be joined
  // before World's members destruct (same ordering WorldGroup's destructor
  // enforces for the in-process backend).
  world_->pool().shutdown();
  lamellae_->mark_exited();
}

std::shared_ptr<TeamShared> MpProcessRuntime::rendezvous_team(
    pe_id /*pe*/, std::vector<pe_id> members) {
  if (members.size() != world_->num_pes()) {
    throw Error(
        "create_team: sub-world teams are unsupported under "
        "LAMELLAR_BACKEND=mmap (got " +
        std::to_string(members.size()) + " of " +
        std::to_string(world_->num_pes()) +
        " PEs); replicated team state and the replicated symmetric heap "
        "both require full-world collectives");
  }
  // Full-world teams need no cross-process rendezvous: every process runs
  // the identical SPMD sequence of create_team calls, so per-process
  // replicas with a lockstep uid counter agree on team identity (and hence
  // on the Darc/object id space derived from it).
  return std::make_shared<TeamShared>(next_team_uid_++, std::move(members),
                                      world_->num_pes());
}

// ---------------------------------------------------------------------------
// run_world_mmap (parent side)
// ---------------------------------------------------------------------------

void run_world_mmap(std::size_t npes,
                    const std::function<void(World&)>& body,
                    const RuntimeConfig& cfg) {
  MmapSegment segment = MmapSegment::create(npes, cfg);
  ProcessGroup procs;
  for (pe_id pe = 0; pe < npes; ++pe) {
    procs.spawn([&, pe]() -> int {
      try {
        MpProcessRuntime runtime(segment.name(), pe, cfg);
        body(runtime.world());
        // Implicit finalization, exactly as in-process: the PE keeps
        // serving AMs until the whole world quiesces.
        runtime.world().finalize();
        runtime.finish();
        return 0;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "lamellar[mp pe %zu]: %s\n", pe, e.what());
        return 1;
      }
    });
  }
  const auto results = procs.wait_all(
      cfg.mp_wait_timeout_ms, [&segment](const ProcessGroup::Child& child) {
        // Mark casualties immediately so survivors' barriers diagnose the
        // dead PE instead of sleeping out their timeout.
        if (!child.ok()) segment.mark_pe_dead(child.index);
      });
  segment.unlink();
  for (const auto& child : results) {
    if (!child.out.empty()) {
      std::fwrite(child.out.data(), 1, child.out.size(), stdout);
    }
    if (!child.err.empty()) {
      std::fwrite(child.err.data(), 1, child.err.size(), stderr);
    }
  }
  std::fflush(stdout);
  std::fflush(stderr);
  // Report the root cause: a signal-killed child over one that exited with
  // an error code (survivors exit 1 *because* of the casualty).
  const ProcessGroup::Child* culprit = nullptr;
  for (const auto& child : results) {
    if (child.ok()) continue;
    if (culprit == nullptr || (child.signal != 0 && culprit->signal == 0)) {
      culprit = &child;
    }
  }
  if (culprit != nullptr) {
    std::string msg = "run_world(mmap): PE " + std::to_string(culprit->index) +
                      " " + culprit->describe();
    const std::size_t nl = culprit->err.find('\n');
    if (!culprit->err.empty()) {
      msg += ": " + culprit->err.substr(0, nl);
    }
    throw Error(msg);
  }
}

}  // namespace lamellar
