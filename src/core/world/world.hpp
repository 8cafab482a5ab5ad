// LamellarWorld: the top-level per-PE runtime handle (paper Sec. III,
// Listing 1).
//
// A WorldGroup owns the whole in-process "cluster": the shared fabric, one
// Lamellae endpoint + work-stealing pool + AM engine + Darc manager per PE.
// `run_world(npes, fn)` launches one SPMD "main" thread per PE — the
// in-process equivalent of the paper's slurm-launched processes — and tears
// everything down with the paper's implicit-finalization semantics: each
// PE's world stays responsive (its pool keeps executing AMs) until every PE
// is ready to deinitialize.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/config.hpp"
#include "core/am/am_engine.hpp"
#include "core/darc/darc.hpp"
#include "core/scheduler/thread_pool.hpp"
#include "core/world/team.hpp"
#include "lamellae/shmem_lamellae.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace lamellar {

class World;
class WorldGroup;
template <typename T>
class OneSidedMemoryRegion;

/// What a World needs from its launcher, independent of whether sibling PEs
/// are threads in this process (WorldGroup) or forked processes over a
/// shared segment (MpProcessRuntime, DESIGN.md §13).  Everything else a
/// World does goes through its own Lamellae endpoint.
class WorldBackend {
 public:
  virtual ~WorldBackend() = default;

  [[nodiscard]] virtual const RuntimeConfig& config() const = 0;
  virtual obs::TraceCollector& tracer() = 0;

  /// Collective team-creation rendezvous (see WorldGroup::rendezvous_team).
  virtual std::shared_ptr<TeamShared> rendezvous_team(
      pe_id pe, std::vector<pe_id> members) = 0;
};

/// One-sided memory-region lifetime registry: the origin PE tracks the
/// total reference *weight*; see core/memregion/onesided_region.hpp for the
/// weighted-counting protocol description.
class OneSidedRegistry {
 public:
  explicit OneSidedRegistry(AmEngine& engine) : engine_(engine) {}

  /// Register a region whose initial proxy holds `weight`.
  std::uint64_t install_weighted(std::size_t offset, std::uint64_t weight);

  /// Return `weight` to the registry; frees the allocation at zero.
  void return_weight(std::uint64_t key, std::uint64_t weight,
                     Lamellae& lamellae);

  [[nodiscard]] std::size_t live() const;

  AmEngine& engine() { return engine_; }

 private:
  struct Entry {
    std::size_t offset = 0;
    std::uint64_t weight = 0;
  };
  AmEngine& engine_;
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::uint64_t next_key_ = 1;
};

class World {
 public:
  /// `group` may be null: it is the in-process WorldGroup when the backend
  /// is one (kept for tests that inspect the shared fabric), and null under
  /// process-separated backends.
  World(WorldBackend& backend, std::unique_ptr<Lamellae> lamellae, pe_id pe,
        WorldGroup* group = nullptr);
  ~World() = default;
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  // ---- identity ----
  [[nodiscard]] pe_id my_pe() const { return lamellae_->my_pe(); }
  [[nodiscard]] std::size_t num_pes() const { return lamellae_->num_pes(); }

  // ---- active messages (Listing 1 API) ----

  /// Launch `am` on PE `pe`; returns a future for exec()'s result.
  template <ActiveMessageType Am>
  Future<am_return_t<Am>> exec_am_pe(pe_id pe, Am am) {
    return engine_->send(pe, std::move(am));
  }

  /// Launch a copy of `am` on every PE (including this one).
  template <ActiveMessageType Am>
  Future<std::vector<am_return_t<Am>>> exec_am_all(const Am& am) {
    return engine_->send_all(am);
  }

  /// Block (helping: this thread executes runtime tasks while waiting)
  /// until `f` completes.  Only blocks the local PE.
  template <typename T>
  T block_on(Future<T> f) {
    return engine_->block_on(std::move(f));
  }

  /// Block until every AM launched by this PE has completed.
  void wait_all() { engine_->wait_all(); }

  /// Global synchronization across all PEs in the world.
  void barrier();

  // ---- distributed objects ----

  /// Collectively create a Darc; every PE supplies its own instance.
  template <typename T>
  Darc<T> new_darc(T item) {
    return new_darc_on(world_team_, std::move(item));
  }

  /// Collectively create a Darc on a team (member PEs only).
  template <typename T>
  Darc<T> new_darc_on(const Team& team, T item) {
    const darc_id id = team.next_object_id(my_pe());
    auto sp = std::make_shared<T>(std::move(item));
    T* raw = sp.get();
    darcs_->install(id, std::move(sp), team.root_pe());
    if (my_pe() == team.root_pe()) darcs_->install_root(id, team.members());
    const_cast<Team&>(team).barrier();
    return Darc<T>(darcs_.get(), id, raw);
  }

  // ---- teams ----

  /// The team containing every PE.
  [[nodiscard]] const Team& team() const { return world_team_; }

  /// Collectively (over the *world*) create a team from `members` (sorted
  /// world PE ids).  Every world PE must call; non-members receive an
  /// invalid Team handle.
  Team create_team(std::vector<pe_id> members);

  /// Split the world into contiguous teams of `block` PEs each.
  Team split_block(std::size_t block);

  // ---- accessors for runtime layers ----
  AmEngine& engine() { return *engine_; }
  Lamellae& lamellae() { return *lamellae_; }
  DarcManager& darc_manager() { return *darcs_; }
  OneSidedRegistry& onesided_registry() { return *onesided_; }
  ThreadPool& pool() { return *pool_; }
  [[nodiscard]] const RuntimeConfig& config() const;
  WorldBackend& backend() { return backend_; }

  /// The in-process WorldGroup, when this world was launched by one.
  /// Throws under process-separated backends (use backend() there).
  WorldGroup& group();

  /// This PE's time in ns (Lamellae::now()): modeled time under virtual
  /// time, real steady-clock time otherwise.
  [[nodiscard]] sim_nanos time_ns() { return lamellae_->now(); }

  // ---- observability ----

  /// This PE's metrics registry (live handles; register your own via
  /// counter()/gauge()/histogram()).  Inert when LAMELLAR_METRICS=off.
  obs::MetricsRegistry& metrics() { return lamellae_->metrics(); }

  /// Point-in-time plain-struct copy of every metric on this PE.
  [[nodiscard]] obs::MetricsSnapshot metrics_snapshot() const {
    return lamellae_->metrics().snapshot(lamellae_->my_pe());
  }

  /// One collective round of termination detection, built from Lamellae
  /// calls alone so both backends run it unchanged: wait_all, barrier, add
  /// this PE's outstanding work into the count word in PE 0's reserved
  /// page, barrier, read the word.  The word only grows and every PE reads
  /// it between the same two barriers, so all PEs return the same answer:
  /// true when no PE added anything this round (the word still reads the
  /// previous round's total).  Every PE must call it the same number of
  /// times.
  bool quiesce_round();

  /// Paper-style implicit finalization: drain outstanding work and reach
  /// global quiescence.  Called by run_world after the SPMD body returns.
  void finalize();

 private:
  friend class WorldGroup;
  friend class MpProcessRuntime;

  WorldBackend& backend_;
  WorldGroup* group_ = nullptr;
  std::unique_ptr<Lamellae> lamellae_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<AmEngine> engine_;
  std::unique_ptr<DarcManager> darcs_;
  std::unique_ptr<OneSidedRegistry> onesided_;
  Team world_team_;
  /// The count word's value at this PE's last quiesce_round.
  std::uint64_t quiesce_total_ = 0;
};

/// The in-process "cluster": shared state plus one World per PE.
class WorldGroup : public WorldBackend {
 public:
  explicit WorldGroup(std::size_t num_pes,
                      RuntimeConfig cfg = RuntimeConfig::from_env(),
                      PerfParams params = paper_perf_params(),
                      PeMapping mapping = PeMapping{},
                      bool virtual_time = true);
  ~WorldGroup() override;

  WorldGroup(const WorldGroup&) = delete;
  WorldGroup& operator=(const WorldGroup&) = delete;

  [[nodiscard]] std::size_t num_pes() const { return worlds_.size(); }
  World& world(pe_id pe) { return *worlds_[pe]; }
  ShmemLamellaeGroup& lamellae_group() { return lamellae_group_; }
  [[nodiscard]] const RuntimeConfig& config() const override { return cfg_; }

  /// Group-wide trace collector; null object pattern not used — may be
  /// consulted but is disabled unless LAMELLAR_TRACE_FILE is set.
  obs::TraceCollector& tracer() override { return tracer_; }

  /// Metrics snapshots for every PE (pe-indexed).
  [[nodiscard]] std::vector<obs::MetricsSnapshot> metrics_snapshots() const;

  /// Emit the end-of-run reports now (summary/JSON per metrics_mode, trace
  /// file per trace_file).  Runs automatically at destruction; calling it
  /// early disables the automatic emission.
  void emit_reports();

  /// Shared team registry: collective team creation rendezvous.
  std::shared_ptr<TeamShared> rendezvous_team(
      pe_id pe, std::vector<pe_id> members) override;

 private:
  RuntimeConfig cfg_;
  obs::TraceCollector tracer_;  // before lamellae_group_: outlives workers
  ShmemLamellaeGroup lamellae_group_;
  std::vector<std::unique_ptr<World>> worlds_;
  /// Background time-series sampler (LAMELLAR_METRICS_INTERVAL_MS); null
  /// when disabled.  Declared after worlds_: its thread snapshots them, so
  /// it must stop (emit_reports) / destruct first.
  std::unique_ptr<obs::TelemetrySampler> telemetry_;
  bool reports_emitted_ = false;

  std::mutex team_mu_;
  std::uint64_t next_team_uid_ = 1;
  struct PendingTeam {
    std::shared_ptr<TeamShared> shared;
    std::size_t remaining = 0;
  };
  std::unordered_map<std::uint64_t, PendingTeam> pending_teams_;
  std::vector<std::uint64_t> team_seq_;  // per-PE collective team counter
};

/// The end-of-run reports of PEs [first_pe, first_pe + snaps.size()), for
/// both backends: the stderr metrics report cfg.metrics_mode asks for, and
/// the trace in cfg.trace_file, one file per PE when cfg.trace_per_pe.
void write_run_reports(const RuntimeConfig& cfg,
                       const std::vector<obs::MetricsSnapshot>& snaps,
                       const obs::TraceCollector& tracer, pe_id first_pe);

/// Run an SPMD function on `npes` in-process PEs: the equivalent of
/// launching the paper's binary under slurm with `npes` processes.
void run_world(std::size_t npes, const std::function<void(World&)>& body,
               RuntimeConfig cfg = RuntimeConfig::from_env(),
               PerfParams params = paper_perf_params(),
               PeMapping mapping = PeMapping{}, bool virtual_time = true);

}  // namespace lamellar
