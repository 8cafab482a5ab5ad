// LamellarWorld: the top-level per-PE runtime handle (paper Sec. III,
// Listing 1).
//
// A World owns one PE's Lamellae endpoint + work-stealing pool + AM engine
// + Darc manager.  A WorldGroup runs the PEs of one process: in-process
// every PE of the world, under LAMELLAR_BACKEND=mmap the one PE of a forked
// child.  `run_world(npes, fn)` launches one SPMD "main" per PE — a thread
// each in-process, the in-process equivalent of the paper's slurm-launched
// processes, or a forked process each — and tears everything down with the
// paper's implicit-finalization semantics: each PE's world stays responsive
// (its pool keeps executing AMs) until every PE is ready to deinitialize.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/config.hpp"
#include "common/rendezvous.hpp"
#include "core/am/am_engine.hpp"
#include "core/darc/darc.hpp"
#include "core/scheduler/thread_pool.hpp"
#include "core/world/team.hpp"
#include "fabric/perf_model.hpp"
#include "fabric/topology.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace lamellar {

class World;
class WorldGroup;
template <typename T>
class OneSidedMemoryRegion;

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
  World(WorldGroup& group, std::unique_ptr<Lamellae> lamellae);
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

  /// Collectively (over the *world*) create a team from `members` (world
  /// PE ids).  Every world PE must call; non-members receive an invalid
  /// Team handle.
  Team create_team(std::vector<pe_id> members);

  /// Collectively (over the world) split it into contiguous teams of
  /// `block` PEs each.
  Team split_block(std::size_t block);

  // ---- accessors for runtime layers ----
  AmEngine& engine() { return *engine_; }
  Lamellae& lamellae() { return *lamellae_; }
  DarcManager& darc_manager() { return *darcs_; }
  OneSidedRegistry& onesided_registry() { return *onesided_; }
  ThreadPool& pool() { return *pool_; }
  [[nodiscard]] const RuntimeConfig& config() const;

  /// This PE's time in ns (Lamellae::now()): modeled time under virtual
  /// time, real steady-clock time otherwise.
  [[nodiscard]] sim_nanos time_ns() { return lamellae_->now(); }

  // ---- observability ----

  /// This PE's metrics registry (live handles; register your own via
  /// counter()/gauge()/histogram()).
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

  /// The rest of one team-creating world collective, on every PE: count
  /// the call, join `members` unless this PE is in none (empty), then a
  /// world barrier.
  Team make_team(std::vector<pe_id> members);

  WorldGroup& group_;
  std::unique_ptr<Lamellae> lamellae_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<AmEngine> engine_;
  std::unique_ptr<DarcManager> darcs_;
  std::unique_ptr<OneSidedRegistry> onesided_;
  Team world_team_;
  /// The count word's value at this PE's last quiesce_round.
  std::uint64_t quiesce_total_ = 0;
  /// create_team and split_block calls so far.  Every PE advances it on
  /// every such call, member or not (both are world collectives), so the
  /// n-th call names the same teams on every PE.
  std::uint64_t team_calls_ = 0;
};

/// The PEs this process runs, from the endpoints run_world hands it: in-
/// process every PE of the world, under LAMELLAR_BACKEND=mmap the one PE of
/// a forked child.  It alone owns the config, the tracer, telemetry, the
/// world team, the team rendezvous and the teardown.
class WorldGroup {
 public:
  /// Bring up one World per endpoint, in PE order.
  WorldGroup(std::vector<std::unique_ptr<Lamellae>> endpoints,
             RuntimeConfig cfg);
  /// One teardown for both backends: join every pool, stop telemetry,
  /// write the reports (summary/JSON per metrics_mode, the trace file per
  /// trace_file), then drop the endpoints.
  ~WorldGroup();

  WorldGroup(const WorldGroup&) = delete;
  WorldGroup& operator=(const WorldGroup&) = delete;

  /// The i-th PE this process runs.
  World& world(std::size_t i) { return *worlds_[i]; }
  [[nodiscard]] const RuntimeConfig& config() const { return cfg_; }

  /// Group-wide trace collector; consulted always, enabled only when
  /// LAMELLAR_TRACE_FILE is set.
  obs::TraceCollector& tracer() { return tracer_; }

  /// The shared state of the team `members` that team-creating world
  /// collective number `call` makes: the first member here makes it, and
  /// the others pick it up.
  std::shared_ptr<TeamShared> join_team(std::uint64_t call,
                                        std::vector<pe_id> members);

 private:
  /// Metrics snapshots for every PE this process runs, in PE order.
  [[nodiscard]] std::vector<obs::MetricsSnapshot> metrics_snapshots() const;

  RuntimeConfig cfg_;
  obs::TraceCollector tracer_;  // before worlds_: outlives their workers
  Rendezvous<std::shared_ptr<TeamShared>> teams_;
  /// Each World owns its PE's endpoint, and so that PE's metrics registry:
  /// the destructor joins every pool and writes the reports before these
  /// are destroyed.
  std::vector<std::unique_ptr<World>> worlds_;
  /// Background time-series sampler (LAMELLAR_METRICS_INTERVAL_MS); null
  /// when disabled.  Declared after worlds_: its thread snapshots them, so
  /// it must stop (in the destructor) and destruct first.
  std::unique_ptr<obs::TelemetrySampler> telemetry_;
};

/// Run an SPMD function on `npes` PEs: the equivalent of launching the
/// paper's binary under slurm with `npes` processes.  In-process PEs are
/// threads; with cfg.backend == BackendKind::kMmap each PE is a forked
/// process over a fresh shared segment, and the first failure is rethrown
/// as an Error naming the casualty (its captured stderr included).
void run_world(std::size_t npes, const std::function<void(World&)>& body,
               RuntimeConfig cfg = RuntimeConfig::from_env(),
               PerfParams params = paper_perf_params(),
               PeMapping mapping = PeMapping{}, bool virtual_time = true);

}  // namespace lamellar
