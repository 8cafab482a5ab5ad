#include "core/world/world.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>

#include "core/world/mp_runtime.hpp"
#include "obs/report.hpp"

namespace lamellar {

// ---- AmContext accessors that need World's definition ----

pe_id AmContext::current_pe() const { return world_.my_pe(); }
std::size_t AmContext::num_pes() const { return world_.num_pes(); }

// ---- Darc deserialization context ----

DarcManager& current_darc_manager() {
  World* w = current_world();
  if (w == nullptr) {
    throw Error("Darc deserialized outside a runtime context");
  }
  return w->darc_manager();
}

// ---- Team ----

std::size_t Team::my_rank() const {
  auto r = rank_of(world_->my_pe());
  if (!r) throw Error("Team::my_rank: calling PE is not a member");
  return *r;
}

void Team::barrier() {
  // Flush so AMs staged before the barrier are in flight, then rendezvous.
  // The team rank is the participant's stable identity in the tree barrier.
  world_->engine().flush();
  world_->lamellae().barrier(shared_->barrier, my_rank());
}

// ---- OneSidedRegistry ----

std::uint64_t OneSidedRegistry::install_weighted(std::size_t offset,
                                                 std::uint64_t weight) {
  std::lock_guard lock(mu_);
  const std::uint64_t key = next_key_++;
  entries_.emplace(key, Entry{offset, weight});
  return key;
}

void OneSidedRegistry::return_weight(std::uint64_t key, std::uint64_t weight,
                                     Lamellae& lamellae) {
  std::size_t offset = 0;
  bool free_now = false;
  {
    std::lock_guard lock(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      throw Error("OneSidedRegistry: weight returned to unknown region");
    }
    if (weight > it->second.weight) {
      throw Error("OneSidedRegistry: weight overflow on return");
    }
    it->second.weight -= weight;
    if (it->second.weight == 0) {
      offset = it->second.offset;
      free_now = true;
      entries_.erase(it);
    }
  }
  if (free_now) lamellae.free_onesided(offset);
}

std::size_t OneSidedRegistry::live() const {
  std::lock_guard lock(mu_);
  return entries_.size();
}

// ---- World ----

World::World(WorldBackend& backend, std::unique_ptr<Lamellae> lamellae,
             pe_id pe)
    : backend_(backend), lamellae_(std::move(lamellae)) {
  // The pool's idle hook needs the engine, which needs the pool: break the
  // cycle with a deferred indirection.  The slot is atomic because workers
  // start polling it before the engine exists; the release store at the end
  // publishes the engine to their acquire loads only once everything its
  // dispatch reads (the bound world, darcs_, onesided_) is in place.
  auto engine_slot = std::make_shared<std::atomic<AmEngine*>>(nullptr);
  pool_ = std::make_unique<ThreadPool>(
      backend.config().threads_per_pe,
      [engine_slot] {
        if (AmEngine* eng = engine_slot->load(std::memory_order_acquire)) {
          eng->progress();
        }
      },
      SchedulerObs{&lamellae_->metrics(), &backend.tracer(),
                   [l = lamellae_.get()] { return l->now(); }, pe},
      std::chrono::microseconds(backend.config().park_timeout_us));
  engine_ = std::make_unique<AmEngine>(*lamellae_, *pool_, backend.config(),
                                       &backend.tracer());
  engine_->bind_world(this);
  darcs_ = std::make_unique<DarcManager>(*engine_);
  onesided_ = std::make_unique<OneSidedRegistry>(*engine_);
  engine_slot->store(engine_.get(), std::memory_order_release);
}

const RuntimeConfig& World::config() const { return backend_.config(); }

void World::barrier() {
  engine_->flush();
  obs::TraceCollector& tracer = backend_.tracer();
  if (tracer.enabled()) {
    tracer.record({"barrier", "sync", my_pe(), lamellae_->now(), 0, 'i', 0});
  }
  lamellae_->barrier();
}

Team World::create_team(std::vector<pe_id> members) {
  std::sort(members.begin(), members.end());
  const bool member =
      std::binary_search(members.begin(), members.end(), my_pe());
  Team result{};
  if (member) {
    auto shared = backend_.rendezvous_team(my_pe(), std::move(members));
    result = Team(this, shared);
  }
  barrier();  // collective over the world
  return result;
}

Team World::split_block(std::size_t block) {
  if (block == 0) throw Error("split_block: block must be positive");
  std::vector<pe_id> mine;
  const pe_id first = (my_pe() / block) * block;
  for (pe_id p = first; p < std::min<pe_id>(first + block, num_pes()); ++p) {
    mine.push_back(p);
  }
  // Every PE calls rendezvous with its own block; blocks rendezvous
  // independently keyed by their member sets via per-PE sequencing.
  auto shared = backend_.rendezvous_team(my_pe(), std::move(mine));
  barrier();
  return Team(this, shared);
}

bool World::quiesce_round() {
  engine_->wait_all();
  barrier();
  std::uint64_t mine = engine_->outstanding() + pool_->pending();
  if (engine_->outgoing().has_pending()) ++mine;
  if (!lamellae_->inbox_empty()) ++mine;
  lamellae_->atomic_fetch_add_u64(0, kQuiesceCountOffset, mine);
  barrier();
  const std::uint64_t total =
      lamellae_->atomic_load_u64(0, kQuiesceCountOffset);
  const bool quiet = total == quiesce_total_;
  quiesce_total_ = total;
  return quiet;
}

void World::finalize() {
  while (!quiesce_round()) {
  }
  barrier();
}

// ---- WorldGroup ----

WorldGroup::WorldGroup(std::size_t num_pes, RuntimeConfig cfg,
                       PerfParams params, PeMapping mapping, bool virtual_time)
    : cfg_(cfg),
      tracer_(!cfg.trace_file.empty(), cfg.trace_ring_capacity),
      lamellae_group_(num_pes,
                      {cfg.symmetric_heap_bytes, cfg.onesided_heap_bytes},
                      params, mapping, virtual_time),
      team_seq_(num_pes, 0) {
  worlds_.reserve(num_pes);
  for (pe_id pe = 0; pe < num_pes; ++pe) {
    worlds_.push_back(
        std::make_unique<World>(*this, lamellae_group_.endpoint(pe), pe));
  }
  // Each world starts with the all-PEs team.
  std::vector<pe_id> all(num_pes);
  for (pe_id pe = 0; pe < num_pes; ++pe) all[pe] = pe;
  auto shared = std::make_shared<TeamShared>(0, all, num_pes);
  for (pe_id pe = 0; pe < num_pes; ++pe) {
    worlds_[pe]->world_team_ = Team(worlds_[pe].get(), shared);
  }
  if (cfg_.metrics_interval_ms > 0) {
    telemetry_ = std::make_unique<obs::TelemetrySampler>(
        cfg_.metrics_interval_ms, cfg_.metrics_file,
        [this] { return metrics_snapshots(); });
    telemetry_->start();
  }
}

WorldGroup::~WorldGroup() {
  for (auto& w : worlds_) w->pool_->shutdown();
  emit_reports();
}

std::vector<obs::MetricsSnapshot> WorldGroup::metrics_snapshots() const {
  std::vector<obs::MetricsSnapshot> snaps;
  snaps.reserve(worlds_.size());
  for (const auto& w : worlds_) snaps.push_back(w->metrics_snapshot());
  return snaps;
}

void WorldGroup::emit_reports() {
  if (reports_emitted_) return;
  reports_emitted_ = true;
  if (telemetry_) telemetry_->stop();  // final tick before the reports
  write_run_reports(cfg_, metrics_snapshots(), tracer_);
}

void write_run_reports(const RuntimeConfig& cfg,
                       const std::vector<obs::MetricsSnapshot>& snaps,
                       const obs::TraceCollector& tracer) {
  if (cfg.metrics_mode == MetricsMode::kSummary) {
    obs::print_summary(stderr, snaps);
  } else if (cfg.metrics_mode == MetricsMode::kJson) {
    obs::print_json(stderr, snaps);
  }
  if (!cfg.trace_file.empty() && !tracer.write_chrome_json(cfg.trace_file)) {
    std::fprintf(stderr, "lamellar: failed to write trace file %s\n",
                 cfg.trace_file.c_str());
  }
}

std::shared_ptr<TeamShared> WorldGroup::rendezvous_team(
    pe_id pe, std::vector<pe_id> members) {
  std::lock_guard lock(team_mu_);
  // Collective sequencing: the n-th team-creating call on each member PE
  // refers to the same team.  Key pending teams by (min member, per-PE seq).
  const std::uint64_t seq = team_seq_[pe]++;
  const std::uint64_t key = (members.front() << 32) | seq;
  auto it = pending_teams_.find(key);
  if (it == pending_teams_.end()) {
    auto shared = std::make_shared<TeamShared>(next_team_uid_++,
                                               std::move(members),
                                               worlds_.size());
    if (shared->members.size() > 1) {
      pending_teams_.emplace(key,
                             PendingTeam{shared, shared->members.size() - 1});
    }
    return shared;
  }
  auto shared = it->second.shared;
  if (--it->second.remaining == 0) pending_teams_.erase(it);
  return shared;
}

// ---- run_world ----

void run_world(std::size_t npes, const std::function<void(World&)>& body,
               RuntimeConfig cfg, PerfParams params, PeMapping mapping,
               bool virtual_time) {
  if (cfg.backend == BackendKind::kMmap) {
    run_world_mmap(npes, body, cfg);
    return;
  }
  WorldGroup group(npes, cfg, params, mapping, virtual_time);
  std::vector<std::thread> mains;
  std::vector<std::exception_ptr> errors(npes);
  mains.reserve(npes);
  for (pe_id pe = 0; pe < npes; ++pe) {
    mains.emplace_back([&, pe] {
      World& world = group.world(pe);
      try {
        body(world);
      } catch (...) {
        errors[pe] = std::current_exception();
      }
      // Implicit finalization (Listing 1 discussion): the PE stays alive,
      // processing AMs, until every PE is ready to deinitialize.
      if (errors[pe] == nullptr) world.finalize();
    });
  }
  for (auto& t : mains) t.join();
  for (auto& e : errors) {
    if (e != nullptr) std::rethrow_exception(e);
  }
}

}  // namespace lamellar
