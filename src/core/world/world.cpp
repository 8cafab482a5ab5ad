#include "core/world/world.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <numeric>
#include <thread>

#include "common/process_group.hpp"
#include "lamellae/mmap_lamellae.hpp"
#include "lamellae/shmem_lamellae.hpp"
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

World::World(WorldGroup& group, std::unique_ptr<Lamellae> lamellae)
    : group_(group), lamellae_(std::move(lamellae)) {
  // The pool's idle hook needs the engine, which needs the pool: break the
  // cycle with a deferred indirection.  The slot is atomic because workers
  // start polling it before the engine exists; the release store at the end
  // publishes the engine to their acquire loads only once everything its
  // dispatch reads (the bound world, darcs_, onesided_) is in place.
  auto engine_slot = std::make_shared<std::atomic<AmEngine*>>(nullptr);
  pool_ = std::make_unique<ThreadPool>(
      group.config().threads_per_pe,
      [engine_slot] {
        if (AmEngine* eng = engine_slot->load(std::memory_order_acquire)) {
          eng->progress();
        }
      },
      SchedulerObs{&lamellae_->metrics(), &group.tracer(),
                   [l = lamellae_.get()] { return l->now(); }, my_pe()},
      std::chrono::microseconds(group.config().park_timeout_us));
  engine_ = std::make_unique<AmEngine>(*lamellae_, *pool_, group.config(),
                                       &group.tracer());
  engine_->bind_world(this);
  darcs_ = std::make_unique<DarcManager>(*engine_);
  onesided_ = std::make_unique<OneSidedRegistry>(*engine_);
  engine_slot->store(engine_.get(), std::memory_order_release);
}

const RuntimeConfig& World::config() const { return group_.config(); }

void World::barrier() {
  engine_->flush();
  obs::TraceCollector& tracer = group_.tracer();
  if (tracer.enabled()) {
    tracer.record({"barrier", "sync", my_pe(), lamellae_->now(), 0, 'i', 0});
  }
  lamellae_->barrier();
}

Team World::create_team(std::vector<pe_id> members) {
  std::sort(members.begin(), members.end());
  // A team's uid assumes its lowest member is a world PE (join_team).
  if (!members.empty()) check_pe("create_team", members.back(), num_pes());
  const bool member =
      std::binary_search(members.begin(), members.end(), my_pe());
  return make_team(member ? std::move(members) : std::vector<pe_id>{});
}

Team World::split_block(std::size_t block) {
  if (block == 0) throw Error("split_block: block must be positive");
  std::vector<pe_id> mine;
  const pe_id first = (my_pe() / block) * block;
  for (pe_id p = first; p < std::min<pe_id>(first + block, num_pes()); ++p) {
    mine.push_back(p);
  }
  return make_team(std::move(mine));
}

Team World::make_team(std::vector<pe_id> members) {
  const std::uint64_t call = team_calls_++;
  Team team{};
  if (!members.empty()) {
    team = Team(this, group_.join_team(call, std::move(members)));
  }
  barrier();  // collective over the world
  return team;
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

WorldGroup::WorldGroup(std::vector<std::unique_ptr<Lamellae>> endpoints,
                       RuntimeConfig cfg)
    : cfg_(std::move(cfg)),
      tracer_(!cfg_.trace_file.empty(), cfg_.trace_ring_capacity),
      teams_(endpoints.front()->num_pes(), endpoints.front()->local_pes()) {
  const Lamellae& first = *endpoints.front();
  const std::size_t num_pes = first.num_pes();
  // A process that runs fewer than every PE writes its own files: no other
  // process shares its collector, and concurrent siblings must not share a
  // path.
  if (first.local_pes() < num_pes) {
    for (std::string* path : {&cfg_.trace_file, &cfg_.metrics_file}) {
      if (!path->empty()) *path = obs::per_pe_path(*path, first.my_pe());
    }
  }
  worlds_.reserve(endpoints.size());
  for (auto& lamellae : endpoints) {
    worlds_.push_back(std::make_unique<World>(*this, std::move(lamellae)));
  }
  // Each world starts with the all-PEs team.
  std::vector<pe_id> all(num_pes);
  std::iota(all.begin(), all.end(), pe_id{0});
  auto shared = std::make_shared<TeamShared>(0, std::move(all), num_pes);
  for (auto& w : worlds_) w->world_team_ = Team(w.get(), shared);
  if (cfg_.metrics_interval_ms > 0) {
    telemetry_ = std::make_unique<obs::TelemetrySampler>(
        cfg_.metrics_interval_ms, cfg_.metrics_file,
        [this] { return metrics_snapshots(); });
    telemetry_->start();
  }
}

WorldGroup::~WorldGroup() {
  // Workers poll the engine through the idle hook, so every pool is joined
  // before anything they read goes away.
  for (auto& w : worlds_) w->pool_->shutdown();
  if (telemetry_) telemetry_->stop();  // final tick before the reports
  const std::vector<obs::MetricsSnapshot> snaps = metrics_snapshots();
  if (cfg_.metrics_mode == MetricsMode::kSummary) {
    obs::print_summary(stderr, snaps);
  } else if (cfg_.metrics_mode == MetricsMode::kJson) {
    obs::print_json(stderr, snaps);
  }
  if (!cfg_.trace_file.empty() && !tracer_.write_chrome_json(cfg_.trace_file)) {
    std::fprintf(stderr, "lamellar: failed to write trace file %s\n",
                 cfg_.trace_file.c_str());
  }
}

std::vector<obs::MetricsSnapshot> WorldGroup::metrics_snapshots() const {
  std::vector<obs::MetricsSnapshot> snaps;
  snaps.reserve(worlds_.size());
  for (const auto& w : worlds_) snaps.push_back(w->metrics_snapshot());
  return snaps;
}

std::shared_ptr<TeamShared> WorldGroup::join_team(std::uint64_t call,
                                                  std::vector<pe_id> members) {
  // The teams of one call differ in their lowest member, so the uid names
  // one team, the same on every member and in every process.
  const std::size_t num_pes = worlds_.front()->num_pes();
  const std::uint64_t uid = 1 + call * num_pes + members.front();
  return teams_.arrive(uid, members.size(), "create_team", [&] {
    return std::make_shared<TeamShared>(uid, std::move(members), num_pes);
  });
}

// ---- run_world ----

namespace {

/// One PE's SPMD body, then the paper's implicit finalization (Listing 1
/// discussion): the PE keeps serving AMs until the whole world quiesces.  A
/// body that throws skips finalize.  In-process threads and forked children
/// both run their PE through here.
void run_pe(World& world, const std::function<void(World&)>& body) {
  body(world);
  world.finalize();
}

/// Fork one process per PE over a fresh shared segment, each running its
/// one PE in a WorldGroup; join with crash detection and rethrow the first
/// failure as an Error naming the casualty.
void run_world_mmap(std::size_t npes, const std::function<void(World&)>& body,
                    const RuntimeConfig& cfg) {
  MmapSegment segment = MmapSegment::create(npes, cfg);
  ProcessGroup procs;
  for (pe_id pe = 0; pe < npes; ++pe) {
    procs.spawn([&, pe]() -> int {
      try {
        std::vector<std::unique_ptr<Lamellae>> mine;
        mine.push_back(std::make_unique<MmapLamellae>(segment.name(), pe, cfg));
        WorldGroup group(std::move(mine), cfg);
        run_pe(group.world(0), body);
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

}  // namespace

void run_world(std::size_t npes, const std::function<void(World&)>& body,
               RuntimeConfig cfg, PerfParams params, PeMapping mapping,
               bool virtual_time) {
  if (npes == 0) throw Error("run_world: npes must be positive");
  if (cfg.backend == BackendKind::kMmap) {
    run_world_mmap(npes, body, cfg);
    return;
  }
  // Declared first: the endpoints borrow what the PEs share.
  ShmemLamellaeGroup lamellae(
      npes, {cfg.symmetric_heap_bytes, cfg.onesided_heap_bytes}, params,
      mapping, virtual_time);
  std::vector<std::unique_ptr<Lamellae>> endpoints;
  for (pe_id pe = 0; pe < npes; ++pe) {
    endpoints.push_back(lamellae.endpoint(pe));
  }
  std::vector<std::exception_ptr> errors(npes);
  {
    WorldGroup group(std::move(endpoints), std::move(cfg));
    std::vector<std::thread> mains;
    mains.reserve(npes);
    for (pe_id pe = 0; pe < npes; ++pe) {
      mains.emplace_back([&, pe] {
        try {
          run_pe(group.world(pe), body);
        } catch (...) {
          errors[pe] = std::current_exception();
        }
      });
    }
    for (auto& t : mains) t.join();
  }
  for (auto& e : errors) {
    if (e != nullptr) std::rethrow_exception(e);
  }
}

}  // namespace lamellar
