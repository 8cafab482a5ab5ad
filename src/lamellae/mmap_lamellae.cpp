#include "lamellae/mmap_lamellae.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <new>
#include <random>

#include "common/error.hpp"
#include "common/futex.hpp"
#include "common/process_group.hpp"

namespace lamellar {

namespace {

// /dev/shm entry prefix (no leading slash); shm_open names add the slash.
constexpr const char* kPrefix = "lamellar_mp.";

constexpr std::size_t kPage = 4096;

std::uint64_t now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Ring records are [u64 length][payload] rounded up to 8 bytes, so the
/// length word itself never wraps (ring capacity is a multiple of 8 and the
/// write cursor always lands on an 8-byte boundary).
std::size_t record_bytes(std::size_t payload) {
  return align_up(sizeof(std::uint64_t) + payload, 8);
}

/// Parse the creator pid embedded in "lamellar_mp.<pid>.<seq>.<rand>".
/// Returns -1 when the entry does not match the naming scheme.
pid_t creator_pid_of(const std::string& entry) {
  const std::size_t plen = std::strlen(kPrefix);
  if (entry.rfind(kPrefix, 0) != 0) return -1;
  const std::size_t dot = entry.find('.', plen);
  if (dot == std::string::npos) return -1;
  try {
    return static_cast<pid_t>(std::stol(entry.substr(plen, dot - plen)));
  } catch (...) {
    return -1;
  }
}

std::vector<std::string> shm_entries_with_prefix(const std::string& prefix) {
  std::vector<std::string> out;
  DIR* d = opendir("/dev/shm");
  if (d == nullptr) return out;
  while (dirent* e = readdir(d)) {
    if (std::string(e->d_name).rfind(prefix, 0) == 0) out.emplace_back(e->d_name);
  }
  closedir(d);
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// MmapSegment (parent side)
// ---------------------------------------------------------------------------

MmapSegment::MmapSegment(std::string name, void* map, std::size_t bytes)
    : name_(std::move(name)), map_(map), bytes_(bytes) {}

MmapSegment::MmapSegment(MmapSegment&& o) noexcept
    : name_(std::move(o.name_)),
      map_(o.map_),
      bytes_(o.bytes_),
      unlinked_(o.unlinked_) {
  o.map_ = nullptr;
  o.unlinked_ = true;
}

MmapSegment::~MmapSegment() {
  if (map_ != nullptr) munmap(map_, bytes_);
  unlink();
}

void MmapSegment::unlink() {
  if (unlinked_ || name_.empty()) return;
  shm_unlink(name_.c_str());
  unlinked_ = true;
}

MmapSegment MmapSegment::create(std::size_t num_pes,
                                const RuntimeConfig& cfg) {
  if (num_pes == 0) throw Error("MmapSegment: num_pes must be > 0");
  cleanup_orphans();

  // Geometry.  Rings must hold at least one full aggregation buffer plus
  // headroom, or a flushed lane could never be sent even on an idle ring.
  const std::size_t ring_bytes = align_up(
      std::max(cfg.mp_ring_bytes, 2 * cfg.agg_threshold_bytes + kPage), kPage);
  const std::size_t arena_bytes = kReservedArenaBytes +
                                  cfg.symmetric_heap_bytes +
                                  cfg.onesided_heap_bytes;
  const std::size_t arena_stride = align_up(arena_bytes, kPage);
  const std::size_t slots_off = align_up(sizeof(mpshm::MpControl), 64);
  const std::size_t rings_off =
      align_up(slots_off + num_pes * sizeof(mpshm::MpPeSlot), 64);
  const std::size_t ring_data_off = align_up(
      rings_off + num_pes * num_pes * sizeof(mpshm::MpRingHdr), kPage);
  const std::size_t arenas_off =
      align_up(ring_data_off + num_pes * num_pes * ring_bytes, kPage);
  const std::size_t total = arenas_off + num_pes * arena_stride;

  // Pick an unused name: creator pid (for orphan sweeps), a process-local
  // sequence number, and a random disambiguator against pid reuse.
  static std::atomic<std::uint64_t> seq{0};
  std::random_device rd;
  std::string name;
  int fd = -1;
  for (int attempt = 0; attempt < 16; ++attempt) {
    name = std::string("/") + kPrefix + std::to_string(getpid()) + "." +
           std::to_string(seq.fetch_add(1)) + "." + std::to_string(rd() & 0xFFFFFF);
    fd = shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
    if (fd >= 0) break;
    if (errno != EEXIST) {
      throw Error("MmapSegment: shm_open(" + name +
                  ") failed: " + std::strerror(errno));
    }
  }
  if (fd < 0) throw Error("MmapSegment: could not find a free segment name");

  if (ftruncate(fd, static_cast<off_t>(total)) != 0) {
    const std::string why = std::strerror(errno);
    close(fd);
    shm_unlink(name.c_str());
    throw Error("MmapSegment: ftruncate to " + std::to_string(total) +
                " bytes failed: " + why + " (shrink LAMELLAR_SYM_HEAP / "
                "LAMELLAR_ONESIDED_HEAP or raise /dev/shm)");
  }
  void* map = mmap(nullptr, total, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  close(fd);
  if (map == MAP_FAILED) {
    shm_unlink(name.c_str());
    throw Error("MmapSegment: mmap failed: " + std::string(std::strerror(errno)));
  }

  auto* base = static_cast<std::byte*>(map);
  auto* ctl = new (base) mpshm::MpControl{};
  ctl->version = mpshm::kVersion;
  ctl->num_pes = static_cast<std::uint32_t>(num_pes);
  ctl->creator_pid = getpid();
  ctl->slots_off = slots_off;
  ctl->rings_off = rings_off;
  ctl->ring_data_off = ring_data_off;
  ctl->ring_bytes = ring_bytes;
  ctl->arenas_off = arenas_off;
  ctl->arena_stride = arena_stride;
  ctl->arena_bytes = arena_bytes;
  ctl->total_bytes = total;
  ctl->symmetric_bytes = cfg.symmetric_heap_bytes;
  ctl->onesided_bytes = cfg.onesided_heap_bytes;
  for (std::size_t p = 0; p < num_pes; ++p) {
    new (base + slots_off + p * sizeof(mpshm::MpPeSlot)) mpshm::MpPeSlot{};
  }
  for (std::size_t r = 0; r < num_pes * num_pes; ++r) {
    new (base + rings_off + r * sizeof(mpshm::MpRingHdr)) mpshm::MpRingHdr{};
  }
  // Publish the magic last: attachers validate it before trusting geometry.
  ctl->magic = mpshm::kMagic;
  return MmapSegment(std::move(name), map, total);
}

void MmapSegment::mark_pe_dead(pe_id pe) {
  if (map_ == nullptr) return;
  auto* base = static_cast<std::byte*>(map_);
  auto* ctl = reinterpret_cast<mpshm::MpControl*>(base);
  if (pe >= ctl->num_pes) return;
  auto* slot = reinterpret_cast<mpshm::MpPeSlot*>(
      base + ctl->slots_off + pe * sizeof(mpshm::MpPeSlot));
  std::uint32_t expected = mpshm::kJoined;
  if (!slot->state.compare_exchange_strong(expected, mpshm::kDead,
                                           std::memory_order_acq_rel)) {
    if (expected == mpshm::kEmpty) {
      slot->state.store(mpshm::kDead, std::memory_order_release);
    }
  }
  // Wake barrier waiters WITHOUT changing the generation: they re-check
  // liveness and diagnose the casualty instead of sleeping out the slice.
  futex_wake(&ctl->bar_gen);
}

int MmapSegment::cleanup_orphans() {
  int swept = 0;
  for (const auto& entry : shm_entries_with_prefix(kPrefix)) {
    const pid_t creator = creator_pid_of(entry);
    if (creator <= 0) continue;
    if (ProcessGroup::alive(creator)) continue;
    if (shm_unlink(("/" + entry).c_str()) == 0) ++swept;
  }
  return swept;
}

std::vector<std::string> MmapSegment::segments_of(std::int32_t creator) {
  std::vector<std::string> out;
  const std::string want = std::string(kPrefix) + std::to_string(creator) + ".";
  for (const auto& entry : shm_entries_with_prefix(want)) {
    out.push_back("/" + entry);
  }
  return out;
}

// ---------------------------------------------------------------------------
// MmapLamellae (child side)
// ---------------------------------------------------------------------------

MmapLamellae::Mapping MmapLamellae::map_segment(const std::string& name,
                                                pe_id pe) {
  const int fd = shm_open(name.c_str(), O_RDWR, 0);
  if (fd < 0) {
    throw Error("MmapLamellae: shm_open(" + name +
                ") failed: " + std::strerror(errno));
  }
  struct stat st{};
  if (fstat(fd, &st) != 0) {
    close(fd);
    throw Error("MmapLamellae: fstat failed: " +
                std::string(std::strerror(errno)));
  }
  Mapping m;
  m.bytes = static_cast<std::size_t>(st.st_size);
  void* map = mmap(nullptr, m.bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd,
                   0);
  close(fd);
  if (map == MAP_FAILED) {
    throw Error("MmapLamellae: mmap failed: " +
                std::string(std::strerror(errno)));
  }
  m.base = static_cast<std::byte*>(map);
  if (m.ctl().magic != mpshm::kMagic || m.ctl().version != mpshm::kVersion) {
    munmap(map, m.bytes);
    throw Error("MmapLamellae: " + name + " is not a valid segment");
  }
  if (pe >= m.ctl().num_pes) {
    munmap(map, m.bytes);
    throw Error("MmapLamellae: pe " + std::to_string(pe) + " out of range");
  }
  return m;
}

MmapLamellae::MmapLamellae(const std::string& segment_name, pe_id pe,
                           const RuntimeConfig& cfg)
    : MmapLamellae(map_segment(segment_name, pe), segment_name, pe, cfg) {}

MmapLamellae::MmapLamellae(Mapping map, const std::string& segment_name,
                           pe_id pe, const RuntimeConfig& cfg)
    // The symmetric heap is this process's own replica: it runs one PE.
    : Lamellae(pe, map.ctl().num_pes, map.layout(),
               std::make_shared<SymmetricHeap>(map.layout(),
                                               map.ctl().num_pes, 1)),
      name_(segment_name),
      map_(map.base),
      map_bytes_(map.bytes),
      ctl_(&map.ctl()),
      barrier_timeout_ms_(cfg.mp_barrier_timeout_ms),
      buffer_pool_(lane_pool_bound(num_pes())),
      params_(paper_perf_params()),
      backpressure_waits_(&metrics().counter("mp.backpressure_waits")),
      ring_wakes_(&metrics().counter("mp.ring_wakes")),
      barrier_futex_waits_(&metrics().counter("mp.barrier_futex_waits")) {
  send_mu_.reserve(num_pes());
  for (std::size_t i = 0; i < num_pes(); ++i) {
    send_mu_.push_back(std::make_unique<std::mutex>());
  }
  auto& me = slot(pe);
  me.pid.store(getpid(), std::memory_order_relaxed);
  me.state.store(mpshm::kJoined, std::memory_order_release);
}

MmapLamellae::~MmapLamellae() {
  mark_exited();
  if (map_ != nullptr) munmap(map_, map_bytes_);
}

void MmapLamellae::mark_exited() {
  if (ctl_ == nullptr) return;
  auto& me = slot(my_pe());
  std::uint32_t expected = mpshm::kJoined;
  if (me.state.compare_exchange_strong(expected, mpshm::kExited,
                                       std::memory_order_acq_rel)) {
    // A peer parked in a barrier must notice: a cleanly-exited PE that never
    // arrives is as fatal to the collective as a crashed one.
    futex_wake(&ctl_->bar_gen);
  }
}

// ---- message transport ----------------------------------------------------

bool MmapLamellae::try_send(pe_id dst, ByteBuffer& buf) {
  check_pe("mmap send", dst, num_pes());
  const std::size_t n = buf.size();
  const std::size_t need = record_bytes(n);
  const std::size_t cap = ctl_->ring_bytes;
  if (need > cap) {
    throw Error("MmapLamellae: " + std::to_string(n) +
                "-byte message exceeds the " + std::to_string(cap) +
                "-byte ring; raise LAMELLAR_MP_RING");
  }
  std::lock_guard lk(*send_mu_[dst]);
  auto& hdr = ring_hdr(dst, my_pe());
  const std::uint64_t tail = hdr.tail.load(std::memory_order_relaxed);
  std::uint64_t head = hdr.head.load(std::memory_order_acquire);
  if (tail + need - head > cap) {
    // Backpressured: nap briefly on the consumer's progress word rather
    // than spinning — the standard set-flag / re-check / wait sequence so a
    // concurrent consumer either sees the flag or already moved head.
    backpressure_waits_->inc();
    hdr.producer_waiting.store(1, std::memory_order_seq_cst);
    const std::uint32_t seen = hdr.head_seq.load(std::memory_order_acquire);
    if (hdr.head.load(std::memory_order_seq_cst) == head) {
      futex_wait(&hdr.head_seq, seen, 200'000);  // 200 us slice
    }
    hdr.producer_waiting.store(0, std::memory_order_relaxed);
    head = hdr.head.load(std::memory_order_acquire);
    if (tail + need - head > cap) return false;  // caller makes progress
  }
  std::byte* data = ring_data(dst, my_pe());
  const std::size_t pos = tail % cap;
  const std::uint64_t len = n;
  std::memcpy(data + pos, &len, sizeof(len));  // never wraps (8-aligned)
  const std::size_t body = (pos + sizeof(len)) % cap;
  const std::size_t first = std::min(n, cap - body);
  if (first > 0) std::memcpy(data + body, buf.data(), first);
  if (n > first) std::memcpy(data, buf.data() + first, n - first);
  hdr.tail.store(tail + need, std::memory_order_release);
  buf.clear();
  fabric_counters_.msgs_sent->inc();
  fabric_counters_.bytes_sent->inc(n);
  return true;
}

bool MmapLamellae::poll(FabricMessage& out) {
  std::lock_guard lk(poll_mu_);
  const std::size_t cap = ctl_->ring_bytes;
  for (std::size_t i = 0; i < num_pes(); ++i) {
    const pe_id src = (poll_cursor_ + i) % num_pes();
    auto& hdr = ring_hdr(my_pe(), src);
    const std::uint64_t head = hdr.head.load(std::memory_order_relaxed);
    const std::uint64_t tail = hdr.tail.load(std::memory_order_acquire);
    if (head == tail) continue;
    const std::byte* data = ring_data(my_pe(), src);
    const std::size_t pos = head % cap;
    std::uint64_t len = 0;
    std::memcpy(&len, data + pos, sizeof(len));
    const std::size_t need = record_bytes(len);
    std::vector<std::byte> payload(len);
    const std::size_t body = (pos + sizeof(len)) % cap;
    const std::size_t first = std::min<std::size_t>(len, cap - body);
    if (first > 0) std::memcpy(payload.data(), data + body, first);
    if (len > first) std::memcpy(payload.data() + first, data, len - first);
    hdr.head.store(head + need, std::memory_order_release);
    hdr.head_seq.store(static_cast<std::uint32_t>(head + need),
                       std::memory_order_seq_cst);
    if (hdr.producer_waiting.exchange(0, std::memory_order_acq_rel) != 0) {
      futex_wake(&hdr.head_seq);
      ring_wakes_->inc();
    }
    out.src = src;
    out.payload = ByteBuffer(std::move(payload));
    poll_cursor_ = (src + 1) % num_pes();
    fabric_counters_.msgs_polled->inc();
    return true;
  }
  return false;
}

bool MmapLamellae::inbox_empty() const {
  for (std::size_t src = 0; src < num_pes(); ++src) {
    const auto& hdr = ring_hdr(my_pe(), src);
    if (hdr.head.load(std::memory_order_acquire) !=
        hdr.tail.load(std::memory_order_acquire)) {
      return false;
    }
  }
  return true;
}

// ---- barrier --------------------------------------------------------------

void MmapLamellae::rethrow_barrier_abort() const {
  throw Error("MmapLamellae: barrier aborted (PE " +
              std::to_string(
                  ctl_->bar_abort_pe.load(std::memory_order_relaxed)) +
              " reported dead or stalled)");
}

void MmapLamellae::abort_barrier(pe_id culprit, const std::string& why) {
  ctl_->bar_abort_pe.store(static_cast<std::uint32_t>(culprit),
                           std::memory_order_relaxed);
  ctl_->bar_abort.store(1, std::memory_order_release);
  futex_wake(&ctl_->bar_gen);
  throw Error("MmapLamellae: barrier aborted: " + why);
}

void MmapLamellae::barrier() {
  if (ctl_->bar_abort.load(std::memory_order_acquire) != 0) {
    rethrow_barrier_abort();
  }
  fabric_counters_.barriers->inc();
  // bar_word packs (generation << 32) | arrived in one word, so the count
  // reset and the generation bump are a single atomic store — a fast peer
  // re-entering the next barrier can never race a half-reset round.
  const std::uint64_t prev =
      ctl_->bar_word.fetch_add(1, std::memory_order_acq_rel);
  const std::uint32_t gen = static_cast<std::uint32_t>(prev >> 32);
  const std::uint32_t arrived = static_cast<std::uint32_t>(prev) + 1;
  slot(my_pe()).bar_seen.store(gen + 1, std::memory_order_release);
  if (arrived == ctl_->num_pes) {
    ctl_->bar_word.store(static_cast<std::uint64_t>(gen + 1) << 32,
                         std::memory_order_release);
    ctl_->bar_gen.store(gen + 1, std::memory_order_release);
    futex_wake(&ctl_->bar_gen);
    return;
  }
  constexpr std::int64_t kSliceNs = 50'000'000;  // 50 ms liveness slices
  const std::uint64_t deadline = now_ms() + barrier_timeout_ms_;
  while (ctl_->bar_gen.load(std::memory_order_acquire) == gen) {
    if (ctl_->bar_abort.load(std::memory_order_acquire) != 0) {
      rethrow_barrier_abort();
    }
    barrier_futex_waits_->inc();
    futex_wait(&ctl_->bar_gen, gen, kSliceNs);
    if (ctl_->bar_gen.load(std::memory_order_acquire) != gen) return;
    // Liveness sweep: a peer that died (or cleanly exited) without arriving
    // will never arrive — abort with its name instead of hanging.
    for (pe_id p = 0; p < num_pes(); ++p) {
      if (p == my_pe()) continue;
      const auto& s = slot(p);
      if (s.bar_seen.load(std::memory_order_acquire) > gen) continue;
      const std::uint32_t st = s.state.load(std::memory_order_acquire);
      const pid_t pid = s.pid.load(std::memory_order_relaxed);
      const bool dead =
          st == mpshm::kDead || st == mpshm::kExited ||
          (st == mpshm::kJoined && pid > 0 && !ProcessGroup::alive(pid));
      if (dead) {
        abort_barrier(
            p, "PE " + std::to_string(p) +
                   (st == mpshm::kExited ? " exited without arriving"
                                         : " died") +
                   " during barrier generation " + std::to_string(gen));
      }
    }
    if (now_ms() > deadline) {
      std::string stragglers;
      pe_id first = my_pe();
      for (pe_id p = 0; p < num_pes(); ++p) {
        if (p == my_pe() || slot(p).bar_seen.load(std::memory_order_acquire) > gen)
          continue;
        if (first == my_pe()) first = p;
        stragglers += (stragglers.empty() ? "" : ", ") + std::to_string(p);
      }
      abort_barrier(first, "timed out after " +
                               std::to_string(barrier_timeout_ms_) +
                               " ms waiting for PE(s) " +
                               (stragglers.empty() ? "?" : stragglers));
    }
  }
}

void MmapLamellae::barrier(SenseBarrier& team, std::size_t /*rank*/) {
  if (team.participants() != num_pes()) {
    throw Error("Team::barrier: sub-team barrier under a process-separated "
                "backend");
  }
  barrier();
}

}  // namespace lamellar
