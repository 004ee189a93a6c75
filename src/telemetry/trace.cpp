#include "telemetry/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/sync.hpp"
#include "core/thread_annotations.hpp"
#include "telemetry/metrics.hpp"

namespace bitflow::telemetry {

namespace {

constexpr std::size_t kNameCap = 48;    // span names keep 47 chars
constexpr std::size_t kDetailCap = 96;  // flight details keep 95 chars
constexpr std::size_t kTextWords = (kNameCap + kDetailCap) / 8;

/// One ring slot.  Span names are COPIED in (layer/kernel names point into
/// network internals that may be destroyed before the atexit flush of a
/// BITFLOW_TRACE session); categories are string literals, so the pointer
/// is kept.
struct TraceSlot {
  // Ordering contract: single-writer seqlock.  The owning thread writing
  // its record i stores seq = 2i+1 (relaxed) and fences release, stores the
  // payload relaxed, then publishes with a release store of 2i+2.  A reader
  // acquire-loads seq, which must be exactly 2i+2 for the record it wants,
  // copies the payload relaxed, fences acquire and re-reads seq: a changed
  // value means the owner overwrote the slot mid-copy and it is skipped.
  std::atomic<std::uint64_t> seq{0};
  // Ordering contract: payload, relaxed under the seq protocol above (every
  // field is atomic, so a torn read is defined and discarded, never a race).
  std::atomic<std::uint64_t> start_ns{0};
  std::atomic<std::uint64_t> end_ns{0};
  std::atomic<std::uint64_t> rid{0};
  std::atomic<std::uint64_t> arg{0};  // args.n for 'X', the pair id for 'a'
  std::atomic<const char*> cat{nullptr};
  std::atomic<std::uint8_t> text_len{0};  // bytes of `text` in use
  std::atomic<char> ph{'X'};              // 'X' complete, 'a' async, 'i' instant
  std::atomic<std::uint32_t> tid{0};      // writer; relaxed (rings change hands)
  // Ordering contract: relaxed, as above — name '\0' [detail '\0'], eight
  // bytes per word.
  std::atomic<std::uint64_t> text[kTextWords];
};

// Ordering contract: relaxed.  The armed session's per-thread capacity,
// written under the trace mutex; an owner that sees a value different from
// its ring's re-sizes the ring under that mutex, so nothing is published
// through this load.
std::atomic<std::size_t> g_ring_capacity{1 << 16};

/// One thread's overwrite-oldest ring.  When its thread exits the ring is
/// retired: its records stay readable until the next session arms, and the
/// next thread to register takes it over, so the ring count is bounded by
/// the most threads ever tracing at once, not by how many came and went.
struct ThreadRing {
  ThreadRing(std::size_t cap, std::uint32_t tid)
      : slots(new TraceSlot[cap]), capacity(cap), tid(tid) {}

  // `slots` and `capacity` change only on the owning thread, under the
  // trace mutex (resize below); every other reader holds that mutex.  A
  // change of owner (retire, then take-over) also happens under that
  // mutex, which orders the old owner's writes before the new owner's.
  std::unique_ptr<TraceSlot[]> slots;
  std::size_t capacity;
  // Ordering contract: written only by the owning thread — relaxed load,
  // release store after the slot's seqlock publish (resets happen under
  // the trace mutex).  Readers acquire-load it as the scan bound; each
  // slot's seqlock orders its own payload.
  std::atomic<std::uint64_t> head{0};
  std::size_t pos = 0;      // head % capacity; owning thread only
  std::uint64_t floor = 0;  // head when the session armed; trace mutex
  std::uint32_t tid;        // the owner's id; set under the trace mutex
  bool retired = false;     // the owner exited; trace mutex

  void push(const char* name, const char* detail, const char* cat,
            std::uint64_t start, std::uint64_t end, std::uint64_t arg_or_id,
            std::uint64_t req_id, char kind) noexcept;
  void resize(std::size_t cap) noexcept;
};

struct TraceState {
  // mu guards the session state (arm/flush/ring registration); recording
  // into an already-registered ring is lock-free and goes through the
  // thread_local pointer, never this struct.
  core::Mutex mu;
  bool armed BF_GUARDED_BY(mu) = false;
  bool passive BF_GUARDED_BY(mu) = false;  // armed with no output path
  std::string path BF_GUARDED_BY(mu);
  std::uint64_t t0_ns BF_GUARDED_BY(mu) = 0;
  std::uint32_t next_tid BF_GUARDED_BY(mu) = 1;
  // Ordering contract: relaxed fetch_add — ids only need uniqueness.
  std::atomic<std::uint64_t> next_async_id{1};
  // A retired ring lives until a new thread takes it over or a session
  // arms or stops.  The vector is guarded; the pointed-to rings are
  // lock-free (see above).
  std::vector<std::unique_ptr<ThreadRing>> rings BF_GUARDED_BY(mu);
};

std::uint64_t dropped_locked(TraceState& st) BF_REQUIRES(st.mu) {
  std::uint64_t total = 0;
  for (const auto& r : st.rings) {
    const std::uint64_t n = r->head.load(std::memory_order_acquire) - r->floor;
    if (n > r->capacity) total += n - r->capacity;
  }
  return total;
}

TraceState& state() {
  static TraceState* s = [] {
    auto* st = new TraceState();  // leaked: threads record at exit
    // Ring wrap is otherwise silent: surface the overwritten count through
    // the registry so dashboards see burst loss.  The registry and this
    // state are both process-lifetime leaks, so the callback never dangles;
    // it takes the trace mutex under the registry mutex (Registry mu ->
    // trace mu, one-way — nothing holding the trace mutex calls the
    // registry's locked API).
    registry().add_callback_gauge(st, "telemetry.trace.dropped", "", [st] {
      TraceState& locked = *st;
      core::MutexLock lock(locked.mu);
      return static_cast<double>(dropped_locked(locked));
    });
    registry().add_callback_gauge(st, "telemetry.trace.rings", "", [st] {
      TraceState& locked = *st;
      core::MutexLock lock(locked.mu);
      return static_cast<double>(locked.rings.size());
    });
    return st;
  }();
  return *s;
}

void ThreadRing::resize(std::size_t cap) noexcept {
  TraceState& st = state();
  core::MutexLock lock(st.mu);
  slots.reset(new TraceSlot[cap]);
  capacity = cap;
  head.store(0, std::memory_order_relaxed);
  pos = 0;
  floor = 0;
}

void ThreadRing::push(const char* name, const char* detail, const char* cat,
                      std::uint64_t start, std::uint64_t end, std::uint64_t arg_or_id,
                      std::uint64_t req_id, char kind) noexcept {
  const std::size_t want = g_ring_capacity.load(std::memory_order_relaxed);
  if (want != capacity) [[unlikely]] resize(want);
  char buf[kTextWords * 8 + 8];  // + one zeroed word of tail padding
  std::size_t len = strnlen(name, kNameCap - 1);
  std::memcpy(buf, name, len);
  buf[len++] = '\0';
  if (detail != nullptr) {
    const std::size_t n = strnlen(detail, kDetailCap - 1);
    std::memcpy(buf + len, detail, n);
    len += n;
    buf[len++] = '\0';
  }
  std::memset(buf + len, 0, 8);
  const std::uint64_t h = head.load(std::memory_order_relaxed);
  TraceSlot& s = slots[pos];
  pos = pos + 1 == capacity ? 0 : pos + 1;
  s.seq.store(2 * h + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  s.start_ns.store(start, std::memory_order_relaxed);
  s.end_ns.store(end, std::memory_order_relaxed);
  s.rid.store(req_id, std::memory_order_relaxed);
  s.arg.store(arg_or_id, std::memory_order_relaxed);
  s.cat.store(cat, std::memory_order_relaxed);
  s.ph.store(kind, std::memory_order_relaxed);
  s.text_len.store(static_cast<std::uint8_t>(len), std::memory_order_relaxed);
  s.tid.store(tid, std::memory_order_relaxed);
  for (std::size_t w = 0; w * 8 < len; ++w) {
    std::uint64_t word = 0;
    std::memcpy(&word, buf + w * 8, 8);
    s.text[w].store(word, std::memory_order_relaxed);
  }
  s.seq.store(2 * h + 2, std::memory_order_release);
  head.store(h + 1, std::memory_order_release);
}

/// Appends `r`'s live records (this session's, oldest first) to `out`.
/// Caller holds the trace mutex, which pins the ring's storage; the owner
/// may keep writing, and a slot it rewrites mid-copy is skipped.
void read_ring_locked(const ThreadRing& r, std::vector<TraceRecord>& out) {
  const std::uint64_t hi = r.head.load(std::memory_order_acquire);
  const std::uint64_t lo = std::max(r.floor, hi > r.capacity ? hi - r.capacity : 0);
  char buf[kTextWords * 8 + 1];
  for (std::uint64_t i = lo; i < hi; ++i) {
    const TraceSlot& s = r.slots[i % r.capacity];
    const std::uint64_t s1 = s.seq.load(std::memory_order_acquire);
    if (s1 != 2 * i + 2) continue;  // overwritten by a newer lap
    TraceRecord rec;
    rec.tid = s.tid.load(std::memory_order_relaxed);
    rec.seq = i;
    rec.start_ns = s.start_ns.load(std::memory_order_relaxed);
    rec.end_ns = s.end_ns.load(std::memory_order_relaxed);
    rec.rid = s.rid.load(std::memory_order_relaxed);
    const std::uint64_t arg = s.arg.load(std::memory_order_relaxed);
    rec.cat = s.cat.load(std::memory_order_relaxed);
    rec.ph = s.ph.load(std::memory_order_relaxed);
    const std::size_t len =
        std::min<std::size_t>(s.text_len.load(std::memory_order_relaxed), kTextWords * 8);
    for (std::size_t w = 0; w * 8 < len; ++w) {
      const std::uint64_t word = s.text[w].load(std::memory_order_relaxed);
      std::memcpy(buf + w * 8, &word, 8);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    if (s.seq.load(std::memory_order_relaxed) != s1) continue;  // overlapped
    buf[len] = '\0';
    rec.name = buf;
    if (rec.name.size() + 1 < len) rec.detail = buf + rec.name.size() + 1;
    if (rec.ph == 'a') {
      rec.id = arg;
    } else {
      rec.arg = static_cast<std::int64_t>(arg);
    }
    out.push_back(std::move(rec));
  }
}

// The calling thread's ring, registered on its first record.  Both are
// trivially destructible, so they stay readable while the thread's other
// thread_local destructors run; t_exited then turns recording off.
thread_local ThreadRing* t_ring = nullptr;
thread_local bool t_exited = false;

/// Retires the thread's ring when the thread exits (its destructor is
/// registered the first time the thread records).
struct RingRetirer {
  RingRetirer() = default;
  RingRetirer(const RingRetirer&) = delete;
  RingRetirer& operator=(const RingRetirer&) = delete;
  ~RingRetirer() {
    if (t_ring != nullptr) {
      TraceState& st = state();
      core::MutexLock lock(st.mu);
      t_ring->retired = true;
    }
    t_ring = nullptr;
    t_exited = true;
  }
};
thread_local RingRetirer t_retirer;

/// Null once the thread is exiting.  A new thread takes over a retired ring
/// when there is one: it keeps the previous owner's records (each slot
/// carries its writer's tid) and overwrites them oldest first.
ThreadRing* this_thread_ring() {
  if (t_ring != nullptr || t_exited) return t_ring;
  static_cast<void>(&t_retirer);
  TraceState& st = state();
  core::MutexLock lock(st.mu);
  const auto retired =
      std::find_if(st.rings.begin(), st.rings.end(), [](const auto& r) { return r->retired; });
  if (retired != st.rings.end()) {
    t_ring = retired->get();
    t_ring->retired = false;
    t_ring->tid = st.next_tid++;
  } else {
    st.rings.push_back(std::make_unique<ThreadRing>(
        g_ring_capacity.load(std::memory_order_relaxed), st.next_tid++));
    t_ring = st.rings.back().get();
  }
  return t_ring;
}

void json_escape_into(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out.push_back(c);
    }
  }
}

TraceSnapshot snapshot_locked(TraceState& st) BF_REQUIRES(st.mu) {
  TraceSnapshot snap;
  if (!st.armed) return snap;
  snap.armed = true;
  snap.t0_ns = st.t0_ns;
  snap.dropped = dropped_locked(st);
  for (const auto& r : st.rings) read_ring_locked(*r, snap.records);
  return snap;
}


/// Starts a new session on every registered ring: records written before
/// now no longer count, so the rings of exited threads are freed.
void reset_rings_locked(TraceState& st) BF_REQUIRES(st.mu) {
  std::erase_if(st.rings, [](const auto& r) { return r->retired; });
  for (auto& r : st.rings) r->floor = r->head.load(std::memory_order_relaxed);
}

/// Arms a session (file when `path` is non-empty, else passive).  Rings of
/// existing threads start over: their earlier records stop counting, and
/// each re-sizes itself to `ring_capacity` on its next record.
void arm_locked(TraceState& st, const std::string& path, std::size_t ring_capacity)
    BF_REQUIRES(st.mu) {
  st.path = path;
  st.passive = path.empty();
  g_ring_capacity.store(ring_capacity, std::memory_order_relaxed);
  st.t0_ns = detail::now_ns();
  reset_rings_locked(st);
  st.armed = true;
  detail::g_trace_enabled.store(true, std::memory_order_relaxed);
}

/// Applies BITFLOW_TRACE before main() and flushes at process exit, so any
/// binary in the tree can be traced without code changes.
const bool g_env_applied = [] {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): runs once at static init.
  const char* path = std::getenv("BITFLOW_TRACE");
  if (path == nullptr || path[0] == '\0') return false;
  try {
    trace_start(path);
    std::atexit([] {
      const std::size_t n = trace_stop();
      std::fprintf(stderr, "[bitflow] trace: wrote %zu events to %s\n", n,
                   std::getenv("BITFLOW_TRACE"));  // NOLINT(concurrency-mt-unsafe)
    });
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[bitflow] ignoring BITFLOW_TRACE: %s\n", e.what());
  }
  return true;
}();

}  // namespace

namespace detail {

// Ordering contract: relaxed (see trace.hpp — the flag publishes nothing).
std::atomic<bool> g_trace_enabled{false};

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void trace_record(const char* name, const char* cat, std::uint64_t start_ns,
                  std::uint64_t end_ns, std::int64_t arg, std::uint64_t rid) {
  if (ThreadRing* r = this_thread_ring()) {
    r->push(name, nullptr, cat, start_ns, end_ns, static_cast<std::uint64_t>(arg), rid, 'X');
  }
}

void trace_record_async(const char* name, const char* cat, std::uint64_t start_ns,
                        std::uint64_t end_ns, std::uint64_t id, std::uint64_t rid) {
  if (ThreadRing* r = this_thread_ring()) {
    r->push(name, nullptr, cat, start_ns, end_ns, id, rid, 'a');
  }
}

void trace_record_instant(const char* name, const char* cat, std::uint64_t ts_ns,
                          std::uint64_t rid, const char* detail) noexcept {
  if (ThreadRing* r = this_thread_ring()) {
    r->push(name, detail, cat, ts_ns, ts_ns, static_cast<std::uint64_t>(-1), rid, 'i');
  }
}

}  // namespace detail


void trace_start(const std::string& path, std::size_t ring_capacity) {
  if (path.empty()) throw std::invalid_argument("trace_start: empty path");
  if (ring_capacity < 16) throw std::invalid_argument("trace_start: ring too small");
  TraceState& st = state();
  core::MutexLock lock(st.mu);
  if (st.armed) throw std::logic_error("trace_start: trace already armed");
  arm_locked(st, path, ring_capacity);
}

void trace_arm_passive(std::size_t ring_capacity) {
  if (ring_capacity < 16) {
    throw std::invalid_argument("trace_arm_passive: ring too small");
  }
  TraceState& st = state();
  core::MutexLock lock(st.mu);
  if (st.armed) return;  // existing session (either kind) serves snapshots
  arm_locked(st, {}, ring_capacity);
}

std::uint64_t trace_dropped_events() {
  TraceState& st = state();
  core::MutexLock lock(st.mu);
  return dropped_locked(st);
}

TraceSnapshot trace_snapshot() {
  TraceState& st = state();
  core::MutexLock lock(st.mu);
  return snapshot_locked(st);
}

std::string trace_render_json(const TraceSnapshot& snap, std::size_t* events_out) {
  std::string out;
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  std::size_t written = 0;
  auto emit = [&](const TraceRecord& ev, double ts_us, double dur_us, char ph) {
    if (written != 0) out += ",\n";
    out += "{\"name\":\"";
    json_escape_into(out, ev.name.c_str());
    out += "\",\"cat\":\"";
    json_escape_into(out, ev.cat);
    out += "\",\"ph\":\"";
    out += ph;
    out += "\",\"pid\":1,\"tid\":";
    out += std::to_string(ev.tid);
    char buf[96];
    std::snprintf(buf, sizeof buf, ",\"ts\":%.3f", ts_us);
    out += buf;
    if (ph == 'X') {
      std::snprintf(buf, sizeof buf, ",\"dur\":%.3f", dur_us);
      out += buf;
    }
    if (ph == 'i') out += ",\"s\":\"t\"";
    if (ph == 'b' || ph == 'e') {
      out += ",\"id\":\"";
      out += std::to_string(ev.id);
      out += '"';
    }
    const bool n = ph == 'X' && ev.arg >= 0;
    if (n || ev.rid != 0 || !ev.detail.empty()) {
      out += ",\"args\":{";
      const char* sep = "";
      if (n) {
        out += "\"n\":" + std::to_string(ev.arg);
        sep = ",";
      }
      if (ev.rid != 0) {
        out += sep;
        out += "\"rid\":" + std::to_string(ev.rid);
        sep = ",";
      }
      if (!ev.detail.empty()) {
        out += sep;
        out += "\"detail\":\"";
        json_escape_into(out, ev.detail.c_str());
        out += '"';
      }
      out += '}';
    }
    out += '}';
    ++written;
  };

  for (const TraceRecord& ev : snap.records) {
    // Clamp events that straddled arming (an armed span can begin before t0
    // if arming raced its constructor — harmless, clamp to 0).
    const double ts_us = ev.start_ns >= snap.t0_ns
                             ? static_cast<double>(ev.start_ns - snap.t0_ns) / 1000.0
                             : 0.0;
    const double dur_us = ev.end_ns >= ev.start_ns
                              ? static_cast<double>(ev.end_ns - ev.start_ns) / 1000.0
                              : 0.0;
    if (ev.ph == 'a') {
      emit(ev, ts_us, 0.0, 'b');
      emit(ev, ts_us + dur_us, 0.0, 'e');
    } else {
      emit(ev, ts_us, dur_us, ev.ph);
    }
  }
  // Footer: stamp the overwritten count into the trace so a consumer knows
  // how far back the timeline reaches (also exported live as the
  // telemetry.trace.dropped registry gauge).
  if (written != 0) out += ",\n";
  out += "{\"name\":\"trace_dropped_events\",\"cat\":\"meta\",\"ph\":\"C\",\"pid\":1,"
         "\"tid\":0,\"ts\":0,\"args\":{\"dropped\":";
  out += std::to_string(snap.dropped);
  out += "}}";
  ++written;
  out += "\n]}\n";
  if (events_out != nullptr) *events_out = written;
  return out;
}

std::string trace_snapshot_json() {
  const TraceSnapshot snap = trace_snapshot();
  return snap.armed ? trace_render_json(snap) : std::string();
}

std::size_t trace_stop() {
  TraceState& st = state();
  core::MutexLock lock(st.mu);
  if (!st.armed) return 0;
  detail::g_trace_enabled.store(false, std::memory_order_relaxed);
  std::size_t written = 0;
  if (!st.passive) {
    const std::string json = trace_render_json(snapshot_locked(st), &written);
    std::FILE* f = std::fopen(st.path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "[bitflow] trace: cannot open '%s'\n", st.path.c_str());
      written = 0;
    } else {
      std::fputs(json.c_str(), f);
      std::fclose(f);
    }
  }
  st.armed = false;
  st.passive = false;
  reset_rings_locked(st);
  return written;
}

/// Fresh id for an async interval (request lifetimes).
std::uint64_t trace_next_async_id() {
  return state().next_async_id.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace bitflow::telemetry
