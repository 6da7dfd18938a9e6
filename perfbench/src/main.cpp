// RomulusDB benchmark: one closed-loop workload per run over RomulusDB
// (RomulusLog, shard count 1, CLWB flush profile, program defaults).
//
//   romulusdb_bench --workload point_1t|batch_1t|mixed_4t --seed N
//                   --seconds S --trace 0|1 [--plant none|model|corrupt|
//                   crash-commit]
//
// A run sets up a fresh heap several times (setup_s is their median), runs
// a warm-up and then a fixed number of client calls (S seconds' worth at a
// nominal rate, so the same arguments always do the same work), checks
// every reply against the benchmark's own model, scans the whole store
// against the model, and restarts the store from a heap left in MUT by a
// killed child several times (recover_s is their median).  The last line of
// standard output is one JSON object: end-to-end metrics with --trace 0,
// per-layer metrics from a timestamping SimHooks sink with --trace 1.
// --plant deliberately breaks one check, to show that the checks fire.
#include <pthread.h>
#include <sched.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "codec.hpp"
#include "core/engine_globals.hpp"
#include "core/romulus.hpp"
#include "counters.hpp"
#include "db/romulusdb.hpp"
#include "pmem/flush.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using romulus::RomulusLog;
using romulus::db::RomulusDB;
using romulus::db::WriteBatch;
using romulus::db::WriteOptions;

constexpr WriteOptions kWrite{};

struct Options {
    std::string workload;
    uint64_t seed = 1;
    unsigned seconds = 10;
    bool trace = false;
    std::string plant = "none";
};

struct Spec {
    const char* name;
    unsigned clients;
    uint64_t keys;       ///< live keys after set-up
    uint64_t spare;      ///< extra ids that inserts draw from
    size_t val_len;      ///< value bytes (key bytes are kKeyLen)
    size_t heap_mib;     ///< heap file size (pages are touched lazily)
    double calls_per_s;  ///< nominal rate: calls in a run = rate * seconds
    unsigned setups;     ///< set-ups per run (median reported)
    unsigned restarts;   ///< crash restarts on the final heap (each set-up
                         ///< heap gets one more; median reported)
};

constexpr Spec kSpecs[] = {
    {"point_1t", 1, 1000000, 50000, 100, 768, 270000, 3, 7},
    {"batch_1t", 1, 50000, 0, 256, 96, 20000, 15, 5},
    {"mixed_4t", 4, 200000, 0, 100, 160, 800000, 7, 7},
};

constexpr size_t kBatchPuts = 32;        // puts per batch_1t Write
constexpr size_t kSetupBatch = 1024;     // puts per set-up Write
constexpr size_t kCrashWrites = 256;     // overwrites in the crashed tx
constexpr unsigned kPointRound = 20;     // ops per point_1t round
constexpr unsigned kPhases = 20;         // measured sub-phases per run
constexpr std::chrono::milliseconds kRestartGap{250};

// ---------------------------------------------------------------------------
// Heap: an anonymous tmpfs file (memfd), reached through /proc/self/fd so
// the engine opens it by path.  It lives only as long as the process and a
// forked child inherits it, which the crash-restart step needs.
// ---------------------------------------------------------------------------
class MemHeap {
  public:
    MemHeap() : fd_(::memfd_create("romulusdb-bench-heap", 0)) {
        if (fd_ < 0) throw std::runtime_error("memfd_create failed");
        path_ = "/proc/self/fd/" + std::to_string(fd_);
    }
    ~MemHeap() { ::close(fd_); }
    MemHeap(const MemHeap&) = delete;
    MemHeap& operator=(const MemHeap&) = delete;
    const std::string& path() const { return path_; }

  private:
    int fd_;
    std::string path_;
};

// ---------------------------------------------------------------------------
// The benchmark's own model of every key.
// ---------------------------------------------------------------------------
struct Model {
    uint64_t salt = 0;
    size_t val_len = 0;
    std::vector<uint32_t> ver;  ///< version of each id's current value
    std::vector<uint8_t> live;
    uint64_t live_count = 0;
    // Dense pools for uniform choice of a live / dead id (point_1t).
    std::vector<uint32_t> live_ids, dead_ids, pos;

    void init(uint64_t nlive, uint64_t nspare) {
        const uint64_t n = nlive + nspare;
        ver.assign(n, 0);
        live.assign(n, 0);
        pos.assign(n, 0);
        live_ids.clear();
        dead_ids.clear();
        for (uint64_t id = 0; id < n; ++id) {
            auto& pool = id < nlive ? live_ids : dead_ids;
            pos[id] = uint32_t(pool.size());
            pool.push_back(uint32_t(id));
            live[id] = id < nlive;
        }
        live_count = nlive;
    }
    void move(uint32_t id, bool to_live) {
        auto& from = to_live ? dead_ids : live_ids;
        auto& to = to_live ? live_ids : dead_ids;
        const uint32_t last = from.back();
        from[pos[id]] = last;
        pos[last] = pos[id];
        from.pop_back();
        pos[id] = uint32_t(to.size());
        to.push_back(id);
        live[id] = to_live;
        live_count += to_live ? 1 : -1;
    }
    std::string key(uint64_t id) const { return key_string(id, salt); }
    std::string value(uint64_t id, uint64_t version) const {
        std::string v(val_len, '\0');
        make_value(id, version, salt, val_len, v.data());
        return v;
    }
    /// True when `v` is id's value with a version in [lo, hi].
    bool value_ok(std::string_view v, uint64_t id, uint64_t lo,
                  uint64_t hi) const {
        uint64_t got_id, got_ver;
        return parse_value(v, val_len, &got_id, &got_ver) && got_id == id &&
               got_ver >= lo && got_ver <= hi;
    }
};

/// Failed operations, with the first few reasons kept for stderr.
class Failures {
  public:
    void add(const std::string& why) {
        std::lock_guard<std::mutex> g(mu_);
        if (++n_ <= 5) std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
    }
    uint64_t count() const {
        std::lock_guard<std::mutex> g(mu_);
        return n_;
    }

  private:
    mutable std::mutex mu_;
    uint64_t n_ = 0;
};

// ---------------------------------------------------------------------------
// Host facts
// ---------------------------------------------------------------------------
std::vector<int> allowed_cpus() {
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> out;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &set)) out.push_back(c);
    if (out.empty()) out.push_back(0);
    return out;
}

void pin_to(int cpu) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

/// Spins `n` pinned threads for a short window and returns their summed
/// iteration count.
uint64_t spin_iterations(const std::vector<int>& cpus, size_t n) {
    std::atomic<bool> stop{false};
    std::vector<uint64_t> iters(n, 0);
    std::vector<std::thread> ts;
    for (size_t i = 0; i < n; ++i)
        ts.emplace_back([&, i] {
            pin_to(cpus[i % cpus.size()]);
            uint64_t k = 0, x = i + 1;
            while (!stop.load(std::memory_order_relaxed))
                for (int j = 0; j < 256; ++j, ++k) x = mix64(x);
            iters[i] = k + (x & 1);
        });
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    stop.store(true);
    for (auto& t : ts) t.join();
    uint64_t sum = 0;
    for (uint64_t v : iters) sum += v;
    return sum;
}

void print_host_facts(const Spec& spec, const Options& opt) {
    namespace pm = romulus::pmem;
    const auto cpus = allowed_cpus();
    const double one = double(spin_iterations(cpus, 1));
    const double all = double(spin_iterations(cpus, cpus.size()));
    std::printf(
        "# host: nproc=%ld allowed_cpus=%zu effective_cpus=%.2f "
        "flush_profile=%s cpu_flags=%s%s%s\n",
        sysconf(_SC_NPROCESSORS_ONLN), cpus.size(), one > 0 ? all / one : 0.0,
        pm::profile_name(pm::effective_profile()),
        pm::cpu_has_clwb() ? "clwb," : "",
        pm::cpu_has_clflushopt() ? "clflushopt," : "",
        pm::cpu_has_avx() ? "avx" : "");
    std::printf(
        "# workload=%s seed=%llu seconds=%u trace=%d clients=%u keys=%llu "
        "value_bytes=%zu plant=%s\n",
        spec.name, static_cast<unsigned long long>(opt.seed), opt.seconds,
        int(opt.trace), spec.clients, static_cast<unsigned long long>(spec.keys),
        spec.val_len, opt.plant.c_str());
}

// ---------------------------------------------------------------------------
// Statistics helpers
// ---------------------------------------------------------------------------
double quantile(std::vector<uint32_t> v, double q) {
    if (v.empty()) return 0;
    const size_t k = std::min(v.size() - 1, size_t(q * double(v.size())));
    std::nth_element(v.begin(), v.begin() + long(k), v.end());
    return double(v[k]);
}

double median(std::vector<double> v) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// ---------------------------------------------------------------------------
// Clients
// ---------------------------------------------------------------------------
struct ClientOut {
    std::vector<uint32_t> upd_ns, get_ns;
    std::vector<uint32_t> upd_wait_ns, self_ns;  // traced runs only
    std::vector<TxSpans> spans;                  // traced runs only
    uint64_t upd_calls = 0, get_calls = 0, user_bytes = 0;
    uint64_t calls = 0;  ///< every call, warm-up included
    /// Where each measured sub-phase starts in upd_ns / get_ns (plus the
    /// end of the last one), and how long this client took for each.
    std::vector<size_t> upd_mark, get_mark;
    std::vector<uint64_t> phase_ns;
    Counters delta;
};

/// One client thread's view of the run: timing, checks and counters.
class Client {
  public:
    Client(ClientOut& out, Failures& fail, bool traced)
        : out_(out), fail_(fail), traced_(traced) {}

    void begin_measure(uint64_t expected_calls) {
        measuring_ = true;
        out_.upd_ns.reserve(expected_calls);
        out_.get_ns.reserve(expected_calls);
        if (traced_) {
            out_.upd_wait_ns.reserve(expected_calls);
            out_.self_ns.reserve(expected_calls);
            PhaseTracer::records().clear();
            PhaseTracer::records().reserve(expected_calls);
        }
        start_ = snapshot();
    }
    void mark_phase() {
        out_.upd_mark.push_back(out_.upd_ns.size());
        out_.get_mark.push_back(out_.get_ns.size());
    }
    void end_measure() {
        out_.delta = snapshot() - start_;
        if (traced_) out_.spans = std::move(PhaseTracer::records());
        measuring_ = false;
    }

    template <typename F>
    void update(uint64_t user_bytes, F&& f) {
        const uint64_t own0 = traced_ ? PhaseTracer::own_tx_ns() : 0;
        const uint64_t t0 = now_ns();
        f();
        const uint64_t dt = now_ns() - t0;
        out_.calls++;
        if (!measuring_) return;
        out_.upd_ns.push_back(uint32_t(dt));
        out_.upd_calls++;
        out_.user_bytes += user_bytes;
        if (traced_) {
            const uint64_t own = PhaseTracer::own_tx_ns() - own0;
            const uint32_t rest = uint32_t(dt - std::min(own, dt));
            out_.upd_wait_ns.push_back(rest);
            if (own > 0) out_.self_ns.push_back(rest);
        }
    }
    template <typename F>
    auto get(F&& f) {
        const uint64_t t0 = now_ns();
        auto r = f();
        const uint64_t dt = now_ns() - t0;
        out_.calls++;
        if (measuring_) {
            out_.get_ns.push_back(uint32_t(dt));
            out_.get_calls++;
        }
        return r;
    }
    void fail(const std::string& why) { fail_.add(why); }

  private:
    ClientOut& out_;
    Failures& fail_;
    bool traced_;
    bool measuring_ = false;
    Counters start_;
};

std::string describe(const char* what, uint64_t id) {
    return std::string(what) + " (key id " + std::to_string(id) + ")";
}

/// point_1t: rounds of 10 overwrite Puts, 8 Gets, 1 insert, 1 Delete in a
/// seeded order; Gets draw from live and deleted ids alike.
void point_ops(RomulusDB& db, Model& m, Rng& rng, uint64_t rounds, Client& c) {
    static constexpr char kRound[kPointRound + 1] = "PPPPPPPPPPGGGGGGGGID";
    char order[kPointRound];
    std::string got;
    const uint64_t all = m.ver.size();
    for (uint64_t r = 0; r < rounds; ++r) {
        std::memcpy(order, kRound, kPointRound);
        for (unsigned i = kPointRound - 1; i > 0; --i)
            std::swap(order[i], order[rng.below(i + 1)]);
        for (char op : order) {
            if (op == 'G') {
                const uint64_t id = rng.below(all);
                const std::string k = m.key(id);
                const bool found = c.get([&] { return db.get(k, &got); });
                if (found != bool(m.live[id]) ||
                    (found && !m.value_ok(got, id, m.ver[id], m.ver[id])))
                    c.fail(describe("point Get returned a wrong value", id));
            } else if (op == 'D') {
                const uint32_t id = m.live_ids[rng.below(m.live_ids.size())];
                const std::string k = m.key(id);
                bool existed = false;
                c.update(kKeyLen, [&] { existed = db.del(kWrite, k); });
                if (!existed) c.fail(describe("Delete missed a live key", id));
                m.move(id, false);
            } else {
                auto& pool = op == 'I' ? m.dead_ids : m.live_ids;
                const uint32_t id = pool[rng.below(pool.size())];
                const uint32_t v = m.ver[id] + 1;
                const std::string k = m.key(id), val = m.value(id, v);
                c.update(kKeyLen + m.val_len, [&] { db.put(kWrite, k, val); });
                m.ver[id] = v;
                if (op == 'I') m.move(id, true);
            }
        }
    }
}

/// batch_1t: a Write of 32 overwrite Puts of distinct keys, then a Get of
/// one of them.
void batch_ops(RomulusDB& db, Model& m, Rng& rng, uint64_t ops, Client& c) {
    WriteBatch batch;
    uint32_t ids[kBatchPuts];
    std::string got;
    const uint64_t n = m.ver.size();
    for (uint64_t o = 0; o < ops; ++o) {
        batch.clear();
        for (size_t i = 0; i < kBatchPuts; ++i) {
            uint32_t id;
            do {
                id = uint32_t(rng.below(n));
            } while (std::find(ids, ids + i, id) != ids + i);
            ids[i] = id;
            batch.put(m.key(id), m.value(id, m.ver[id] + 1));
        }
        c.update(kBatchPuts * (kKeyLen + m.val_len),
                 [&] { db.write(kWrite, batch); });
        for (uint32_t id : ids) m.ver[id]++;
        const uint32_t id = ids[rng.below(kBatchPuts)];
        const std::string k = m.key(id);
        const bool found = c.get([&] { return db.get(k, &got); });
        if (!found || !m.value_ok(got, id, m.ver[id], m.ver[id]))
            c.fail(describe("batch Get returned a wrong value", id));
    }
}

/// mixed_4t shared state: each key's owner publishes the version it is
/// about to write (started) and the last one acknowledged (acked).
struct MixedShared {
    explicit MixedShared(uint64_t n)
        : started(new std::atomic<uint32_t>[n]), acked(new std::atomic<uint32_t>[n]) {
        for (uint64_t i = 0; i < n; ++i) {
            started[i].store(0);
            acked[i].store(0);
        }
    }
    std::unique_ptr<std::atomic<uint32_t>[]> started, acked;
};

/// mixed_4t: 50% Gets of any key (zipf over all keys), 50% Puts of the
/// client's own keys (zipf over its share).  A Get must return a version
/// no older than the owner's last acknowledged write before the Get began
/// and no newer than the owner's latest started write.
void mixed_ops(RomulusDB& db, const Model& m, MixedShared& sh, const Zipf& zr,
               const Zipf& zw, unsigned self, unsigned clients, Rng& rng,
               uint64_t ops, Client& c) {
    std::string got;
    for (uint64_t o = 0; o < ops; ++o) {
        if (rng.below(2) == 0) {
            const uint64_t id = zr.next(rng);
            const std::string k = m.key(id);
            const uint32_t lo = sh.acked[id].load();
            const bool found = c.get([&] { return db.get(k, &got); });
            const uint32_t hi = sh.started[id].load();
            if (!found || !m.value_ok(got, id, lo, hi))
                c.fail(describe("mixed Get returned a wrong version", id));
        } else {
            const uint64_t id = zw.next(rng) * clients + self;
            const uint32_t v = sh.started[id].load() + 1;
            const std::string k = m.key(id), val = m.value(id, v);
            sh.started[id].store(v);
            c.update(kKeyLen + m.val_len, [&] { db.put(kWrite, k, val); });
            sh.acked[id].store(v);
        }
    }
}

// ---------------------------------------------------------------------------
// Set-up, scan, crash-restart
// ---------------------------------------------------------------------------
/// Set-up writes each batch inside the engine's single-writer transaction
/// (the paper's §5.1 API; the batch's own updateTx nests flat in it).  A
/// batch that crosses a KVStore grow() can hang forever in the speculative
/// fast path's doomed run (CHANGES.md, FOUND), so set-up keeps clear of it.
void write_batch(RomulusDB& db, const WriteBatch& batch) {
    RomulusLog::begin_transaction(0);
    db.write(kWrite, batch);
    RomulusLog::end_transaction();
}

std::unique_ptr<RomulusDB> populate(const MemHeap& heap, const Spec& spec,
                                    const Model& m) {
    auto db = RomulusDB::open(heap.path(), spec.heap_mib << 20, 1);
    WriteBatch batch;
    for (uint64_t id = 0; id < m.ver.size(); ++id) {
        if (!m.live[id]) continue;
        batch.put(m.key(id), m.value(id, m.ver[id]));
        if (batch.size() == kSetupBatch) {
            write_batch(*db, batch);
            batch.clear();
        }
    }
    if (batch.size() != 0) write_batch(*db, batch);
    return db;
}

/// Full scan: the store must hold exactly the model's live keys, each with
/// its current version.  Run only while no client is active.
bool scan_matches(const RomulusDB& db, const Model& m, std::string* why) {
    std::vector<uint8_t> seen(m.ver.size(), 0);
    uint64_t n = 0;
    db.for_each([&](std::string_view k, std::string_view v) {
        ++n;
        uint64_t id, ver;
        if (!parse_value(v, m.val_len, &id, &ver) || id >= m.ver.size()) {
            if (why->empty()) *why = "scan found a torn or foreign value";
            return;
        }
        if (k != m.key(id) || !m.live[id] || ver != m.ver[id] || seen[id]) {
            if (why->empty()) *why = describe("scan disagrees with the model", id);
        }
        seen[id] = 1;
    });
    if (n != m.live_count && why->empty())
        *why = "scan saw " + std::to_string(n) + " keys, model has " +
               std::to_string(m.live_count);
    return why->empty();
}

/// A forked child reopens the heap and overwrites `ids` in one updateTx;
/// it exits once the shard reads MUT (or, with crash-commit planted, after
/// the commit).  The parent then times reopen + first Get and checks that
/// the recovered store holds none of the crashed writes.
double crash_restart(std::unique_ptr<RomulusDB>& db, const MemHeap& heap,
                     const Model& m, const std::vector<uint32_t>& ids,
                     bool commit_planted, Failures& fail) {
    db.reset();
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
        int code = 3;  // closure finished without ever seeing MUT
        try {
            auto child = RomulusDB::open(heap.path(), 0, 1);
            RomulusLog::updateTx([&] {
                for (uint32_t id : ids)
                    child->put(kWrite, m.key(id), m.value(id, m.ver[id] + 1));
                if (!commit_planted && RomulusLog::state(0) == romulus::MUT)
                    ::_exit(0);
            });
            if (commit_planted) code = 0;
        } catch (...) {
            code = 4;
        }
        ::_exit(code);
    }
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        fail.add("crash child did not stop inside its transaction (status " +
                 std::to_string(status) + ")");

    std::string got;
    const std::string first = m.key(ids[0]);
    const uint64_t t0 = now_ns();
    db = RomulusDB::open(heap.path(), 0, 1);
    const bool found = db->get(first, &got);
    const double secs = double(now_ns() - t0) * 1e-9;

    bool ok = found && m.value_ok(got, ids[0], m.ver[ids[0]], m.ver[ids[0]]) &&
              RomulusLog::state(0) == romulus::IDL &&
              db->size() == m.live_count;
    for (uint32_t id : ids) {
        ok = ok && db->get(m.key(id), &got) &&
             m.value_ok(got, id, m.ver[id], m.ver[id]);
    }
    if (!ok) fail.add("recovered store holds crashed writes");
    return secs;
}

// ---------------------------------------------------------------------------
// Layer micro-measurements (traced runs, after the measured phase)
// ---------------------------------------------------------------------------
template <typename F>
double median_ns_per_op(unsigned batches, unsigned per_batch, F&& f) {
    std::vector<double> v;
    for (unsigned b = 0; b < batches; ++b) {
        const uint64_t t0 = now_ns();
        for (unsigned i = 0; i < per_batch; ++i) f(i);
        v.push_back(double(now_ns() - t0) / per_batch);
    }
    return median(v);
}

struct Micro {
    double flush_ns, word_tx_us, read_tx_ns;
};

Micro measure_micro() {
    namespace pm = romulus::pmem;
    alignas(64) static volatile uint64_t line[8];
    Micro out{};
    out.flush_ns = median_ns_per_op(21, 2000, [](unsigned i) {
        line[0] = i;
        pm::pwb(const_cast<uint64_t*>(&line[0]));
        pm::pfence();
    });
    RomulusLog::p<uint64_t>* word = nullptr;
    char* rec = nullptr;
    char src[kKeyLen + 100] = {};
    RomulusLog::updateTx([&] {
        word = RomulusLog::tmNew<RomulusLog::p<uint64_t>>();
        rec = static_cast<char*>(RomulusLog::alloc_bytes(sizeof src));
        RomulusLog::store_range(rec, src, sizeof src);
    });
    out.word_tx_us =
        median_ns_per_op(21, 500, [&](unsigned i) {
            RomulusLog::updateTx([&] { *word = i; });
        }) / 1000.0;
    out.read_tx_ns = median_ns_per_op(21, 5000, [&](unsigned) {
        char dst[sizeof src];
        RomulusLog::readTx([&] { std::memcpy(dst, rec, sizeof dst); });
        asm volatile("" : : "r"(dst) : "memory");
    });
    return out;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------
struct Metric {
    std::string name, unit;
    std::optional<double> value;  ///< empty: the counter no longer exists
};

void print_result(bool correct, uint64_t attempted, uint64_t failed,
                  const std::vector<Metric>& ms) {
    for (const Metric& m : ms) {
        if (m.value)
            std::printf("# %-28s %14.6g %s\n", m.name.c_str(), *m.value,
                        m.unit.c_str());
        else
            std::printf("# %-28s %14s %s\n", m.name.c_str(), "absent",
                        m.unit.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < ms.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": ", i ? ", " : "", ms[i].name.c_str());
        if (ms[i].value && std::isfinite(*ms[i].value))
            std::printf("%.17g", *ms[i].value);
        else
            std::printf("null");
        std::printf(", \"unit\": \"%s\"}", ms[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// One run
// ---------------------------------------------------------------------------
int run(const Options& opt) {
    const Spec* spec = nullptr;
    for (const Spec& s : kSpecs)
        if (opt.workload == s.name) spec = &s;
    if (spec == nullptr) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     opt.workload.c_str());
        return 2;
    }
    const bool point = spec == &kSpecs[0], batch = spec == &kSpecs[1];

    romulus::pmem::set_profile(romulus::pmem::Profile::CLWB);
    print_host_facts(*spec, opt);

    Rng rng(opt.seed);
    Model m;
    m.salt = mix64(opt.seed ^ 0x5eedull);
    m.val_len = spec->val_len;
    m.init(spec->keys, spec->spare);
    Failures fail;
    uint64_t attempted = 0;

    // Set-up: fresh heap, populated through Write batches; several times.
    // Each set-up heap also gets one crash restart: a restart's cost
    // depends on the pages under its heap, so restarts on several heaps
    // keep recover_s from resting on one draw of pages.
    std::unique_ptr<MemHeap> heap;
    std::unique_ptr<RomulusDB> db;
    std::vector<double> recover_s;
    auto restart = [&] {
        std::vector<uint32_t> ids;
        while (ids.size() < std::min<size_t>(kCrashWrites, m.live_count)) {
            const uint32_t id = m.live_ids[rng.below(m.live_ids.size())];
            if (std::find(ids.begin(), ids.end(), id) == ids.end())
                ids.push_back(id);
        }
        attempted++;
        recover_s.push_back(crash_restart(db, *heap, m, ids,
                                          opt.plant == "crash-commit", fail));
    };
    std::vector<double> setup_s;
    for (unsigned i = 0; i < spec->setups; ++i) {
        db.reset();
        heap = std::make_unique<MemHeap>();
        const uint64_t t0 = now_ns();
        db = populate(*heap, *spec, m);
        setup_s.push_back(double(now_ns() - t0) * 1e-9);
        restart();
    }

    // Measured phase: warm-up, then the fixed number of calls.
    const uint64_t calls = uint64_t(spec->calls_per_s * opt.seconds);
    const uint64_t per_client = calls / spec->clients;
    const uint64_t warm = per_client / 10;
    const auto cpus = allowed_cpus();
    std::vector<ClientOut> outs(spec->clients);
    std::unique_ptr<MixedShared> shared;
    std::optional<Zipf> zr, zw;
    if (!point && !batch) {
        shared = std::make_unique<MixedShared>(spec->keys);
        zr.emplace(spec->keys, 0.99);
        zw.emplace(spec->keys / spec->clients, 0.99);
    }
    // Ops per call: point rounds hold kPointRound calls; a batch op is a
    // Write and a Get.
    auto run_ops = [&](Client& c, Rng& r, unsigned self, uint64_t n) {
        if (point)
            point_ops(*db, m, r, n / kPointRound, c);
        else if (batch)
            batch_ops(*db, m, r, n / 2, c);
        else
            mixed_ops(*db, m, *shared, *zr, *zw, self, spec->clients, r, n, c);
    };
    PhaseTracer tracer;
    std::barrier sync(long(spec->clients) + 1);
    std::vector<std::thread> ts;
    for (unsigned t = 0; t < spec->clients; ++t) {
        ts.emplace_back([&, t] {
            // Client t on the t-th allowed CPU from the top, keeping the
            // lone client of a 1-client workload off CPU 0.
            pin_to(cpus[cpus.size() - 1 - t % cpus.size()]);
            Rng r(mix64(opt.seed * 131 + t));
            Client c(outs[t], fail, opt.trace);
            run_ops(c, r, t, warm);
            sync.arrive_and_wait();  // warm-up done
            c.begin_measure(per_client);
            for (unsigned p = 0; p < kPhases; ++p) {
                sync.arrive_and_wait();  // sub-phase starts
                c.mark_phase();
                const uint64_t t0 = now_ns();
                run_ops(c, r, t, per_client / kPhases);
                outs[t].phase_ns.push_back(now_ns() - t0);
                sync.arrive_and_wait();  // every client finished it
            }
            c.mark_phase();
            c.end_measure();
        });
    }
    sync.arrive_and_wait();
    const auto tx0 = romulus::tx_lifecycle_counters();
    const auto comb0 = combine_totals<RomulusLog>();
    if (opt.trace) romulus::pmem::set_sim_hooks(&tracer);
    for (unsigned p = 0; p < 2 * kPhases; ++p) sync.arrive_and_wait();
    for (auto& t : ts) t.join();
    if (opt.trace) romulus::pmem::set_sim_hooks(nullptr);
    const auto tx1 = romulus::tx_lifecycle_counters();
    const auto comb1 = combine_totals<RomulusLog>();

    if (shared) {
        for (uint64_t id = 0; id < spec->keys; ++id)
            m.ver[id] = shared->acked[id].load();
    }
    ClientOut all;
    for (ClientOut& o : outs) {
        all.upd_ns.insert(all.upd_ns.end(), o.upd_ns.begin(), o.upd_ns.end());
        all.get_ns.insert(all.get_ns.end(), o.get_ns.begin(), o.get_ns.end());
        all.upd_wait_ns.insert(all.upd_wait_ns.end(), o.upd_wait_ns.begin(),
                               o.upd_wait_ns.end());
        all.self_ns.insert(all.self_ns.end(), o.self_ns.begin(), o.self_ns.end());
        all.spans.insert(all.spans.end(), o.spans.begin(), o.spans.end());
        all.upd_calls += o.upd_calls;
        all.get_calls += o.get_calls;
        all.user_bytes += o.user_bytes;
        attempted += o.calls;
        all.delta += o.delta;
    }
    // Call rate per sub-phase: the sum of each client's own rate, so a
    // client idling at the sub-phase barrier does not count.  The run
    // reports the median over sub-phases, which a burst of host noise cannot
    // move much.  Latency quantiles are taken over all measured calls, so
    // the p99 rests on enough samples.
    std::vector<double> rate;
    for (unsigned p = 0; p < kPhases; ++p) {
        double r = 0;
        for (const ClientOut& o : outs)
            r += double(o.upd_mark[p + 1] - o.upd_mark[p] + o.get_mark[p + 1] -
                        o.get_mark[p]) /
                 (double(o.phase_ns[p]) * 1e-9);
        rate.push_back(r);
    }
    const double upd = double(all.upd_calls);
    const double used = double(RomulusLog::used_bytes(0));
    const double live_bytes = double(m.live_count * (kKeyLen + m.val_len));
    const double alloc_mib =
        double(RomulusLog::allocator(0).allocated_bytes()) / double(1 << 20);

    // Whole-store check against the model.
    if (opt.plant == "model") m.ver[m.live_ids[0]]++;
    if (opt.plant == "corrupt") {
        // Flip one byte of a live value in place in the heap, behind the
        // engine's back, as a media error would.
        const uint32_t id = m.live_ids[0];
        const std::string v = m.value(id, m.ver[id]);
        void* at = ::memmem(RomulusLog::main_base(0), RomulusLog::used_bytes(0),
                            v.data(), v.size());
        if (at != nullptr) static_cast<char*>(at)[20] ^= 1;
    }
    attempted++;
    std::string why;
    if (!scan_matches(*db, m, &why)) fail.add(why);

    // More crash restarts on the final heap, spread over a few seconds: the
    // host's memory path drifts on a scale of about a second, and restarts
    // taken back to back would all sample the same moment.
    for (unsigned i = 0; i < spec->restarts; ++i) {
        std::this_thread::sleep_for(kRestartGap);
        restart();
    }

    std::vector<Metric> ms;
    if (!opt.trace) {
        ms = {
            {"ops_per_s", "1/s", median(rate)},
            {"upd_p50_us", "us", quantile(all.upd_ns, 0.50) / 1000.0},
            {"upd_p99_us", "us", quantile(all.upd_ns, 0.99) / 1000.0},
            {"get_p50_us", "us", quantile(all.get_ns, 0.50) / 1000.0},
            {"get_p99_us", "us", quantile(all.get_ns, 0.99) / 1000.0},
            {"fences_per_upd", "1",
             ratio(double(all.delta.pfence + all.delta.psync), upd)},
            {"write_amp", "B/B",
             ratio(double(all.delta.nvm_bytes), double(all.user_bytes))},
            {"space_amp", "B/B", ratio(used, live_bytes)},
            {"setup_s", "s", median(setup_s)},
            {"recover_s", "s", median(recover_s)},
        };
    } else {
        const Micro micro = measure_micro();
        auto span_p50 = [&](uint32_t TxSpans::*f) {
            std::vector<uint32_t> v;
            v.reserve(all.spans.size());
            for (const TxSpans& s : all.spans) v.push_back(s.*f);
            return quantile(std::move(v), 0.5) / 1000.0;
        };
        const Counters& d = all.delta;
        std::optional<double> fp_success, fp_aborts, rd_success, rd_fallbacks,
            combine_batch;
        if (d.fp) {
            fp_success = ratio(double(d.fp->commits),
                               double(d.fp->commits + d.fp->fallbacks));
            fp_aborts = ratio(double(d.fp->aborts), upd);
        }
        if (d.rd) {
            rd_success = ratio(double(d.rd->opt_commits),
                               double(d.rd->opt_commits + d.rd->opt_aborts));
            rd_fallbacks = ratio(double(d.rd->fallbacks), double(all.get_calls));
        }
        if (comb0 && comb1)
            combine_batch = ratio(double(comb1->second - comb0->second),
                                  double(comb1->first - comb0->first));
        ms = {
            {"pmem.pwb_per_upd", "1", ratio(double(d.pwb), upd)},
            {"pmem.nt_bytes_per_upd", "B", ratio(double(d.nt_bytes), upd)},
            {"pmem.cached_bytes_per_upd", "B", ratio(double(d.cached_bytes), upd)},
            {"pmem.flush_ns", "ns", micro.flush_ns},
            {"core.tx_us", "us", span_p50(&TxSpans::tx)},
            {"core.begin_us", "us", span_p50(&TxSpans::begin)},
            {"core.body_us", "us", span_p50(&TxSpans::body)},
            {"core.flush_us", "us", span_p50(&TxSpans::flush)},
            {"core.psync_us", "us", span_p50(&TxSpans::psync)},
            {"core.replicate_us", "us", span_p50(&TxSpans::replicate)},
            {"core.tx_per_upd", "1", ratio(double(tx1.commits - tx0.commits), upd)},
            {"core.lines_per_tx", "1",
             ratio(double(d.lines_logged), double(d.commits))},
            {"core.runs_per_tx", "1", ratio(double(d.runs), double(d.commits))},
            {"core.word_tx_us", "us", micro.word_tx_us},
            {"core.read_tx_ns", "ns", micro.read_tx_ns},
            {"sync.combine_batch", "1", combine_batch},
            {"sync.upd_wait_us", "us", quantile(all.upd_wait_ns, 0.5) / 1000.0},
            {"sync.fp_success", "1", fp_success},
            {"sync.fp_aborts_per_upd", "1", fp_aborts},
            {"sync.read_opt_success", "1", rd_success},
            {"sync.read_fallbacks_per_get", "1", rd_fallbacks},
            {"alloc.used_mib", "MiB", alloc_mib},
            {"db.self_us", "us", quantile(all.self_ns, 0.5) / 1000.0},
            {"trace.ops_per_s", "1/s", median(rate)},
        };
    }
    db.reset();
    heap.reset();

    const uint64_t failed = fail.count();
    print_result(failed == 0, attempted, failed, ms);
    return failed == 0 ? 0 : 1;
}

bool parse_args(int argc, char** argv, Options* o) {
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload") o->workload = v;
        else if (k == "--seed") o->seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds") o->seconds = unsigned(std::atoi(v.c_str()));
        else if (k == "--trace") o->trace = v == "1";
        else if (k == "--plant") o->plant = v;
        else return false;
    }
    return argc % 2 == 1 && !o->workload.empty() && o->seconds >= 1 &&
           (o->plant == "none" || o->plant == "model" || o->plant == "corrupt" ||
            o->plant == "crash-commit");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
    perfbench::Options opt;
    if (!perfbench::parse_args(argc, argv, &opt)) {
        std::fprintf(stderr,
                     "usage: %s --workload point_1t|batch_1t|mixed_4t --seed N "
                     "--seconds S --trace 0|1 [--plant none|model|corrupt|"
                     "crash-commit]\n",
                     argv[0]);
        return 2;
    }
    try {
        return perfbench::run(opt);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: error: %s\n", e.what());
        return 2;
    }
}
