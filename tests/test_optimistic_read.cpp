// Seqlock-validated optimistic read path (DESIGN.md §4.9, ISSUE 8).
//
// Coverage layers:
//   1. Zero-cost property: an optimistic read commits with zero pwbs, zero
//      persistence fences (engine counters AND the SimPersistence fence
//      counter) and no lock traffic observable through the read stats.
//   2. Protocol mechanics, made deterministic through the engines'
//      seq_for_tests() hook: an odd window sends the reader to the
//      pessimistic lock after max_attempts; a mid-closure invalidation
//      retries; a torn pointer is rejected by per-load validation *before*
//      anything dereferences it.
//   3. Concurrency: reader/writer churn must never surface a torn snapshot,
//      and the every-fence crash sweep re-runs the commit-path crash
//      discipline with a concurrent optimistic reader attached.
//   4. The sequence word survives the 64-bit wrap (equality validation).
//   5. Under -DROMULUS_RACECHECK, the churn workload runs with the romrace
//      detector armed and must stay silent (the seqlock.validate /
//      seqlock.write_enter / seqlock.write_exit annotations model a sound
//      happens-before edge).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/race_detector.hpp"
#include "analysis/tx_trace.hpp"
#include "fence_sweep.hpp"
#include "pmem/sim_persistence.hpp"
#include "ptm_types.hpp"
#include "sync/seqlock.hpp"
#include "sync/spinlock.hpp"
#include "test_support.hpp"

using namespace romulus;

namespace {

/// RAII: optimistic-read tuning for the duration of a test.
struct ReadConfigGuard {
    ReadConfig saved = read_config();
    ~ReadConfigGuard() { read_config() = saved; }
};

// The engines with a seqlock fast path: the C-RW-WP Romulus variants plus
// the undo-log baseline.  RomulusLR readers are already wait-free through
// Left-Right and bypass the seqlock entirely; the redo-log baseline has its
// own TL2-style optimistic reads (covered below for the force-pessimistic
// knob only).
using SeqlockPtms =
    ::testing::Types<RomulusNL, RomulusLog, baselines::UndoLogPTM>;

template <typename E>
class OptimisticRead : public ::testing::Test {
  protected:
    void SetUp() override {
        pmem::set_profile(pmem::Profile::NOP);
        reset_tl_read_stats();
    }
    void TearDown() override { pmem::set_sim_hooks(nullptr); }
};

TYPED_TEST_SUITE(OptimisticRead, SeqlockPtms);

// Two counter cells the update transactions keep equal; the canonical
// torn-snapshot witness for the readers.
template <typename E>
struct TwoCells {
    using PU = typename E::template p<uint64_t>;
    PU* c1 = nullptr;
    PU* c2 = nullptr;

    void create(uint64_t v) {
        E::updateTx([&] {
            c1 = E::template tmNew<PU>();
            *c1 = v;
            E::put_object(0, c1);
            c2 = E::template tmNew<PU>();
            *c2 = v;
            E::put_object(1, c2);
        });
    }

    void set(uint64_t v) {
        E::updateTx([&] {
            *c1 = v;
            *c2 = v;
        });
    }
};

// ---------------------------------------------------- zero-cost fast path

TYPED_TEST(OptimisticRead, CommitsWithZeroFencesAndZeroPwbs) {
    using E = TypeParam;
    test::EngineSession<E> session(16u << 20, "opt_zero");
    TwoCells<E> cells;
    cells.create(7);

    // The SimPersistence fence counter is the acceptance-criterion witness:
    // it counts pfence+psync from *any* thread, independent of tl_stats.
    pmem::SimPersistence sim(E::region().base(), E::region().size(),
                             {pmem::FlushContent::AtPwb, 0.0, 1});
    pmem::set_sim_hooks(&sim);
    const pmem::Stats before = pmem::tl_stats();
    const uint64_t fences_before = sim.fence_count();
    reset_tl_read_stats();

    constexpr int kReads = 100;
    for (int i = 0; i < kReads; ++i) {
        uint64_t a = 0, b = 0;
        E::readTx([&] {
            a = cells.c1->pload();
            b = cells.c2->pload();
        });
        ASSERT_EQ(a, 7u);
        ASSERT_EQ(b, 7u);
    }
    pmem::set_sim_hooks(nullptr);

    const pmem::Stats d = pmem::tl_stats() - before;
    EXPECT_EQ(d.pwb, 0u);
    EXPECT_EQ(d.pfence, 0u);
    EXPECT_EQ(d.psync, 0u);
    EXPECT_EQ(sim.fence_count(), fences_before);
    const ReadStats& rs = tl_read_stats();
    EXPECT_EQ(rs.opt_commits, uint64_t(kReads));
    EXPECT_EQ(rs.opt_aborts, 0u);
    EXPECT_EQ(rs.fallbacks, 0u);
}

TYPED_TEST(OptimisticRead, ForcePessimisticKnobDisablesTheFastPath) {
    using E = TypeParam;
    test::EngineSession<E> session(16u << 20, "opt_knob");
    TwoCells<E> cells;
    cells.create(11);

    ReadConfigGuard guard;
    read_config().optimistic = false;
    reset_tl_read_stats();
    uint64_t a = 0;
    E::readTx([&] { a = cells.c1->pload(); });
    EXPECT_EQ(a, 11u);
    const ReadStats& rs = tl_read_stats();
    EXPECT_EQ(rs.opt_commits, 0u);
    EXPECT_EQ(rs.opt_aborts, 0u);
    EXPECT_EQ(rs.fallbacks, 0u);  // never attempted, so never "fell back"
}

// ------------------------------------------------- deterministic protocol

TYPED_TEST(OptimisticRead, OddWindowFallsBackToThePessimisticLock) {
    using E = TypeParam;
    test::EngineSession<E> session(16u << 20, "opt_odd");
    TwoCells<E> cells;
    cells.create(42);

    ReadConfigGuard guard;
    read_config().max_attempts = 3;
    // Simulate a writer parked mid-transaction: window open, lock free (so
    // the fallback acquires immediately instead of deadlocking the test).
    E::seq_for_tests().write_enter();
    reset_tl_read_stats();
    uint64_t got = 0;
    E::readTx([&] {
        got = 0;  // restartable
        got = cells.c1->pload();
    });
    E::seq_for_tests().write_exit();

    EXPECT_EQ(got, 42u);
    const ReadStats& rs = tl_read_stats();
    EXPECT_EQ(rs.opt_aborts, 3u);  // every attempt saw the odd word
    EXPECT_EQ(rs.fallbacks, 1u);
    EXPECT_EQ(rs.opt_commits, 0u);
}

TYPED_TEST(OptimisticRead, MidClosureInvalidationRetriesAndCommits) {
    using E = TypeParam;
    test::EngineSession<E> session(16u << 20, "opt_retry");
    TwoCells<E> cells;
    cells.create(5);

    reset_tl_read_stats();
    bool first = true;
    uint64_t got = 0;
    E::readTx([&] {
        got = 0;  // restartable
        if (first) {
            // A full writer window opens and closes between this attempt's
            // snapshot and its first validated load.
            first = false;
            E::seq_for_tests().write_enter();
            E::seq_for_tests().write_exit();
        }
        got = cells.c1->pload();
    });

    EXPECT_EQ(got, 5u);
    const ReadStats& rs = tl_read_stats();
    EXPECT_EQ(rs.opt_aborts, 1u);
    EXPECT_EQ(rs.opt_commits, 1u);
    EXPECT_EQ(rs.fallbacks, 0u);
}

TYPED_TEST(OptimisticRead, UserExceptionOffValidSnapshotLeavesNoResidue) {
    using E = TypeParam;
    test::EngineSession<E> session(16u << 20, "opt_throw");
    TwoCells<E> cells;
    cells.create(3);

    reset_tl_read_stats();
    struct Boom {};
    EXPECT_THROW(E::readTx([&] {
        (void)cells.c1->pload();
        throw Boom{};
    }),
                 Boom);
    const ReadStats& rs = tl_read_stats();
    EXPECT_EQ(rs.opt_exception_exits, 1u);  // propagated, not a commit
    EXPECT_EQ(rs.opt_commits, 0u);
    EXPECT_EQ(rs.fallbacks, 0u);

    // The thrown-through readTx must leave no thread-local residue: the
    // next read still takes the validated fast path.  (A leaked read
    // depth would send it down the flat-nesting branch — no lock, no
    // validation, no stats — silently racing the writer.)
    uint64_t a = 0;
    E::readTx([&] {
        a = 0;  // restartable
        a = cells.c1->pload();
    });
    EXPECT_EQ(a, 3u);
    EXPECT_EQ(rs.opt_commits, 1u);
}

TYPED_TEST(OptimisticRead, TornPointerIsRejectedBeforeDereference) {
    using E = TypeParam;
    using PU = typename E::template p<uint64_t>;
    using PP = typename E::template p<PU*>;
    test::EngineSession<E> session(16u << 20, "opt_torn");

    PU* target = nullptr;
    PP* cell = nullptr;
    E::updateTx([&] {
        target = E::template tmNew<PU>();
        *target = 99;
        cell = E::template tmNew<PP>();
        *cell = target;
        E::put_object(0, cell);
    });

    ReadConfigGuard guard;
    read_config().max_attempts = 3;
    reset_tl_read_stats();

    // The classic seqlock hazard, staged deterministically: mid-attempt the
    // pointer cell is scribbled with garbage under an open window.  The
    // per-load validation in pload() must throw before the garbage pointer
    // can reach the dereference below — if it ever leaks out, the test
    // crashes on the bogus address.
    auto* raw = reinterpret_cast<uint64_t*>(cell);
    const uint64_t good_bits = *raw;
    bool scribbled = false;
    bool first = true;
    uint64_t got = 0;
    E::readTx([&] {
        got = 0;  // restartable
        if (scribbled) {
            // Pessimistic rerun after the fallback: undo the sabotage (the
            // parked "writer" rolls back) so the real pointer is live again.
            *raw = good_bits;
            E::seq_for_tests().write_exit();
            scribbled = false;
        } else if (first) {
            first = false;
            scribbled = true;
            E::seq_for_tests().write_enter();
            *raw = 0xDEADBEEFDEADBEEFull;
        }
        PU* p = cell->pload();  // throws OptimisticAbort on the torn attempt
        got = p->pload();
    });

    EXPECT_EQ(got, 99u);
    const ReadStats& rs = tl_read_stats();
    // Attempt 1 aborted mid-closure on the torn load; attempts 2 and 3 saw
    // the still-odd word; then the pessimistic rerun repaired and committed.
    EXPECT_EQ(rs.opt_aborts, 3u);
    EXPECT_EQ(rs.fallbacks, 1u);
    EXPECT_EQ(rs.opt_commits, 0u);
}

// A reader that arrives while a writer window is open must outwait it at
// the default max_attempts and then commit optimistically.  Falling back
// instead would send it to the reader lock, which waits out the writer's
// whole hold, back replication included.  This thread holds the window for
// kWindow once the reader has announced itself.  A trial counts only when
// the reader overlapped the window and the window closed within kFair of
// the reader's start: a host that deschedules either thread can otherwise
// stretch the reader's odd-window spin far past kWindow.  kFair is about
// 40 pauses here (25 ns each), inside the default's 64 and far past the
// old default's 4.
TYPED_TEST(OptimisticRead, ReaderOutwaitsOneWriterWindow) {
    using E = TypeParam;
    using Clock = std::chrono::steady_clock;
    constexpr auto kWindow = std::chrono::nanoseconds(300);
    constexpr auto kFair = std::chrono::nanoseconds(1000);
    test::EngineSession<E> session(16u << 20, "opt_outwait");
    TwoCells<E> cells;
    cells.create(8);
    ASSERT_EQ(read_config().max_attempts, ReadConfig{}.max_attempts);

    int counted = 0;
    for (int trial = 0; trial < 400 && counted < 3; ++trial) {
        std::atomic<bool> arrived{false};
        Clock::time_point start;
        ReadStats rs;
        uint64_t got = 0;
        E::seq_for_tests().write_enter();
        std::thread reader([&] {
            reset_tl_read_stats();
            start = Clock::now();
            arrived.store(true, std::memory_order_release);
            E::readTx([&] {
                got = 0;  // restartable
                got = cells.c1->pload();
            });
            rs = tl_read_stats();
        });
        while (!arrived.load(std::memory_order_acquire)) sync::cpu_relax();
        const Clock::time_point t0 = Clock::now();
        while (Clock::now() - t0 < kWindow) sync::cpu_relax();
        const Clock::time_point closed = Clock::now();
        E::seq_for_tests().write_exit();
        reader.join();

        EXPECT_EQ(got, 8u);
        if (rs.opt_aborts == 0 || closed - start > kFair) continue;
        ++counted;
        EXPECT_EQ(rs.fallbacks, 0u)
            << "gave up after " << rs.opt_aborts << " attempts, window closed "
            << std::chrono::duration_cast<std::chrono::nanoseconds>(closed -
                                                                    start)
                   .count()
            << " ns after the reader started";
        EXPECT_EQ(rs.opt_commits, 1u);
    }
    if (counted == 0)
        GTEST_SKIP() << "no trial overlapped the window with both threads "
                        "running";
}

// ------------------------------------------------------------ churn check

/// Reader/writer churn: writers keep the two cells equal inside one
/// transaction; a reader that ever returns a != b has surfaced a torn
/// snapshot.  Shared by the plain and the racecheck-armed suites.
template <typename E>
void run_churn(int writer_txs) {
    test::EngineSession<E> session(16u << 20, "opt_churn");
    TwoCells<E> cells;
    cells.create(0);

    std::atomic<bool> stop{false};
    std::atomic<uint64_t> bad{0};
    std::atomic<uint64_t> reads{0};
    std::atomic<uint64_t> opt_commits{0};
    std::thread reader([&] {
        reset_tl_read_stats();
        // do-while: the writer may finish all its transactions before this
        // thread is first scheduled, and the check below needs one read.
        do {
            uint64_t a = 0, b = 0;
            E::readTx([&] {
                a = 0;
                b = 0;  // restartable
                a = cells.c1->pload();
                b = cells.c2->pload();
            });
            if (a != b) bad.fetch_add(1);
            reads.fetch_add(1);
        } while (!stop.load(std::memory_order_acquire));
        opt_commits.store(tl_read_stats().opt_commits);
    });
    for (int j = 1; j <= writer_txs; ++j) {
        cells.set(uint64_t(j));
        if (j % 16 == 0) std::this_thread::yield();
    }
    stop.store(true, std::memory_order_release);
    reader.join();

    EXPECT_EQ(bad.load(), 0u) << "torn snapshot after " << reads.load()
                              << " reads";
    EXPECT_GT(reads.load(), 0u);
    // Not asserted == reads: a read that lands inside a writer window may
    // legitimately take the pessimistic lock.
    EXPECT_LE(opt_commits.load(), reads.load());
}

TYPED_TEST(OptimisticRead, ChurnNeverSurfacesATornSnapshot) {
    run_churn<TypeParam>(300);
}

// --------------------------------------------- redo-log baseline's knob

TEST(OptimisticReadRedoLog, ForcePessimisticKnobSerializesReads) {
    pmem::set_profile(pmem::Profile::NOP);
    using E = baselines::RedoLogPTM;
    test::EngineSession<E> session(16u << 20, "opt_redo");
    using PU = E::p<uint64_t>;
    PU* c = nullptr;
    E::updateTx([&] {
        c = E::tmNew<PU>();
        *c = 21;
        E::put_object(0, c);
    });
    ReadConfigGuard guard;
    read_config().optimistic = false;
    uint64_t got = 0;
    E::readTx([&] { got = c->pload(); });
    EXPECT_EQ(got, 21u);
}

TEST(OptimisticReadRedoLog, ForcePessimisticKnobExcludesWriters) {
    pmem::set_profile(pmem::Profile::NOP);
    using E = baselines::RedoLogPTM;
    test::EngineSession<E> session(16u << 20, "opt_redo_excl");
    using PU = E::p<uint64_t>;
    PU* c = nullptr;
    E::updateTx([&] {
        c = E::tmNew<PU>();
        *c = 0;
        E::put_object(0, c);
    });
    ReadConfigGuard guard;
    read_config().optimistic = false;

    // With the knob off every writer routes through the fallback mutex, so
    // a pessimistic reader (which holds it across its transaction) can
    // never overlap a writer's closure — the overlap witness must stay 0.
    std::atomic<bool> stop{false};
    std::atomic<int> in_writer_tx{0};
    std::atomic<uint64_t> overlaps{0};
    std::thread writer([&] {
        uint64_t v = 0;
        while (!stop.load(std::memory_order_acquire)) {
            E::updateTx([&] {
                in_writer_tx.store(1, std::memory_order_release);
                *c = ++v;
                in_writer_tx.store(0, std::memory_order_release);
            });
        }
    });
    for (int i = 0; i < 2000; ++i) {
        E::readTx([&] {
            if (in_writer_tx.load(std::memory_order_acquire) != 0)
                overlaps.fetch_add(1);
            (void)c->pload();
        });
    }
    stop.store(true, std::memory_order_release);
    writer.join();
    EXPECT_EQ(overlaps.load(), 0u);
}

// ------------------------------------------------------------ 64-bit wrap

TEST(SeqLockUnit, SurvivesTheSequenceWrap) {
    sync::SeqLock sl;
    sl.set_for_tests(UINT64_MAX - 1);  // even, one window from the wrap
    const uint64_t sq = sl.read_begin();
    EXPECT_TRUE(sl.validate(sq));

    sl.write_enter();  // UINT64_MAX: odd
    EXPECT_EQ(sl.value() & 1, 1u);
    EXPECT_FALSE(sl.validate(sq));

    sl.write_exit();  // wraps to 0: even again
    EXPECT_EQ(sl.value(), 0u);
    EXPECT_FALSE(sl.validate(sq)) << "pre-wrap snapshot must stay dead";

    const uint64_t sq2 = sl.read_begin();
    EXPECT_EQ(sq2, 0u);
    EXPECT_TRUE(sl.validate(sq2));
}

TEST(SeqLockUnit, ReadersSeeTheWindowEdges) {
    sync::SeqLock sl;
    const uint64_t sq = sl.read_begin();
    EXPECT_EQ(sq & 1, 0u);
    EXPECT_TRUE(sl.validate(sq));
    sl.write_enter();
    EXPECT_EQ(sl.read_begin() & 1, 1u);  // readers refuse to even start
    sl.write_exit();
    EXPECT_FALSE(sl.validate(sq)) << "a completed writer kills the snapshot";
    EXPECT_TRUE(sl.validate(sl.read_begin()));
}

// --------------------------------------- crash sweep + concurrent reader
//
// Trace-driven every-fence sweep (tests/fence_sweep.hpp) with an optimistic
// reader attached through the sweep-client hook: the reader continuously
// snapshot-reads random trace keys and must never observe a torn value
// while the engine is healthy.  After the crash the writer thread "dies"
// mid-commit (lock held, window odd), so the sweep releases the reader
// through crash_reset_for_tests() — the same volatile-state rebuild a
// restart does — before the client joins it.

/// Sweep client: one concurrent reader validating the optimistic read path
/// against the model oracle.  Two oracles per read, both inside ONE readTx:
///   * the same key read twice must agree (snapshot consistency), and
///   * the observation must be in legal_observations() — a value no
///     committed prefix of the trace ever exposes can only come from a torn
///     snapshot.
template <typename E>
struct SnapshotReaderClient {
    const analysis::TxTrace& trace;
    std::vector<std::string> keys;
    std::vector<analysis::KeyObservations> legal;
    analysis::KvFacade<E>* kv = nullptr;
    std::atomic<bool>* crashed = nullptr;
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> bad{0};
    std::thread th;

    explicit SnapshotReaderClient(const analysis::TxTrace& t) : trace(t) {
        std::map<std::string, uint32_t> seen;
        for (const analysis::SubTx& st : t.subtxs)
            for (const analysis::TraceOp& op : st.ops)
                seen.emplace(op.key, st.shard);
        for (const auto& [key, sd] : seen) {
            keys.push_back(key);
            legal.push_back(analysis::legal_observations(t, key, sd));
        }
    }

    void begin(analysis::KvFacade<E>& facade, std::atomic<bool>& crash_flag) {
        kv = &facade;
        crashed = &crash_flag;
        stop.store(false, std::memory_order_relaxed);
        bad.store(0, std::memory_order_relaxed);
        th = std::thread([this] { loop(); });
    }

    void loop() {
        uint64_t x = 0x9E3779B97F4A7C15ull;
        while (!stop.load(std::memory_order_acquire)) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            const size_t i = size_t((x >> 33) % keys.size());
            const std::string& key = keys[i];
            const unsigned sd = kv->route(key);
            const bool pre = crashed->load(std::memory_order_acquire);
            bool f1 = false, f2 = false;
            std::string v1, v2;
            E::readTx(sd, [&] {
                f1 = f2 = false;  // restartable
                v1.clear();
                v2.clear();
                auto* s = kv->store(sd);
                if (s == nullptr) return;
                f1 = s->get(key, &v1);
                f2 = s->get(key, &v2);
            });
            // Only a read fully bracketed by a healthy engine asserts:
            // post-crash the window word is force-reset under a torn main,
            // which is exactly what recovery is for.
            if (pre || crashed->load(std::memory_order_acquire)) continue;
            if (f1 != f2 || (f1 && v1 != v2) || !legal[i].admits(f1, v1))
                bad.fetch_add(1);
        }
    }

    void end(uint64_t fence, bool /*did_crash*/) {
        stop.store(true, std::memory_order_release);
        th.join();
        EXPECT_EQ(bad.load(), 0u) << "torn snapshot at crash fence " << fence;
    }
};

template <typename E>
void run_reader_crash_sweep() {
    const std::string path =
        test::heap_path(std::string("opt_crash_") + E::name());
    pmem::SimPersistence::Options opts{pmem::FlushContent::AtPwb, 0.0, 11};
    analysis::GenConfig g;
    g.setup_ops = 0;  // every sub-tx is part of the prefix-checked history
    g.episode_ops = 8;
    g.key_space = 8;  // hot keys: the reader mostly hits live data
    g.value_max = 512;
    g.put_pct = 70;
    g.del_pct = 10;
    g.get_pct = 5;
    g.batch_ops = 3;
    const unsigned shards = 2;
    const analysis::TxTrace trace = analysis::generate_trace(
        g, /*seed=*/20240808, shards, analysis::engine_id_of<E>(),
        [shards](std::string_view key) {
            return db::shard_for_key(key, shards);
        });
    SnapshotReaderClient<E> client(trace);
    test::run_trace_fence_sweep<E>(trace, path, opts, client);
}

template <typename E>
class OptimisticReadCrash : public ::testing::Test {
  protected:
    void SetUp() override { pmem::set_profile(pmem::Profile::NOP); }
    void TearDown() override { pmem::set_sim_hooks(nullptr); }
};

using CrwwpRomulusPtms = ::testing::Types<RomulusNL, RomulusLog>;
TYPED_TEST_SUITE(OptimisticReadCrash, CrwwpRomulusPtms);

TYPED_TEST(OptimisticReadCrash, EveryFenceCrashWithConcurrentReaders) {
    run_reader_crash_sweep<TypeParam>();
}

// ------------------------------------------- racecheck-armed clean run

#ifdef ROMULUS_RACECHECK
// The churn workload with the romrace detector live: the optimistic read
// path's annotations (seqlock.write_enter / seqlock.validate /
// seqlock.write_exit) must model a sound happens-before edge — zero
// reports across validated optimistic commits racing real writers.
template <typename E>
class OptimisticRaceArmed : public ::testing::Test {
  protected:
    void SetUp() override {
        pmem::set_profile(pmem::Profile::NOP);
        auto& d = analysis::RaceDetector::instance();
        d.reset();
        d.enable();
    }
    void TearDown() override {
        auto& d = analysis::RaceDetector::instance();
        d.disable();
        d.reset();
        pmem::set_sim_hooks(nullptr);
    }
};

TYPED_TEST_SUITE(OptimisticRaceArmed, SeqlockPtms);

TYPED_TEST(OptimisticRaceArmed, ChurnStaysSilent) {
    run_churn<TypeParam>(150);
    auto& d = analysis::RaceDetector::instance();
    EXPECT_EQ(d.race_count(), 0u) << d.report_text();
}
#endif  // ROMULUS_RACECHECK

}  // namespace
