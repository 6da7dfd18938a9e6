// Commit-pipeline overhaul tests: coalesced range-log runs, the
// persist_copy non-temporal replication primitive, the hook-free pwb_range
// fast path and the deferred used_size write-back.
//
// Three layers of coverage:
//   1. persist_copy unit semantics against SimPersistence directly (data
//      copied, lines pending until the next fence, both FlushContent modes,
//      at most one real pwb — the cached sub-16 B tail).
//   2. Whole-engine soundness with the streaming path *forced on*: the
//      PersistencyChecker must stay clean and the crash-injection sweep
//      must recover all-or-nothing on every Romulus variant, under both
//      flush-content semantics.
//   3. The PR's acceptance criterion: a sequential 8 KB-write transaction
//      on the CLWB-or-fallback profile issues >= 30 % fewer pwbs (and
//      commits measurably faster) with the coalesced+streaming commit path
//      than with the pre-overhaul per-line path, verified via Stats and
//      CommitStats counters.
//
// Also here: the combiner's bounded batch-wait (combine_wait_us) and the
// shared parser behind the env tuning knobs.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "analysis/tx_trace.hpp"
#include "core/engine_globals.hpp"
#include "fence_sweep.hpp"
#include "pmem/checker.hpp"
#include "pmem/sim_persistence.hpp"
#include "ptm_types.hpp"
#include "test_support.hpp"

// GCC defines __SANITIZE_*__; clang reports sanitizers via __has_feature.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ROMULUS_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define ROMULUS_TEST_SANITIZED 1
#endif
#endif
#ifndef ROMULUS_TEST_SANITIZED
#define ROMULUS_TEST_SANITIZED 0
#endif

using namespace romulus;

namespace {

/// RAII: commit-pipeline tuning for the duration of a test.
struct CommitConfigGuard {
    pmem::CommitConfig saved = pmem::commit_config();
    ~CommitConfigGuard() { pmem::commit_config() = saved; }
};

/// The pre-overhaul commit path: unsorted per-line flush/copy, no streaming.
void select_legacy_commit_path() {
    pmem::commit_config().coalesce = false;
    pmem::commit_config().nt_threshold = SIZE_MAX;
}

/// The overhauled path with streaming forced on for even the smallest runs.
void select_streaming_commit_path() {
    pmem::commit_config().coalesce = true;
    pmem::commit_config().nt_threshold = 16;
}

using RomulusPtms = ::testing::Types<RomulusNL, RomulusLog, RomulusLR>;

// ------------------------------------------------------------ persist_copy

class PersistCopyTest : public ::testing::Test {
  protected:
    void SetUp() override { pmem::set_profile(pmem::Profile::NOP); }
    void TearDown() override { pmem::set_sim_hooks(nullptr); }
};

TEST_F(PersistCopyTest, CopiesBytesAndPendsLinesUntilFence) {
    for (auto content : {pmem::FlushContent::AtFence, pmem::FlushContent::AtPwb}) {
        CommitConfigGuard guard;
        select_streaming_commit_path();
        constexpr size_t kBytes = 4096;
        alignas(64) static uint8_t dst[kBytes];
        std::vector<uint8_t> src(kBytes);
        for (size_t i = 0; i < kBytes; ++i) src[i] = uint8_t(i * 31 + 7);
        std::memset(dst, 0, kBytes);

        pmem::SimPersistence sim(dst, kBytes, {content, 0.0, 1});
        pmem::set_sim_hooks(&sim);
        const uint64_t pwb_before = pmem::tl_stats().pwb;
        pmem::persist_copy(dst, src.data(), kBytes);
        // The live content is in place immediately...
        EXPECT_EQ(std::memcmp(dst, src.data(), kBytes), 0);
        // ...observed by the model as store+pwb per line (pending, not
        // dirty), and without a single real pwb instruction (no tail here).
        EXPECT_EQ(sim.dirty_line_count(), 0u);
        EXPECT_EQ(sim.pending_line_count(), kBytes / 64);
        EXPECT_EQ(pmem::tl_stats().pwb, pwb_before);
        // A crash before the fence may lose everything streamed...
        pmem::psync();  // ...but after the fence it is persistent.
        pmem::set_sim_hooks(nullptr);
        sim.crash_restore();
        EXPECT_EQ(std::memcmp(dst, src.data(), kBytes), 0);
    }
}

TEST_F(PersistCopyTest, UnalignedTailTakesTheCachedPwbPath) {
    CommitConfigGuard guard;
    select_streaming_commit_path();
    constexpr size_t kBytes = 1024;
    alignas(64) static uint8_t dst[kBytes];
    std::vector<uint8_t> src(kBytes, 0xAB);
    std::memset(dst, 0, kBytes);

    pmem::SimPersistence sim(dst, kBytes, {pmem::FlushContent::AtPwb, 0.0, 1});
    pmem::set_sim_hooks(&sim);
    pmem::reset_tl_commit_stats();
    const uint64_t pwb_before = pmem::tl_stats().pwb;
    pmem::persist_copy(dst, src.data(), 777);  // 768 streamed + 9 cached
    EXPECT_EQ(std::memcmp(dst, src.data(), 777), 0);
    EXPECT_EQ(pmem::tl_stats().pwb, pwb_before + 1);  // exactly the tail line
    EXPECT_EQ(pmem::tl_commit_stats().nt_bytes, 768u);
    EXPECT_EQ(pmem::tl_commit_stats().cached_bytes, 9u);
    pmem::pfence();
    pmem::set_sim_hooks(nullptr);
    sim.crash_restore();
    EXPECT_EQ(std::memcmp(dst, src.data(), 777), 0);
}

TEST_F(PersistCopyTest, BelowThresholdFallsBackToCachedReplication) {
    CommitConfigGuard guard;
    pmem::commit_config().nt_threshold = 4096;
    alignas(64) static uint8_t dst[256];
    std::vector<uint8_t> src(256, 0x5C);
    pmem::reset_tl_commit_stats();
    const uint64_t pwb_before = pmem::tl_stats().pwb;
    pmem::persist_copy(dst, src.data(), 256);
    EXPECT_EQ(std::memcmp(dst, src.data(), 256), 0);
    EXPECT_EQ(pmem::tl_stats().pwb, pwb_before + 4);  // classic one pwb/line
    EXPECT_EQ(pmem::tl_commit_stats().nt_bytes, 0u);
    EXPECT_EQ(pmem::tl_commit_stats().cached_bytes, 256u);
}

// ----------------------------------------------- deferred used_size pwb

TEST(CommitPathDeferredUsed, AllocationsPayNoPerGrowthPwb) {
    test::ProfileGuard profile(pmem::Profile::NOP);
    using E = RomulusLog;
    test::EngineSession<E> session(16u << 20, "cpath_used");
    E::begin_transaction();
    const uint64_t pwb_before = pmem::tl_stats().pwb;
    std::vector<void*> ptrs;
    for (int i = 0; i < 32; ++i) ptrs.push_back(E::alloc_bytes(200));
    // Every allocation above carved fresh wilderness and grew used_size,
    // yet none of them issued a write-back: the pwb is owed at commit.
    EXPECT_EQ(pmem::tl_stats().pwb, pwb_before);
    E::end_transaction();
    EXPECT_GT(pmem::tl_stats().pwb, pwb_before);
    // The grown bound is real and commit made it durable (recovery-visible).
    EXPECT_GE(E::used_bytes(), 32u * 200u);
}

// --------------------------------------- checker soundness, streaming on

template <typename E>
class CommitPathChecker : public ::testing::Test {
  protected:
    void SetUp() override { pmem::set_profile(pmem::Profile::NOP); }
    void TearDown() override { pmem::set_sim_hooks(nullptr); }
};

TYPED_TEST_SUITE(CommitPathChecker, RomulusPtms);

TYPED_TEST(CommitPathChecker, StreamingCommitStaysDisciplineClean) {
    using E = TypeParam;
    for (auto content :
         {pmem::FlushContent::AtFence, pmem::FlushContent::AtPwb}) {
        CommitConfigGuard guard;
        select_streaming_commit_path();
        test::EngineSession<E> session(16u << 20, "cpath_chk");
        using PU = typename E::template p<uint64_t>;
        PU* arr = nullptr;
        uint8_t* buf = nullptr;
        E::updateTx([&] {
            arr = static_cast<PU*>(E::alloc_bytes(sizeof(PU) * 512));
            buf = static_cast<uint8_t*>(E::alloc_bytes(2048));
            E::zero_range(buf, 2048);
        });

        auto layout = pmem::PersistencyChecker::template layout_of<E>();
        pmem::PersistencyChecker::Options opts;
        opts.content = content;
        opts.require_log = !std::is_same_v<E, RomulusNL>;
        pmem::PersistencyChecker checker(layout, opts);
        pmem::set_sim_hooks(&checker);
        for (int r = 0; r < 4; ++r) {
            E::updateTx([&] {
                for (int i = 0; i < 512; ++i) arr[i] = uint64_t(r * i);
                std::vector<uint8_t> pat(512, uint8_t(r + 1));
                E::store_range(buf + (r % 4) * 512, pat.data(), 512);
                (void)E::alloc_bytes(4096);  // grows used_size mid-tx
            });
        }
        pmem::set_sim_hooks(nullptr);
        EXPECT_TRUE(checker.clean()) << checker.report();
        const auto diag = checker.diagnostics();
        EXPECT_EQ(diag.tx_commits, 4u);
    }
}

// ------------------------------------------ crash injection, streaming on
//
// Trace-driven every-fence sweep (tests/fence_sweep.hpp): a generated KV
// history whose value sizes force multi-line store_range runs through the
// streaming replication path on every commit — the coverage the old
// hand-written stripe workload provided, now checked by the romfuzz model
// oracle instead of a bespoke verify body.

/// Values up to 1.5 KB (well past the streaming nt_threshold of 16 forced
/// below) with a small hot key set, so most PUTs overwrite existing
/// multi-line buffers and DELs recycle them through the allocator.
template <typename E>
analysis::TxTrace streaming_trace(unsigned shards) {
    analysis::GenConfig g;
    g.setup_ops = 0;  // every sub-tx is part of the prefix-checked history
    g.episode_ops = 9;
    g.key_space = 10;
    g.value_max = 1536;
    g.put_pct = 70;
    g.del_pct = 10;
    g.get_pct = 5;
    g.batch_ops = 3;
    return analysis::generate_trace(
        g, /*seed=*/20240807, shards, analysis::engine_id_of<E>(),
        [shards](std::string_view key) {
            return db::shard_for_key(key, shards);
        });
}

template <typename E>
void run_streaming_crash_sweep(pmem::FlushContent content) {
    CommitConfigGuard guard;
    select_streaming_commit_path();
    const std::string path =
        test::heap_path(std::string("cpath_crash_") + E::name());
    pmem::SimPersistence::Options opts{content, 0.0, 7};
    test::run_trace_fence_sweep<E>(streaming_trace<E>(2), path, opts);
}

template <typename E>
class CommitPathCrash : public ::testing::Test {
  protected:
    void SetUp() override { pmem::set_profile(pmem::Profile::NOP); }
    void TearDown() override { pmem::set_sim_hooks(nullptr); }
};

TYPED_TEST_SUITE(CommitPathCrash, RomulusPtms);

TYPED_TEST(CommitPathCrash, EveryFenceCrashRecovers_NT_AtFence) {
    run_streaming_crash_sweep<TypeParam>(pmem::FlushContent::AtFence);
}

TYPED_TEST(CommitPathCrash, EveryFenceCrashRecovers_NT_AtPwb) {
    run_streaming_crash_sweep<TypeParam>(pmem::FlushContent::AtPwb);
}

// ------------------------------------------------- acceptance criterion

TEST(CommitPathAcceptance, Sequential8KBTxNeedsFarFewerPwbs) {
    // CLWB-or-fallback profile, as the acceptance criterion specifies
    // (set_profile degrades CLWB -> CLFLUSHOPT -> CLFLUSH on older CPUs).
    test::ProfileGuard profile(pmem::Profile::CLWB);
    using E = RomulusLog;
    test::EngineSession<E> session(64u << 20, "cpath_accept");
    using PU = E::p<uint64_t>;
    constexpr size_t kWords = 8192 / sizeof(uint64_t);
    PU* arr = nullptr;
    E::updateTx([&] {
        // Ballast: full_copy_threshold() is used_size/2, so on a near-empty
        // heap an 8 KB transaction would degrade the log to full-copy mode
        // and the merged-run path (what this test measures) would never run.
        (void)E::alloc_bytes(64 * 1024);
        arr = static_cast<PU*>(E::alloc_bytes(8192));
        for (size_t i = 0; i < kWords; ++i) arr[i] = 0u;
    });

    auto run_tx = [&](uint64_t seed) {
        E::updateTx([&] {
            for (size_t i = 0; i < kWords; ++i) arr[i] = seed + i;
        });
    };
    constexpr int kReps = 200;
    auto measure = [&](auto&& config) -> std::pair<uint64_t, double> {
        config();
        run_tx(1);  // warm-up under the selected path
        pmem::reset_tl_stats();
        const auto t0 = std::chrono::steady_clock::now();
        for (int r = 0; r < kReps; ++r) run_tx(uint64_t(r));
        const double ns =
            std::chrono::duration<double, std::nano>(
                std::chrono::steady_clock::now() - t0)
                .count() /
            kReps;
        return {pmem::tl_stats().pwb / kReps, ns};
    };

    CommitConfigGuard guard;
    auto [legacy_pwb, legacy_ns] = measure(select_legacy_commit_path);
    pmem::reset_tl_commit_stats();
    auto [stream_pwb, stream_ns] =
        measure([] { pmem::commit_config() = pmem::CommitConfig{}; });

    std::printf(
        "  8KB sequential tx (%s): legacy %llu pwbs / %.0f ns, "
        "overhauled %llu pwbs / %.0f ns\n",
        pmem::profile_name(pmem::effective_profile()),
        (unsigned long long)legacy_pwb, legacy_ns,
        (unsigned long long)stream_pwb, stream_ns);

    // >= 30 % fewer pwb invocations (measured: ~50 % — the whole back
    // replica streams instead of paying one pwb per line).
    EXPECT_LE(stream_pwb * 10, legacy_pwb * 7)
        << "streaming commit path must cut pwbs by >= 30%";
    // Latency drops with the pwbs; generous slack keeps CI deterministic.
    // Sanitizer instrumentation inverts the cost model (uninstrumented NT
    // loops vs intercepted memcpy), so the timing claim only holds on
    // plain builds.
#if !ROMULUS_TEST_SANITIZED
    EXPECT_LT(stream_ns, legacy_ns * 1.05);
#endif

    // The CommitStats accessor explains where the savings came from.
    const auto& cs = pmem::tl_commit_stats();
    EXPECT_GE(cs.commits, uint64_t(kReps));
    EXPECT_GE(cs.lines_logged, uint64_t(kReps) * 128u);
    EXPECT_GT(cs.lines_merged(), 0u);
    EXPECT_GT(cs.avg_run_lines(), 64.0);  // 8 KB coalesces into one long run
    EXPECT_GT(cs.nt_bytes, uint64_t(kReps) * 8192u / 2);
}

// With combine_wait_us set, the combiner holds its MUT window open briefly
// so concurrent announcers join one durable batch instead of each paying
// their own fence pair.
TEST(CombineBatchWait, ConcurrentAnnouncersShareOneDurableBatch) {
    using E = RomulusNL;
    test::ProfileGuard profile(pmem::Profile::NOP);
    CommitConfigGuard commit_guard;
    pmem::commit_config().combine_wait_us = 3000;
    test::EngineSession<E> session(32u << 20, "combine_wait");

    using PU = E::p<uint64_t>;
    PU* arr = nullptr;
    E::updateTx([&] {
        arr = static_cast<PU*>(E::alloc_bytes(8 * 64));
        for (int i = 0; i < 64; ++i) arr[i] = 0u;
        E::put_object(2, arr);
    });

    constexpr int kThreads = 4;
    constexpr uint64_t kRounds = 100;
    // combine_hist is thread-local to whichever thread combined: aggregate
    // the multi-op buckets (>= 2 ops, buckets 1..7) across workers.
    std::atomic<uint64_t> multi_op_batches{0};
    std::vector<std::thread> ts;
    for (int w = 0; w < kThreads; ++w) {
        ts.emplace_back([&, w] {
            const auto& cs = pmem::tl_commit_stats();
            uint64_t before = 0;
            for (int b = 1; b < 8; ++b) before += cs.combine_hist[b];
            for (uint64_t r = 0; r < kRounds; ++r) {
                E::updateTx([&] { arr[w] = arr[w].pload() + 1; });
            }
            uint64_t after = 0;
            for (int b = 1; b < 8; ++b) after += cs.combine_hist[b];
            multi_op_batches.fetch_add(after - before);
        });
    }
    for (auto& t : ts) t.join();

    uint64_t sum = 0;
    E::readTx([&] {
        for (int w = 0; w < kThreads; ++w) sum += arr[w].pload();
    });
    EXPECT_EQ(sum, kThreads * kRounds);
    // The wait window must have batched at least one pair of announcers.
    EXPECT_GT(multi_op_batches.load(), 0u);
}

// ------------------------------------------------------- env knob parsing

TEST(EnvTuning, SharedParserRejectsMalformedValues) {
    long v = 123;
    EXPECT_FALSE(parse_env_long(nullptr, 0, &v));
    EXPECT_FALSE(parse_env_long("", 0, &v));
    EXPECT_FALSE(parse_env_long("abc", 0, &v));     // atol would yield 0
    EXPECT_FALSE(parse_env_long("12x", 0, &v));     // trailing garbage
    EXPECT_FALSE(parse_env_long("1.5", 0, &v));     // not an integer
    EXPECT_FALSE(parse_env_long("9999999999999999999999", 0, &v));  // ERANGE
    EXPECT_FALSE(parse_env_long("-3", 0, &v));      // below the floor
    EXPECT_EQ(v, 123);                              // *out untouched
    EXPECT_TRUE(parse_env_long("42", 1, &v));
    EXPECT_EQ(v, 42);
    EXPECT_TRUE(parse_env_long(" 7 ", 0, &v));      // blanks tolerated
    EXPECT_EQ(v, 7);
    EXPECT_TRUE(parse_env_long("0", 0, &v));
    EXPECT_EQ(v, 0);
}

/// RAII: every knob apply_env_tuning() may touch.
struct TuningGuard {
    ReadConfig read = read_config();
    CommitConfigGuard commit;
    ~TuningGuard() { read_config() = read; }
};

TEST(EnvTuning, MalformedKnobsLeaveDefaults) {
    TuningGuard guard;
    const ReadConfig read_before = read_config();
    const pmem::CommitConfig commit_before = pmem::commit_config();
    ::setenv("ROMULUS_READ_MAX_ATTEMPTS", "0", 1);  // below the >= 1 floor
    ::setenv("ROMULUS_COMBINE_WAIT_US", "8x", 1);
    ::setenv("ROMULUS_COMBINE_RESCANS", "banana", 1);
    const std::string applied = apply_env_tuning();
    ::unsetenv("ROMULUS_READ_MAX_ATTEMPTS");
    ::unsetenv("ROMULUS_COMBINE_WAIT_US");
    ::unsetenv("ROMULUS_COMBINE_RESCANS");
    EXPECT_EQ(read_config().max_attempts, read_before.max_attempts);
    EXPECT_EQ(pmem::commit_config().combine_wait_us,
              commit_before.combine_wait_us);
    EXPECT_EQ(pmem::commit_config().combine_rescans,
              commit_before.combine_rescans);
    EXPECT_TRUE(applied.empty()) << applied;
}

TEST(EnvTuning, WellFormedKnobsApply) {
    TuningGuard guard;
    ::setenv("ROMULUS_READ_MAX_ATTEMPTS", "16", 1);
    ::setenv("ROMULUS_COMBINE_WAIT_US", "25", 1);
    ::setenv("ROMULUS_COMBINE_RESCANS", "0", 1);
    const std::string applied = apply_env_tuning();
    ::unsetenv("ROMULUS_READ_MAX_ATTEMPTS");
    ::unsetenv("ROMULUS_COMBINE_WAIT_US");
    ::unsetenv("ROMULUS_COMBINE_RESCANS");
    EXPECT_EQ(read_config().max_attempts, 16u);
    EXPECT_EQ(pmem::commit_config().combine_wait_us, 25u);
    EXPECT_EQ(pmem::commit_config().combine_rescans, 0u);
    EXPECT_NE(applied.find("ROMULUS_READ_MAX_ATTEMPTS=16"), std::string::npos)
        << applied;
}

}  // namespace
