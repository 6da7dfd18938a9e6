// Update-transaction outcomes on the flat-combining commit path.
//
// The suite names StripeFastPath / StripeFastPathCrash date from the
// retired stripe-locked speculative update path (DESIGN.md §4.11,
// EXPERIMENTS.md E18).  That path ran on RomulusNL, RomulusLog and the
// undo-log baseline; these tests pinned what it had to preserve: small
// updates land, allocating and freeing transactions complete without
// throwing, a user exception leaves no state change, a large footprint
// lands every store, disjoint writers lose no update, and a crash at any
// fence recovers.  Every updateTx on those engines now goes announce ->
// combiner, so the same outcomes are checked there, together with the two
// properties the retirement restored: each update closure runs exactly
// once, and no speculation is attempted (CommitStats::fastpath_* stay
// still; only the redo-log baseline's TL2 commit fills them).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/tx_trace.hpp"
#include "ds/pqueue.hpp"
#include "fence_sweep.hpp"
#include "pmem/sim_persistence.hpp"
#include "pmem/stats.hpp"
#include "ptm_types.hpp"
#include "test_support.hpp"

using namespace romulus;
using romulus::test::EngineSession;

namespace {

/// Snapshot of this thread's fast-path counters; `unchanged()` is the
/// witness that no speculation was attempted since construction.
struct FastPathCounters {
    const pmem::CommitStats& cs = pmem::tl_commit_stats();
    uint64_t commits = cs.fastpath_commits;
    uint64_t aborts = cs.fastpath_aborts;
    uint64_t fallbacks = cs.fastpath_fallbacks;
    bool unchanged() const {
        return cs.fastpath_commits == commits &&
               cs.fastpath_aborts == aborts &&
               cs.fastpath_fallbacks == fallbacks;
    }
};

}  // namespace

// The engines the retired fast path covered.  RomulusLR has its Left-Right
// path and the redo-log baseline its native TL2 commit.
using CombinerPtms =
    ::testing::Types<RomulusNL, RomulusLog, baselines::UndoLogPTM>;

template <typename E>
class StripeFastPath : public ::testing::Test {
  protected:
    void SetUp() override {
        pmem::set_profile(pmem::Profile::NOP);
        session_ = std::make_unique<EngineSession<E>>(
            32u << 20, std::string("updpath_") + E::name());
    }
    void TearDown() override { session_.reset(); }

    using PU = typename E::template p<uint64_t>;

    /// A 64-slot array of line-strided counters (slot i at byte i*64),
    /// published as root 2.
    PU* setup_counters() {
        PU* arr = nullptr;
        E::updateTx([&] {
            arr = static_cast<PU*>(E::alloc_bytes(64 * 64));
            for (int i = 0; i < 64; ++i) arr[i * 8] = 0u;
            E::put_object(2, arr);
        });
        return arr;
    }

    std::unique_ptr<EngineSession<E>> session_;
};

TYPED_TEST_SUITE(StripeFastPath, CombinerPtms);

TYPED_TEST(StripeFastPath, SmallDisjointUpdateCommitsThroughFastPath) {
    using E = TypeParam;
    auto* arr = this->setup_counters();
    FastPathCounters fp;
    int runs = 0;
    for (int round = 0; round < 10; ++round) {
        E::updateTx([&] {
            ++runs;
            arr[0] = arr[0].pload() + 1;
        });
    }
    EXPECT_EQ(runs, 10);
    EXPECT_TRUE(fp.unchanged());
    uint64_t got = 0;
    E::readTx([&] { got = arr[0].pload(); });
    EXPECT_EQ(got, 10u);
}

TYPED_TEST(StripeFastPath, AllocatingTxFallsBackWithoutThrowing) {
    using E = TypeParam;
    FastPathCounters fp;
    using PU = typename E::template p<uint64_t>;
    PU* obj = nullptr;
    int runs = 0;
    EXPECT_NO_THROW(E::updateTx([&] {
        ++runs;
        obj = static_cast<PU*>(E::alloc_bytes(8));
        *obj = 77u;
        E::put_object(3, obj);
    }));
    EXPECT_EQ(runs, 1);
    EXPECT_TRUE(fp.unchanged());
    uint64_t got = 0;
    E::readTx(
        [&] { got = E::template get_object<PU>(3)->pload(); });
    EXPECT_EQ(got, 77u);
}

// Regression for the std::terminate the throwing-abort design of the
// speculative path hit: a data-structure destructor (implicitly noexcept)
// running inside an updateTx closure calls tmDelete -> free_bytes.  On the
// combiner path the free must simply commit.
TYPED_TEST(StripeFastPath, NoexceptDestructorFreeInsideTxFallsBack) {
    using E = TypeParam;
    using Q = ds::PQueue<E, uint64_t>;
    Q* q = nullptr;
    E::updateTx([&] { q = E::template tmNew<Q>(); });
    for (uint64_t i = 0; i < 8; ++i) q->enqueue(i);
    FastPathCounters fp;
    int runs = 0;
    // ~PQueue ploads the chain and tmDeletes every node beneath a noexcept
    // frame.
    E::updateTx([&] {
        ++runs;
        E::tmDelete(q);
    });
    EXPECT_EQ(runs, 1);
    EXPECT_TRUE(fp.unchanged());
}

TYPED_TEST(StripeFastPath, UserExceptionAbortsWithNoStateChange) {
    using E = TypeParam;
    auto* arr = this->setup_counters();
    E::updateTx([&] { arr[0] = 5u; });
    FastPathCounters fp;
    struct Boom {};
    int runs = 0;
    EXPECT_THROW(E::updateTx([&] {
        ++runs;
        arr[0] = 99u;
        throw Boom{};
    }),
                 Boom);
    EXPECT_EQ(runs, 1);  // the exception propagates; no re-run
    EXPECT_TRUE(fp.unchanged());
    uint64_t got = 0;
    E::readTx([&] { got = arr[0].pload(); });
    EXPECT_EQ(got, 5u);  // failure atomicity: the store was rolled back
}

TYPED_TEST(StripeFastPath, FootprintOverflowFallsBackAndLandsEveryStore) {
    using E = TypeParam;
    auto* arr = this->setup_counters();
    FastPathCounters fp;
    int runs = 0;
    E::updateTx([&] {
        ++runs;
        for (int i = 0; i < 16; ++i) arr[i * 8] = uint64_t(i) + 1;  // 16 lines
    });
    EXPECT_EQ(runs, 1);
    EXPECT_TRUE(fp.unchanged());
    uint64_t sum = 0;
    E::readTx([&] {
        for (int i = 0; i < 16; ++i) sum += arr[i * 8].pload();
    });
    EXPECT_EQ(sum, 136u);  // 1 + 2 + ... + 16
}

TYPED_TEST(StripeFastPath, DisjointThreadsAllCommitSpeculatively) {
    using E = TypeParam;
    auto* arr = this->setup_counters();
    constexpr int kThreads = 4;
    constexpr uint64_t kRounds = 200;
    std::atomic<uint64_t> runs{0};
    std::atomic<bool> speculated{false};
    std::vector<std::thread> ts;
    for (int w = 0; w < kThreads; ++w) {
        ts.emplace_back([&, w] {
            FastPathCounters fp;
            for (uint64_t r = 0; r < kRounds; ++r) {
                // Thread-private line; the combiner may run it on behalf of
                // another thread, but exactly once.
                E::updateTx([&] {
                    runs.fetch_add(1, std::memory_order_relaxed);
                    arr[w * 8] = arr[w * 8].pload() + 1;
                });
            }
            if (!fp.unchanged()) speculated.store(true);
        });
    }
    for (auto& t : ts) t.join();
    uint64_t sum = 0;
    E::readTx([&] {
        for (int w = 0; w < kThreads; ++w) sum += arr[w * 8].pload();
    });
    EXPECT_EQ(sum, kThreads * kRounds);  // no lost updates
    EXPECT_EQ(runs.load(), kThreads * kRounds);  // no closure ran twice
    EXPECT_FALSE(speculated.load());
}

// ------------------------------------------------------------ crash sweeps

/// A trace whose updates mostly overwrite a tiny hot key set with same-size
/// (0/1-byte) values, so the KV store reuses the value buffer in place;
/// new-key puts and buffer reallocations mix allocating commits into the
/// same history.  This is the history the retired path's crash sweep used,
/// where the in-place updates were the ones that committed speculatively.
template <typename E>
analysis::TxTrace small_update_trace() {
    analysis::GenConfig g;
    g.setup_ops = 0;  // every sub-tx is part of the prefix-checked history
    g.episode_ops = 14;
    g.key_space = 4;
    g.value_max = 1;
    g.put_pct = 85;
    g.del_pct = 0;
    g.get_pct = 15;  // remainder 0: no cross-shard batches
    g.skew_draws = 1;
    return analysis::generate_trace(
        g, /*seed=*/20260808, /*shard_count=*/1,
        analysis::engine_id_of<E>(),
        [](std::string_view) { return 0u; });
}

template <typename E>
class StripeFastPathCrash : public ::testing::Test {
  protected:
    void SetUp() override { pmem::set_profile(pmem::Profile::NOP); }
    void TearDown() override { pmem::set_sim_hooks(nullptr); }
};

TYPED_TEST_SUITE(StripeFastPathCrash, CombinerPtms);

TYPED_TEST(StripeFastPathCrash, EveryFenceCrashRecoversWithFastPathArmed) {
    using E = TypeParam;
    const std::string path =
        test::heap_path(std::string("updpath_crash_") + E::name());
    pmem::SimPersistence::Options opts{pmem::FlushContent::AtFence, 0.0, 7};
    test::run_trace_fence_sweep<E>(small_update_trace<E>(), path, opts);
}
