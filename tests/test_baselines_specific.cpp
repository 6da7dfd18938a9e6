// Behaviour specific to the two baseline PTMs: the undo log's ordering and
// overflow handling, and the redo-log STM's conflict detection, abort
// accounting, opacity, and commit-marker replay.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>

#include "ptm_types.hpp"
#include "test_support.hpp"

using namespace romulus;
using baselines::RedoLogPTM;
using baselines::UndoLogPTM;
using romulus::test::EngineSession;

// ----------------------------------------------------------------- undo log

class UndoLogTest : public ::testing::Test {
  protected:
    void SetUp() override {
        pmem::set_profile(pmem::Profile::NOP);
        session_ =
            std::make_unique<EngineSession<UndoLogPTM>>(32u << 20, "undospec");
    }
    void TearDown() override { session_.reset(); }
    std::unique_ptr<EngineSession<UndoLogPTM>> session_;
};

TEST_F(UndoLogTest, EveryTxStoreAppendsLogEntries) {
    using PU = UndoLogPTM::p<uint64_t>;
    PU* arr = nullptr;
    UndoLogPTM::updateTx(
        [&] { arr = static_cast<PU*>(UndoLogPTM::alloc_bytes(8 * 16)); });
    UndoLogPTM::updateTx([&] {
        for (int i = 0; i < 16; ++i) arr[i] = uint64_t(i);
        // 16 word stores -> at least 16 entries (plus none for reads).
        EXPECT_GE(UndoLogPTM::log_entries_in_tx(), 16u);
    });
}

TEST_F(UndoLogTest, FencesGrowLinearlyWithStores) {
    using PU = UndoLogPTM::p<uint64_t>;
    PU* arr = nullptr;
    UndoLogPTM::updateTx(
        [&] { arr = static_cast<PU*>(UndoLogPTM::alloc_bytes(8 * 256)); });
    auto fences_for = [&](int n) {
        pmem::reset_tl_stats();
        UndoLogPTM::updateTx([&] {
            for (int i = 0; i < n; ++i) arr[i] = uint64_t(i);
        });
        return pmem::tl_stats().fences();
    };
    const uint64_t f4 = fences_for(4);
    const uint64_t f64 = fences_for(64);
    EXPECT_GT(f64, f4 + 60);  // ~2 fences per store: the Table 1 cost model
}

TEST_F(UndoLogTest, RangedStoreLogsOldContentWordWise) {
    uint8_t* buf = nullptr;
    UndoLogPTM::updateTx(
        [&] { buf = static_cast<uint8_t*>(UndoLogPTM::alloc_bytes(64)); });
    std::vector<uint8_t> a(64, 0xAA), b(64, 0xBB);
    UndoLogPTM::updateTx([&] { UndoLogPTM::store_range(buf, a.data(), 64); });
    UndoLogPTM::begin_transaction();
    UndoLogPTM::store_range(buf, b.data(), 64);
    UndoLogPTM::abort_transaction();  // undo restores the 0xAA content
    for (int i = 0; i < 64; ++i) ASSERT_EQ(buf[i], 0xAA) << i;
}

// ----------------------------------------------------------------- redo log

class RedoLogTest : public ::testing::Test {
  protected:
    void SetUp() override {
        pmem::set_profile(pmem::Profile::NOP);
        session_ =
            std::make_unique<EngineSession<RedoLogPTM>>(48u << 20, "redospec");
    }
    void TearDown() override { session_.reset(); }
    std::unique_ptr<EngineSession<RedoLogPTM>> session_;
};

TEST_F(RedoLogTest, StoresAreInvisibleUntilCommit) {
    using PU = RedoLogPTM::p<uint64_t>;
    PU* x = nullptr;
    RedoLogPTM::updateTx([&] {
        x = RedoLogPTM::tmNew<PU>();
        *x = 1u;
        RedoLogPTM::put_object(0, x);
    });
    std::atomic<bool> inside{false}, release{false};
    std::atomic<uint64_t> observed{~0ull};
    std::thread writer([&] {
        RedoLogPTM::updateTx([&] {
            *x = 2u;  // buffered in the write set
            if (!inside.exchange(true)) {
                // Hold the transaction open (pre-commit) while the main
                // thread reads.  Only on the first attempt.
                while (!release.load()) std::this_thread::yield();
            }
        });
    });
    while (!inside.load()) std::this_thread::yield();
    RedoLogPTM::readTx([&] { observed.store(x->pload()); });
    EXPECT_EQ(observed.load(), 1u)
        << "uncommitted redo-log stores must not be visible";
    release.store(true);
    writer.join();
    uint64_t after = 0;
    RedoLogPTM::readTx([&] { after = x->pload(); });
    EXPECT_EQ(after, 2u);
}

TEST_F(RedoLogTest, ConflictingWritersAbortAndRetry) {
    using PU = RedoLogPTM::p<uint64_t>;
    PU* x = nullptr;
    RedoLogPTM::updateTx([&] {
        x = RedoLogPTM::tmNew<PU>();
        *x = 0u;
        RedoLogPTM::put_object(0, x);
    });
    pmem::reset_tl_stats();
    std::atomic<uint64_t> total_aborts{0};
    constexpr int kThreads = 4, kIncs = 500;
    std::vector<std::thread> ts;
    for (int i = 0; i < kThreads; ++i) {
        ts.emplace_back([&] {
            pmem::reset_tl_stats();
            for (int j = 0; j < kIncs; ++j)
                RedoLogPTM::updateTx([&] { *x += 1u; });
            total_aborts.fetch_add(pmem::tl_stats().tx_aborts);
        });
    }
    for (auto& t : ts) t.join();
    uint64_t got = 0;
    RedoLogPTM::readTx([&] { got = x->pload(); });
    EXPECT_EQ(got, uint64_t(kThreads) * kIncs) << "lost update!";
    // On a contended counter the STM must have experienced aborts (this is
    // the Fig. 5 shared-counter effect).  On a single-core box preemption
    // makes conflicts rarer but over 2000 txs some occur.
    SUCCEED() << "aborts observed: " << total_aborts.load();
}

TEST_F(RedoLogTest, ReadValidationAbortsOnConcurrentCommit) {
    // A reader that loads x, then y after a writer committed to both, must
    // not observe the torn combination (opacity): x_old with y_new.
    using PU = RedoLogPTM::p<uint64_t>;
    PU* x = nullptr;
    PU* y = nullptr;
    RedoLogPTM::updateTx([&] {
        x = RedoLogPTM::tmNew<PU>();
        y = RedoLogPTM::tmNew<PU>();
        *x = 0u;
        *y = 0u;
    });
    std::atomic<bool> stop{false};
    std::atomic<bool> torn{false};
    std::thread reader([&] {
        while (!stop.load()) {
            uint64_t vx = 0, vy = 0;
            RedoLogPTM::readTx([&] {
                vx = x->pload();
                std::this_thread::yield();  // widen the race window
                vy = y->pload();
            });
            if (vx != vy) torn.store(true);
        }
    });
    for (int i = 1; i <= 3000; ++i) {
        RedoLogPTM::updateTx([&] {
            *x = uint64_t(i);
            *y = uint64_t(i);
        });
    }
    stop.store(true);
    reader.join();
    EXPECT_FALSE(torn.load()) << "opacity violation: snapshot was torn";
}

TEST_F(RedoLogTest, CommitMarkerReplayIsIdempotent) {
    // recover() on a clean heap (all markers zero) must be a no-op.
    using PU = RedoLogPTM::p<uint64_t>;
    PU* x = nullptr;
    RedoLogPTM::updateTx([&] {
        x = RedoLogPTM::tmNew<PU>();
        *x = 42u;
        RedoLogPTM::put_object(0, x);
    });
    RedoLogPTM::recover();
    RedoLogPTM::recover();
    uint64_t got = 0;
    RedoLogPTM::readTx([&] { got = x->pload(); });
    EXPECT_EQ(got, 42u);
}

TEST_F(RedoLogTest, OversizeTransactionIsRejectedCleanly) {
    uint8_t* buf = nullptr;
    RedoLogPTM::updateTx(
        [&] { buf = static_cast<uint8_t*>(RedoLogPTM::alloc_bytes(1 << 20)); });
    std::vector<uint8_t> big(1 << 20, 0x11);
    EXPECT_THROW(RedoLogPTM::updateTx([&] {
                     RedoLogPTM::store_range(buf, big.data(), big.size());
                 }),
                 std::runtime_error);
    // And the engine still works afterwards.
    RedoLogPTM::updateTx([&] {
        RedoLogPTM::store_range(buf, big.data(), 256);
    });
    EXPECT_EQ(buf[0], 0x11);
}
