// PersistencyChecker (src/pmem/checker.hpp): the shadow-state machine that
// turns flush/fence/logging discipline bugs into immediate test failures.
//
// Two kinds of test here:
//   * clean-path: every PTM's real transaction machinery runs under the
//     checker with zero hard violations (and the paper's Table 1 fence
//     count is asserted for the Romulus engines);
//   * buggy-fixture: each violation class is provoked deliberately —
//     an unlogged store, a store that is never written back before commit,
//     a store racing a pending pwb under FlushContent::AtPwb — and the test
//     asserts the checker reports exactly that class, while the equivalent
//     correct sequence stays clean.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <vector>

#include "core/engine_globals.hpp"
#include "pmem/checker.hpp"
#include "pmem/sim_persistence.hpp"
#include "ptm_types.hpp"
#include "test_support.hpp"

namespace romulus::test {
namespace {

using pmem::FlushContent;
using pmem::PersistencyChecker;
using Kind = PersistencyChecker::ViolationKind;

constexpr size_t kHeapBytes = 16u << 20;

/// Does this engine promise that every in-transaction store to main is
/// covered by a log-entry notification?  (RomulusNL flushes each store
/// directly instead of logging.)
template <typename E>
constexpr bool engine_logs_stores() {
    return !std::is_same_v<E, RomulusNL>;
}

/// RAII: install a SimHooks observer, restore the previous one on exit.
struct HooksGuard {
    explicit HooksGuard(pmem::SimHooks* h) : saved(pmem::sim_hooks()) {
        pmem::set_sim_hooks(h);
    }
    ~HooksGuard() { pmem::set_sim_hooks(saved); }
    pmem::SimHooks* saved;
};

bool has_kind(const PersistencyChecker& c, Kind k) {
    for (const auto& v : c.violations())
        if (v.kind == k) return true;
    return false;
}

// ---------------------------------------------------------------------------
// Clean path: all five PTMs run real workloads violation-free.
// ---------------------------------------------------------------------------

template <typename E>
class CheckerCleanTyped : public ::testing::Test {};
TYPED_TEST_SUITE(CheckerCleanTyped, AllPtms);

TYPED_TEST(CheckerCleanTyped, RealTransactionsProduceNoViolations) {
    using E = TypeParam;
    using PU = typename E::template p<uint64_t>;
    struct Rec {
        PU a, b, c;
    };
    EngineSession<E> session(kHeapBytes, "checker_clean");

    PersistencyChecker::Options opts;
    opts.require_log = engine_logs_stores<E>();
    PersistencyChecker checker(PersistencyChecker::template layout_of<E>(),
                               opts);
    const auto before = tx_lifecycle_counters();
    {
        HooksGuard guard(&checker);
        E::updateTx([&] {
            auto* r = E::template tmNew<Rec>();
            r->a = 1u;
            r->b = 2u;
            r->c = 3u;
            E::put_object(0, r);
        });
        for (uint64_t i = 0; i < 20; ++i) {
            E::updateTx([&] {
                auto* r = E::template get_object<Rec>(0);
                r->a = r->a.pload() + i;
                r->b = r->b.pload() * 3u;
            });
            uint64_t got = 0;
            E::readTx([&] {
                auto* r = E::template get_object<Rec>(0);
                got = r->a.pload();
            });
            (void)got;
        }
        E::updateTx([&] {
            auto* r = E::template get_object<Rec>(0);
            E::template tmDelete<Rec>(r);
            E::put_object(0, nullptr);
        });
    }
    EXPECT_TRUE(checker.clean()) << checker.report();
    const auto d = checker.diagnostics();
    EXPECT_EQ(d.tx_begins, 22u);
    EXPECT_EQ(d.tx_commits, 22u);
    EXPECT_EQ(d.tx_aborts, 0u);
    // The process-wide counters moved by exactly the same amount.
    const auto after = tx_lifecycle_counters();
    EXPECT_EQ(after.begins - before.begins, 22u);
    EXPECT_EQ(after.commits - before.commits, 22u);
}

TYPED_TEST(CheckerCleanTyped, AbortedTransactionsStayClean) {
    using E = TypeParam;
    using PU = typename E::template p<uint64_t>;
    EngineSession<E> session(kHeapBytes, "checker_abort");

    PersistencyChecker::Options opts;
    opts.require_log = engine_logs_stores<E>();
    PersistencyChecker checker(PersistencyChecker::template layout_of<E>(),
                               opts);
    {
        HooksGuard guard(&checker);
        E::updateTx([&] {
            auto* v = E::template tmNew<PU>();
            *v = 7u;  // romlint would flag this; operator* on persist<> is
                      // pstore-interposed via operator=(T) here (p<> member)
            E::put_object(1, v);
        });
        struct Boom {};
        try {
            E::updateTx([&] {
                auto* v = E::template get_object<PU>(1);
                *v = 99u;
                throw Boom{};
            });
        } catch (const Boom&) {
        }
        uint64_t got = 0;
        E::readTx([&] { got = E::template get_object<PU>(1)->pload(); });
        EXPECT_EQ(got, 7u);  // failure atomicity
    }
    EXPECT_TRUE(checker.clean()) << checker.report();
    EXPECT_EQ(checker.diagnostics().tx_aborts, 1u);
}

// Table 1: a Romulus transaction costs a constant 4 persistence fences,
// independent of how many stores it performs.
template <typename E>
class RomulusFenceCount : public ::testing::Test {};
using RomulusVariants = ::testing::Types<RomulusNL, RomulusLog, RomulusLR>;
TYPED_TEST_SUITE(RomulusFenceCount, RomulusVariants);

TYPED_TEST(RomulusFenceCount, SimpleTransactionUsesExactlyFourFences) {
    using E = TypeParam;
    using PU = typename E::template p<uint64_t>;
    EngineSession<E> session(kHeapBytes, "checker_fences");

    PersistencyChecker checker(PersistencyChecker::template layout_of<E>());
    {
        HooksGuard guard(&checker);
        E::updateTx([&] {
            auto* v = E::template tmNew<PU>();
            *v = 1u;
            E::put_object(0, v);
        });
        for (int n : {1, 8, 64}) {
            E::updateTx([&] {
                auto* v = E::template get_object<PU>(0);
                for (int i = 0; i < n; ++i) *v = uint64_t(i);
            });
            EXPECT_EQ(checker.diagnostics().fences_in_last_tx, 4u)
                << "store count " << n;
        }
    }
    EXPECT_TRUE(checker.clean()) << checker.report();
}

// The checker composes: events keep flowing to a chained observer
// (SimPersistence) through Options::next.
TEST(CheckerChain, ForwardsEventsToNextObserver) {
    using E = RomulusLog;
    using PU = typename E::template p<uint64_t>;
    EngineSession<E> session(kHeapBytes, "checker_chain");

    pmem::SimPersistence sim(E::region().base(), E::region().size());
    PersistencyChecker::Options opts;
    opts.require_log = true;
    opts.next = &sim;
    PersistencyChecker checker(PersistencyChecker::template layout_of<E>(),
                               opts);
    {
        HooksGuard guard(&checker);
        E::updateTx([&] {
            auto* v = E::template tmNew<PU>();
            *v = 5u;
            E::put_object(0, v);
        });
    }
    EXPECT_TRUE(checker.clean()) << checker.report();
    EXPECT_GT(sim.fence_count(), 0u);  // the chained model saw the fences
}

// ---------------------------------------------------------------------------
// Buggy fixtures: each hard violation class is provoked and caught.
// ---------------------------------------------------------------------------

// A store to main inside a mutating transaction that bypasses the range log
// (flushed correctly, so the *only* defect is the missing log coverage): the
// commit copy skips the line, so a crash right after commit loses it.
TEST(CheckerViolation, UnloggedStoreInsideTransaction) {
    using E = RomulusLog;
    EngineSession<E> session(kHeapBytes, "checker_unlogged");
    struct Wide {
        unsigned char bytes[256];
    };

    PersistencyChecker::Options opts;
    opts.require_log = true;
    PersistencyChecker checker(PersistencyChecker::template layout_of<E>(),
                               opts);
    Wide* w = nullptr;
    E::updateTx([&] {
        w = E::template tmNew<Wide>();
        E::put_object(0, w);
    });
    {
        HooksGuard guard(&checker);
        E::updateTx([&] {
            // Aligned well inside the object: no other store shares the line.
            unsigned char* raw = w->bytes + 128;
            raw[0] = 0xAB;                // the bypass: a direct store ...
            pmem::on_store(raw, 1);       // ... the wrappers would interpose
            pmem::pwb_range(raw, 1);      // flushed, but never range-logged
        });
    }
    EXPECT_FALSE(checker.clean());
    EXPECT_TRUE(has_kind(checker, Kind::UnloggedStore)) << checker.report();

    // Correct path: same store through the engine's interposition is clean.
    checker.clear();
    {
        HooksGuard guard(&checker);
        E::updateTx([&] {
            unsigned char b = 0xCD;
            E::store_range(w->bytes + 128, &b, 1);
        });
    }
    EXPECT_TRUE(checker.clean()) << checker.report();
}

// A store that is never written back: the line is still volatile when the
// engine advertises the commit (dirty at CPY transition, dirty at commit).
TEST(CheckerViolation, MissingPwbBeforeCommit) {
    using E = RomulusNL;  // NL: no log discipline, flush-per-store
    EngineSession<E> session(kHeapBytes, "checker_nopwb");
    struct Wide {
        unsigned char bytes[256];
    };

    PersistencyChecker checker(PersistencyChecker::template layout_of<E>());
    Wide* w = nullptr;
    E::updateTx([&] {
        w = E::template tmNew<Wide>();
        E::put_object(0, w);
    });
    {
        HooksGuard guard(&checker);
        E::updateTx([&] {
            unsigned char* raw = w->bytes + 128;
            raw[0] = 0xAB;           // stored ...
            pmem::on_store(raw, 1);  // ... but never pwb'd: stays Dirty
        });
    }
    EXPECT_FALSE(checker.clean());
    EXPECT_TRUE(has_kind(checker, Kind::DirtyAtTransition))
        << checker.report();
    EXPECT_TRUE(has_kind(checker, Kind::DirtyAtCommit)) << checker.report();

    // Correct path: store + pwb (what pstore does) is clean.
    checker.clear();
    {
        HooksGuard guard(&checker);
        E::updateTx([&] {
            unsigned char b = 0xCD;
            E::store_range(w->bytes + 128, &b, 1);
        });
    }
    EXPECT_TRUE(checker.clean()) << checker.report();
}

// ---------------------------------------------------------------------------
// Direct-drive fixtures: the AtPwb race and the soft diagnostics, exercised
// on a synthetic region without an engine.
// ---------------------------------------------------------------------------

struct DirectChecker {
    static constexpr size_t kSize = 4096;
    alignas(64) unsigned char buf[kSize] = {};

    PersistencyChecker::Layout layout() const {
        PersistencyChecker::Layout l;
        l.base = buf;
        l.size = kSize;
        l.main = buf;
        l.main_size = kSize;
        l.back = nullptr;
        return l;
    }
};

// Under AtPwb hardware the write-back captures the line content when the pwb
// executes: a store after the pwb is NOT covered by the following fence.
TEST(CheckerViolation, StoreRacingPendingPwbUnderAtPwb) {
    DirectChecker d;
    PersistencyChecker::Options opts;
    opts.content = FlushContent::AtPwb;
    PersistencyChecker checker(d.layout(), opts);

    checker.on_store(d.buf, 8);
    checker.on_pwb(d.buf);
    checker.on_store(d.buf, 8);  // racing store: pwb already captured
    checker.on_fence();          // fence persists the stale capture
    EXPECT_FALSE(checker.clean());
    EXPECT_TRUE(has_kind(checker, Kind::StoreAfterPwb)) << checker.report();

    // Correct path — the note_used pattern: every store is re-flushed before
    // the fence, so the final capture is current.  Must stay clean.
    PersistencyChecker ok(d.layout(), opts);
    ok.on_store(d.buf, 8);
    ok.on_pwb(d.buf);
    ok.on_store(d.buf, 8);
    ok.on_pwb(d.buf);  // re-capture
    ok.on_fence();
    EXPECT_TRUE(ok.clean()) << ok.report();
}

// The same racing sequence is legal under AtFence semantics (content is read
// when the fence runs): the checker must not cry wolf.
TEST(CheckerViolation, StoreRacingPendingPwbLegalUnderAtFence) {
    DirectChecker d;
    PersistencyChecker checker(d.layout(), PersistencyChecker::Options{});
    checker.on_store(d.buf, 8);
    checker.on_pwb(d.buf);
    checker.on_store(d.buf, 8);
    checker.on_fence();
    EXPECT_TRUE(checker.clean()) << checker.report();
}

TEST(CheckerDiagnostics, RedundantPwbAndEmptyFenceAreCounted) {
    DirectChecker d;
    PersistencyChecker checker(d.layout(), PersistencyChecker::Options{});

    checker.on_pwb(d.buf);  // line is Clean: wasted write-back
    EXPECT_EQ(checker.diagnostics().redundant_pwb, 1u);
    checker.on_fence();  // drains the (redundant) pending write-back
    EXPECT_EQ(checker.diagnostics().empty_fence, 0u);
    checker.on_fence();  // nothing pending at all now
    EXPECT_EQ(checker.diagnostics().empty_fence, 1u);

    checker.on_store(d.buf + 64, 8);
    checker.on_pwb(d.buf + 64);
    EXPECT_EQ(checker.diagnostics().redundant_pwb, 1u);  // not redundant
    checker.on_fence();
    EXPECT_EQ(checker.diagnostics().empty_fence, 1u);
    EXPECT_TRUE(checker.clean()) << checker.report();
    EXPECT_EQ(checker.dirty_line_count(), 0u);
    EXPECT_EQ(checker.pending_line_count(), 0u);
}

// A pwb with no fence before the state transition: the write-back may still
// reorder past the state store (the missing-pfence bug of Algorithm 1).
TEST(CheckerViolation, PendingWriteBackAtStateTransition) {
    DirectChecker d;
    PersistencyChecker checker(d.layout(), PersistencyChecker::Options{});
    checker.on_store(d.buf, 8);
    checker.on_pwb(d.buf);
    checker.on_state_transition(2);  // CPY advertised without a fence
    EXPECT_FALSE(checker.clean());
    EXPECT_TRUE(has_kind(checker, Kind::PendingAtTransition))
        << checker.report();

    PersistencyChecker ok(d.layout(), PersistencyChecker::Options{});
    ok.on_store(d.buf, 8);
    ok.on_pwb(d.buf);
    ok.on_fence();
    ok.on_state_transition(2);
    EXPECT_TRUE(ok.clean()) << ok.report();
}

TEST(CheckerReport, RecordsViolationDetailAndRespectsCap) {
    DirectChecker d;
    PersistencyChecker::Options opts;
    opts.max_recorded = 2;
    PersistencyChecker checker(d.layout(), opts);
    for (int i = 0; i < 8; ++i) {
        checker.on_store(d.buf + size_t(i) * 64, 8);
    }
    checker.on_state_transition(2);
    EXPECT_EQ(checker.violation_count(), 8u);
    EXPECT_EQ(checker.violations().size(), 2u);  // capped
    const std::string rep = checker.report();
    EXPECT_NE(rep.find("dirty-at-transition"), std::string::npos);
}

}  // namespace
}  // namespace romulus::test
