// Commit-phase tracer: a timestamping pmem::SimHooks sink.
//
// Installed only for the traced run.  It follows each durable transaction
// through the hook stream the engine already emits and records, on the
// committing thread, the boundaries of six spans:
//
//   begin      on_tx_begin -> first event after the fence that follows MUT
//   body       -> first write-back or fence after the body's stores
//   flush      -> on_state_transition(CPY) (main write-backs + pfence)
//   psync      -> first event after the psync that follows CPY (this
//                 includes the copy of the first replication run, whose
//                 events are reported after its bytes are copied)
//   replicate  -> on_state_transition(IDL) (back replication + pfence)
//   tx         on_tx_begin -> on_tx_commit
//
// Records go to thread-local buffers; each client thread takes its own
// buffer when it finishes.  A transaction run by the combiner is recorded
// on the combiner's thread.  With hooks installed pwb_range takes its
// per-line path, so traced timings serve attribution only.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "core/romulus.hpp"
#include "pmem/flush.hpp"

namespace perfbench {

inline uint64_t now_ns() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/// Span durations of one committed transaction, in ns.
struct TxSpans {
    uint32_t begin, body, flush, psync, replicate, tx;
};

class PhaseTracer final : public romulus::pmem::SimHooks {
  public:
    /// The calling thread's committed-transaction records so far.
    static std::vector<TxSpans>& records() { return tl().recs; }
    /// Total ns this thread spent inside transactions it committed.
    static uint64_t own_tx_ns() { return tl().tx_ns; }

    void on_store(const void*, size_t) override { body_or_replicate_event(); }
    void on_range_logged(const void*, size_t) override {
        body_or_replicate_event();
    }

    void on_pwb(const void*) override {
        Tl& t = tl();
        if (t.stage == kAwaitBody) {
            t.t[1] = t.t[2] = now_ns();
            t.stage = kFlush;
        } else if (t.stage == kBody) {
            t.t[2] = now_ns();
            t.stage = kFlush;
        } else if (t.stage == kAwaitReplicate) {
            t.t[4] = now_ns();
            t.stage = kReplicate;
        }
    }

    void on_fence() override {
        Tl& t = tl();
        switch (t.stage) {
            case kAwaitMutFence:
                t.stage = kAwaitBody;
                break;
            case kAwaitBody:
                t.t[1] = t.t[2] = now_ns();
                t.stage = kFlush;
                break;
            case kBody:
                t.t[2] = now_ns();
                t.stage = kFlush;
                break;
            case kAwaitPsync:
                t.stage = kAwaitReplicate;
                break;
            default:
                break;
        }
    }

    void on_tx_begin() override {
        Tl& t = tl();
        t.t[0] = now_ns();
        t.stage = kAwaitMut;
    }

    void on_state_transition(uint32_t st) override {
        Tl& t = tl();
        if (t.stage == kIdle) return;
        if (st == romulus::MUT) {
            t.stage = kAwaitMutFence;
        } else if (st == romulus::CPY) {
            t.t[3] = now_ns();
            t.stage = kAwaitPsync;
        } else if (st == romulus::IDL) {
            const uint64_t n = now_ns();
            if (t.stage == kAwaitReplicate) t.t[4] = n;
            t.t[5] = n;
            t.stage = kAwaitCommit;
        }
    }

    void on_tx_commit() override {
        Tl& t = tl();
        if (t.stage != kAwaitCommit) {
            t.stage = kIdle;
            return;
        }
        const uint64_t end = now_ns();
        t.recs.push_back(TxSpans{
            uint32_t(t.t[1] - t.t[0]), uint32_t(t.t[2] - t.t[1]),
            uint32_t(t.t[3] - t.t[2]), uint32_t(t.t[4] - t.t[3]),
            uint32_t(t.t[5] - t.t[4]), uint32_t(end - t.t[0])});
        t.tx_ns += end - t.t[0];
        t.stage = kIdle;
    }

    void on_tx_abort() override { tl().stage = kIdle; }

  private:
    enum Stage {
        kIdle,
        kAwaitMut,
        kAwaitMutFence,
        kAwaitBody,
        kBody,
        kFlush,
        kAwaitPsync,
        kAwaitReplicate,
        kReplicate,
        kAwaitCommit,
    };
    struct Tl {
        Stage stage = kIdle;
        uint64_t t[6] = {};
        uint64_t tx_ns = 0;
        std::vector<TxSpans> recs;
    };
    static Tl& tl() {
        static thread_local Tl t;
        return t;
    }

    static void body_or_replicate_event() {
        Tl& t = tl();
        if (t.stage == kAwaitBody) {
            t.t[1] = now_ns();
            t.stage = kBody;
        } else if (t.stage == kAwaitReplicate) {
            t.t[4] = now_ns();
            t.stage = kReplicate;
        }
    }
};

}  // namespace perfbench
