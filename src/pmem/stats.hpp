// Per-thread persistence-event statistics.
//
// The paper's evaluation repeatedly reasons about *counts* of persistence
// events (Table 1: pfence+psync per transaction; §6.2: pwbs per transaction
// histograms; §3.1: write amplification).  Every pwb/pfence/psync issued
// through the primitives in flush.hpp increments these counters, and the
// interposition layer additionally accounts NVM bytes written, so benchmarks
// can report the same columns the paper does.
#pragma once

#include <cstdint>

namespace romulus::pmem {

struct Stats {
    uint64_t pwb = 0;         ///< persist write-backs issued
    uint64_t pfence = 0;      ///< persist fences issued
    uint64_t psync = 0;       ///< persist syncs issued
    uint64_t nvm_bytes = 0;   ///< bytes stored to the persistent region
    uint64_t tx_aborts = 0;   ///< STM aborts (redo-log baseline only)

    Stats operator-(const Stats& o) const {
        return Stats{pwb - o.pwb, pfence - o.pfence, psync - o.psync,
                     nvm_bytes - o.nvm_bytes, tx_aborts - o.tx_aborts};
    }
    Stats& operator+=(const Stats& o) {
        pwb += o.pwb;
        pfence += o.pfence;
        psync += o.psync;
        nvm_bytes += o.nvm_bytes;
        tx_aborts += o.tx_aborts;
        return *this;
    }
    /// Fences per transaction as reported in Table 1.
    uint64_t fences() const { return pfence + psync; }
};

/// This thread's counters.  Counting is always on; the increments are cheap
/// relative to any real flush instruction.
Stats& tl_stats();

/// Reset this thread's counters to zero.
void reset_tl_stats();

/// Commit-pipeline instrumentation (one struct per thread, like Stats).
/// Tracks how the coalesced/streaming commit path actually behaved: how many
/// per-line log entries were merged into how many maximal runs, and how many
/// replicated bytes went through the non-temporal streaming path versus the
/// classic cached-store + per-line-pwb path.  The pwb savings these counters
/// explain show up in Stats::pwb; this struct says *why*.
struct CommitStats {
    uint64_t commits = 0;       ///< commits that consumed a merged-run pass
    uint64_t runs = 0;          ///< coalesced [off,len) runs consumed
    uint64_t lines_logged = 0;  ///< per-line log entries before merging
    uint64_t nt_bytes = 0;      ///< replica bytes via non-temporal stores
    uint64_t cached_bytes = 0;  ///< replica bytes via cached stores + pwb
    /// Write-backs of lines with no prior dirty store — wasted flushes.
    /// Counted offline by romver's static rule pass (GraphAnalysis::
    /// record_in) rather than on the hot path; stays 0 unless an analysis
    /// run deposits its diagnostic here.
    uint64_t redundant_pwbs = 0;
    /// Outcomes of the redo-log baseline's TL2 speculative commit for update
    /// transactions on this thread.  The Romulus engines and the undo-log
    /// baseline have no speculative update path and leave these at 0.
    uint64_t fastpath_commits = 0;    ///< updateTx committed speculatively
    uint64_t fastpath_aborts = 0;     ///< speculations aborted on conflict
    uint64_t fastpath_fallbacks = 0;  ///< updateTx that took the fallback
                                      ///< mutex instead of speculating
    /// Flat-combining batch-size histogram: bucket b counts combined
    /// transactions whose batch held (2^(b-1), 2^b] announced operations
    /// (bucket 0 = singletons, bucket 7 = everything above 64).  Shows how
    /// much fence amortisation the combiner — including its re-scan window
    /// (CommitConfig::combine_rescans) — actually delivered.
    uint64_t combine_hist[8] = {};

    void note_combine_batch(unsigned ops) {
        unsigned b = 0;
        while (b < 7 && (1u << b) < ops) ++b;
        combine_hist[b]++;
    }

    /// Lines whose individual memcpy/pwb dispatch was avoided by merging.
    uint64_t lines_merged() const { return lines_logged - runs; }
    /// Mean run length in cache lines (1.0 = nothing ever coalesced).
    double avg_run_lines() const {
        return runs == 0 ? 0.0
                         : static_cast<double>(lines_logged) /
                               static_cast<double>(runs);
    }
};

/// This thread's commit-path counters (single-writer engines commit on the
/// combiner thread, so per-thread counting composes the same way tl_stats
/// does for pwbs).
CommitStats& tl_commit_stats();
void reset_tl_commit_stats();

}  // namespace romulus::pmem
