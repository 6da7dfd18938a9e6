// Volatile redo log of modified ranges (§4.7).
//
// Unlike every prior PTM log, this one stores *only addresses and lengths*,
// never data, and lives in volatile memory: the recovery procedure does not
// need it (Algorithm 1 recovers from the twin copy alone), so nothing about
// it is ever flushed.  At commit, the logged cache lines are (a) written
// back on main — one pwb per modified line instead of one per store — and
// (b) copied from main to back instead of copying the whole region.
//
// Deduplication is at cache-line granularity through an epoch-tagged
// open-addressing table, so a transaction that hammers one counter logs (and
// later flushes/copies) a single line.  If a transaction touches more bytes
// than a threshold (or overflows the table) the log degenerates to
// "full copy" mode — the same behaviour as the basic algorithm, which §6.6
// shows is actually *preferable* for huge transactions.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "pmem/flush.hpp"

namespace romulus {

class RangeLog {
  public:
    struct Entry {
        uint64_t off;  ///< byte offset of the cache line within main
        uint32_t len;  ///< always a whole cache line today
    };

    RangeLog() : RangeLog(16) {}
    explicit RangeLog(size_t table_bits)
        : mask_((size_t{1} << table_bits) - 1),
          lines_(size_t{1} << table_bits),
          epochs_(size_t{1} << table_bits, 0) {}

    /// Dedup-table sizing policy for a sharded engine: one log per shard, so
    /// with many shards each table can be smaller — a shard sees only its
    /// slice of the write traffic, and 2^bits slots cost 12 bytes each.
    static size_t suggested_table_bits(unsigned shards) {
        return shards > 1 ? 14 : 16;
    }

    /// Start a transaction.  `full_copy_threshold` is the number of logged
    /// bytes beyond which we give up and fall back to a full region copy.
    void begin_tx(size_t full_copy_threshold) {
        if (++epoch_ == 0) {
            // The 32-bit epoch wrapped back to the slot-vector fill value:
            // every stale slot would look occupied by *this* transaction and
            // dedup would silently drop its lines from the log (i.e. from the
            // commit flush + copy — a real durability bug).  Re-zero the
            // table and restart the epoch sequence.
            std::fill(epochs_.begin(), epochs_.end(), 0u);
            epoch_ = 1;
        }
        entries_.clear();
        logged_bytes_ = 0;
        threshold_ = full_copy_threshold;
        full_copy_ = false;
        runs_valid_ = false;
    }

    /// Test hook: place the epoch counter near (or at) the wrap boundary so
    /// tests can exercise the wrap path without 2^32 transactions.
    void debug_set_epoch(uint32_t e) { epoch_ = e; }
    uint32_t debug_epoch() const { return epoch_; }

    /// Record a store of `len` bytes at main-relative offset `off`.
    void add(size_t off, size_t len) {
        if (full_copy_ || len == 0) return;
        const size_t first = off / pmem::kCacheLineSize;
        const size_t last = (off + len - 1) / pmem::kCacheLineSize;
        for (size_t line = first; line <= last; ++line) add_line(line);
    }

    bool full_copy() const { return full_copy_; }
    const std::vector<Entry>& entries() const { return entries_; }
    size_t logged_bytes() const { return logged_bytes_; }

    /// A maximal coalesced byte range (64-bit length: adjacent lines can
    /// merge into runs far larger than any single Entry).
    struct Run {
        uint64_t off;
        uint64_t len;
    };

    /// Maximal coalesced [off, off+len) runs: the per-line entries sorted by
    /// offset with adjacent (and, defensively, overlapping) lines merged.
    /// Computed once per transaction on first use and cached — commit
    /// consumes it twice (flush of main, replication to back), so a 10 KB
    /// sequential write costs one sort instead of 2×160 entry walks, and the
    /// flush/copy loops run per run instead of per 64 B line.  Meaningless
    /// in full-copy mode (commit must not consult the log then).
    const std::vector<Run>& merged_runs() {
        if (!runs_valid_) {
            runs_.clear();
            runs_.reserve(entries_.size());
            scratch_ = entries_;
            std::sort(
                scratch_.begin(), scratch_.end(),
                [](const Entry& a, const Entry& b) { return a.off < b.off; });
            for (const Entry& e : scratch_) {
                if (!runs_.empty() &&
                    e.off <= runs_.back().off + runs_.back().len) {
                    const uint64_t end = e.off + e.len;
                    const uint64_t back_end =
                        runs_.back().off + runs_.back().len;
                    if (end > back_end) runs_.back().len = end - runs_.back().off;
                } else {
                    runs_.push_back(Run{e.off, e.len});
                }
            }
            runs_valid_ = true;
        }
        return runs_;
    }

  private:
    void add_line(size_t line) {
        size_t h = (line * 0x9E3779B97F4A7C15ull) & mask_;
        for (size_t probe = 0; probe <= kMaxProbe; ++probe) {
            size_t i = (h + probe) & mask_;
            if (epochs_[i] == epoch_) {
                if (lines_[i] == line) return;  // duplicate line
                continue;                       // occupied, keep probing
            }
            epochs_[i] = epoch_;
            lines_[i] = line;
            entries_.push_back(Entry{line * pmem::kCacheLineSize,
                                     static_cast<uint32_t>(pmem::kCacheLineSize)});
            runs_valid_ = false;
            logged_bytes_ += pmem::kCacheLineSize;
            if (logged_bytes_ > threshold_) full_copy_ = true;
            return;
        }
        full_copy_ = true;  // table too crowded: degrade to full copy
    }

    static constexpr size_t kMaxProbe = 32;

    size_t mask_;
    std::vector<size_t> lines_;
    std::vector<uint32_t> epochs_;
    uint32_t epoch_ = 0;
    std::vector<Entry> entries_;
    std::vector<Entry> scratch_;  // sort workspace (capacity reused)
    std::vector<Run> runs_;       // cached merged_runs() result
    size_t logged_bytes_ = 0;
    size_t threshold_ = ~size_t{0};
    bool full_copy_ = false;
    bool runs_valid_ = false;
};

}  // namespace romulus
