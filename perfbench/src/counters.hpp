// Harvesting the engine's public thread-local counters.
//
// pmem::Stats and the long-standing CommitStats fields are read directly.
// Counters that belong to one mechanism (the speculative update fast path,
// the combiner histogram, the optimistic-read ReadStats) are read through
// `requires` detection, so the benchmark keeps compiling when a change
// deletes the mechanism; such a counter is then reported as absent, never
// as 0.
#pragma once

#include <cstdint>
#include <optional>

#include "core/engine_globals.hpp"
#include "core/romulus.hpp"
#include "pmem/stats.hpp"

namespace romulus {
// Chosen only when the engine no longer declares tl_read_stats(): overload
// resolution prefers the real (non-template) function whenever it exists.
struct PerfbenchNoReadStats {};
template <int = 0>
PerfbenchNoReadStats tl_read_stats() {
    return {};
}
}  // namespace romulus

namespace perfbench {

struct FastPath {
    uint64_t commits = 0, aborts = 0, fallbacks = 0;
};
struct ReadPath {
    uint64_t opt_commits = 0, opt_aborts = 0, fallbacks = 0;
};

/// One thread's counters at one instant (or a difference of two).
struct Counters {
    uint64_t pwb = 0, pfence = 0, psync = 0, nvm_bytes = 0;
    uint64_t commits = 0, runs = 0, lines_logged = 0, nt_bytes = 0,
             cached_bytes = 0;
    std::optional<FastPath> fp;
    std::optional<ReadPath> rd;

    Counters& operator+=(const Counters& o) {
        pwb += o.pwb;
        pfence += o.pfence;
        psync += o.psync;
        nvm_bytes += o.nvm_bytes;
        commits += o.commits;
        runs += o.runs;
        lines_logged += o.lines_logged;
        nt_bytes += o.nt_bytes;
        cached_bytes += o.cached_bytes;
        if (o.fp) {
            FastPath f = fp.value_or(FastPath{});
            f.commits += o.fp->commits;
            f.aborts += o.fp->aborts;
            f.fallbacks += o.fp->fallbacks;
            fp = f;
        }
        if (o.rd) {
            ReadPath r = rd.value_or(ReadPath{});
            r.opt_commits += o.rd->opt_commits;
            r.opt_aborts += o.rd->opt_aborts;
            r.fallbacks += o.rd->fallbacks;
            rd = r;
        }
        return *this;
    }

    Counters operator-(const Counters& o) const {
        Counters d = *this;
        d.pwb -= o.pwb;
        d.pfence -= o.pfence;
        d.psync -= o.psync;
        d.nvm_bytes -= o.nvm_bytes;
        d.commits -= o.commits;
        d.runs -= o.runs;
        d.lines_logged -= o.lines_logged;
        d.nt_bytes -= o.nt_bytes;
        d.cached_bytes -= o.cached_bytes;
        if (d.fp && o.fp) {
            d.fp->commits -= o.fp->commits;
            d.fp->aborts -= o.fp->aborts;
            d.fp->fallbacks -= o.fp->fallbacks;
        }
        if (d.rd && o.rd) {
            d.rd->opt_commits -= o.rd->opt_commits;
            d.rd->opt_aborts -= o.rd->opt_aborts;
            d.rd->fallbacks -= o.rd->fallbacks;
        }
        return d;
    }
};

template <typename CS>
std::optional<FastPath> fast_path_of(const CS& cs) {
    if constexpr (requires {
                      cs.fastpath_commits;
                      cs.fastpath_aborts;
                      cs.fastpath_fallbacks;
                  }) {
        return FastPath{cs.fastpath_commits, cs.fastpath_aborts,
                        cs.fastpath_fallbacks};
    } else {
        return std::nullopt;
    }
}

template <typename RS>
std::optional<ReadPath> read_path_of(const RS& rs) {
    if constexpr (requires {
                      rs.opt_commits;
                      rs.opt_aborts;
                      rs.fallbacks;
                  }) {
        return ReadPath{rs.opt_commits, rs.opt_aborts, rs.fallbacks};
    } else {
        return std::nullopt;
    }
}

/// The calling thread's counters.
inline Counters snapshot() {
    Counters c;
    const romulus::pmem::Stats& st = romulus::pmem::tl_stats();
    c.pwb = st.pwb;
    c.pfence = st.pfence;
    c.psync = st.psync;
    c.nvm_bytes = st.nvm_bytes;
    const romulus::pmem::CommitStats& cs = romulus::pmem::tl_commit_stats();
    c.commits = cs.commits;
    c.runs = cs.runs;
    c.lines_logged = cs.lines_logged;
    c.nt_bytes = cs.nt_bytes;
    c.cached_bytes = cs.cached_bytes;
    c.fp = fast_path_of(cs);
    c.rd = read_path_of(romulus::tl_read_stats());
    return c;
}

/// Flat-combining passes and the operations they ran, summed over shards;
/// empty when the engine no longer exposes combine_stats().
template <typename E>
std::optional<std::pair<uint64_t, uint64_t>> combine_totals() {
    if constexpr (requires { E::combine_stats().combines; }) {
        const auto cs = E::combine_stats();
        return std::pair<uint64_t, uint64_t>{cs.combines, cs.combined_ops};
    } else {
        return std::nullopt;
    }
}

}  // namespace perfbench
