// E10 (ablation) — design choices behind the volatile range log (§4.7):
//
//  1. Cache-line dedup: transactions that hammer few lines should log (and
//     later flush + replicate) each line once, not once per store.
//  2. Full-copy fallback: past a threshold of logged bytes, one memcpy of
//     the used region beats per-line copying; this is the crossover that
//     makes basic Romulus win the 1,024-swap SPS point in Fig. 9.
//  3. Deferred pwbs: RomulusLog issues one pwb per modified line at commit
//     instead of one per store (the paper: pwbs "were also studied and
//     significantly reduced").
#include <cstdio>

#include "bench_common.hpp"
#include "core/range_log.hpp"

using namespace romulus;
using namespace romulus::bench;

namespace {

void dedup_effectiveness() {
    std::printf("\n-- RangeLog dedup: stores vs logged lines --\n");
    RangeLog log;
    for (auto [stores, lines_touched] :
         std::vector<std::pair<int, int>>{{64, 1}, {64, 8}, {1024, 16},
                                          {4096, 64}}) {
        log.begin_tx(SIZE_MAX);
        std::mt19937_64 rng(1);
        for (int i = 0; i < stores; ++i) {
            const size_t line = rng() % lines_touched;
            log.add(line * 64 + (rng() % 8) * 8, 8);
        }
        std::printf(
            "  %5d stores over %3d lines -> %4zu log entries (%.1fx dedup)\n",
            stores, lines_touched, log.entries().size(),
            double(stores) / double(log.entries().size()));
    }
}

/// Deferred-pwb effect: same workload, RomulusNL (pwb per store) vs
/// RomulusLog (one pwb per modified line at commit).
void deferred_pwbs() {
    std::printf("\n-- Deferred write-backs: pwbs/tx, 64 stores over 8 lines --\n");
    auto measure = [&]<typename E>() {
        Session<E> session(32u << 20, "ablog");
        using PU = typename E::template p<uint64_t>;
        PU* arr = nullptr;
        E::updateTx(
            [&] { arr = static_cast<PU*>(E::alloc_bytes(sizeof(PU) * 64)); });
        E::updateTx([&] {
            for (int i = 0; i < 64; ++i) arr[i] = 1u;
        });
        pmem::reset_tl_stats();
        E::updateTx([&] {
            for (int rep = 0; rep < 8; ++rep)
                for (int i = 0; i < 8; ++i) arr[i * 8] = uint64_t(rep);
        });
        std::printf("  %-6s: %llu pwbs for 64 stores\n", short_name<E>(),
                    (unsigned long long)pmem::tl_stats().pwb);
    };
    measure.operator()<RomulusNL>();
    measure.operator()<RomulusLog>();
}

/// Full-copy crossover: transactions touching a growing fraction of a fixed
/// 4 MB array — per-line replication wins while sparse, the full memcpy
/// wins once most lines are dirty.
void copy_crossover() {
    std::printf("\n-- Copy strategy crossover (4 MB array, CLFLUSH) --\n");
    std::printf("  %-12s %10s %10s\n", "lines/tx", "RomL TX/s", "Rom TX/s");
    constexpr size_t kWords = (4u << 20) / 8;
    for (size_t touched_lines : {8u, 64u, 512u, 4096u, 32768u}) {
        double rates[2];
        int idx = 0;
        auto measure = [&]<typename E>() {
            Session<E> session(32u << 20, "abcross");
            using PU = typename E::template p<uint64_t>;
            PU* arr = nullptr;
            E::updateTx([&] {
                arr = static_cast<PU*>(E::alloc_bytes(sizeof(PU) * kWords));
            });
            rates[idx++] = run_throughput(
                1, bench_ms() / 2, [&](int, std::mt19937_64& rng) {
                    E::updateTx([&] {
                        for (size_t l = 0; l < touched_lines; ++l)
                            arr[(rng() % (kWords / 8)) * 8] = l;
                    });
                });
        };
        measure.operator()<RomulusLog>();
        measure.operator()<RomulusNL>();
        std::printf("  %-12zu %10.0f %10.0f%s\n", touched_lines, rates[0],
                    rates[1], rates[1] > rates[0] ? "  <- full copy wins" : "");
    }
}

}  // namespace

int main() {
    pmem::set_profile(pmem::Profile::NOP);
    print_header("Ablation: volatile range log design choices (Section 4.7)");
    dedup_effectiveness();
    deferred_pwbs();
    pmem::set_profile(pmem::Profile::CLFLUSH);
    copy_crossover();
    return 0;
}
