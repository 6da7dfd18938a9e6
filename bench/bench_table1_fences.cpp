// E1 — Table 1: persistence-fence count, persistent log footprint,
// interposition type and write amplification per transaction, measured
// empirically for each PTM on transactions of N word-sized stores.
//
// Paper's claims to check (Table 1):
//   Romulus variants: 4 fences/tx regardless of N, ~100% write
//   amplification (user bytes + the back-region replica), store-only
//   interposition, no persistent log.
//   Undo log: fences grow linearly with N, >= 300% write amplification.
//   Redo log: ~constant fences (4-ish), load+store interposition, log
//   amplification of 2 words per stored word (Mnemosyne itself used 8).
#include <cinttypes>
#include <cstdio>

#include "bench_common.hpp"

using namespace romulus;
using namespace romulus::bench;

namespace {

template <typename E>
const char* interposition_kind() {
    if constexpr (std::is_same_v<E, baselines::RedoLogPTM>)
        return "loads+stores";
    else
        return "stores";
}

template <typename E>
void measure(int nstores) {
    Session<E> session(32u << 20, "table1");
    using PU = typename E::template p<uint64_t>;

    PU* arr = nullptr;
    E::updateTx(
        [&] { arr = static_cast<PU*>(E::alloc_bytes(sizeof(PU) * 4096)); });
    // Initialise in batches (bounded write sets for the redo-log baseline).
    for (int base = 0; base < 4096; base += 512) {
        E::updateTx([&] {
            for (int i = base; i < base + 512; ++i) arr[i] = 0u;
        });
    }

    // Warmup (steady allocator / log state), then measure a batch.
    constexpr int kTxs = 64;
    uint64_t x = 0x2545F4914F6CDD1Dull;
    auto run_txs = [&] {
        for (int t = 0; t < kTxs; ++t) {
            E::updateTx([&] {
                for (int i = 0; i < nstores; ++i) {
                    x ^= x << 13, x ^= x >> 7, x ^= x << 17;
                    // Spread stores over distinct cache lines (worst case).
                    arr[(x % 512) * 8] = x;
                }
            });
        }
    };
    run_txs();
    pmem::reset_tl_stats();
    run_txs();
    pmem::Stats st = pmem::tl_stats();

    const double fences = double(st.fences()) / kTxs;
    const double pwbs = double(st.pwb) / kTxs;
    const double user_bytes = double(nstores) * 8;
    const double wa = double(st.nvm_bytes) / kTxs / user_bytes;
    std::printf("%-10s %8d %10.1f %10.1f %13.0f%% %-13s\n", short_name<E>(),
                nstores, fences, pwbs, wa * 100.0, interposition_kind<E>());
}

}  // namespace

int main() {
    pmem::set_profile(pmem::Profile::NOP);  // count events, not pay for them
    print_header(
        "Table 1: fences, pwbs, write amplification per transaction");
    std::printf("%-10s %8s %10s %10s %14s %-13s\n", "PTM", "stores/tx",
                "fences/tx", "pwbs/tx", "write-amp", "interposition");
    for (int nstores : {1, 4, 16, 64, 256}) {
        for_each_ptm([&]<typename E>() { measure<E>(nstores); });
        std::printf("\n");
    }
    std::printf(
        "Note: write-amp counts every NVM byte written (including the\n"
        "back-region replica for Romulus and the logs for the baselines)\n"
        "per user byte stored.  Romulus' paper-reported 100%% corresponds to\n"
        "the replica copy; cache-line-granular flushing adds the rest.\n");
    return 0;
}
