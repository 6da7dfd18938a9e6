// Shard-scaling sweep (DESIGN.md sharding section): update throughput of the
// hash-routed ShardedKVStore over RomulusLog as a function of writer threads
// × intra-heap shard count.
//
// Each cell gets a fresh heap formatted with S shards, prepopulated with a
// fixed key space; threads then overwrite random keys with same-size values
// (the in-place store path — no allocator traffic), so every operation is a
// full durable update transaction on the key's shard.  S=1 is the paper's
// single-writer engine: its flat-combining lock serialises all writers, so
// throughput is flat in the thread count.  With S shards, writers on
// different shards hold different C-RW-WP locks and commit in parallel — the
// multi-writer axis this PR adds.
//
// Environment: the usual ROMULUS_BENCH_* knobs (bench_common.hpp); threads
// default to 1,2,4,8 here (the interesting range for writer scaling).
// Set ROMULUS_BENCH_JSON=<file> to emit the sweep as JSON (CI uploads it as
// the BENCH_sharding.json artifact).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "db/sharded_kvstore.hpp"

using namespace romulus;
using namespace romulus::bench;

namespace {

constexpr uint64_t kKeySpace = 4096;
constexpr size_t kValueBytes = 64;

std::string key_of(uint64_t i) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "key%06llu",
                  static_cast<unsigned long long>(i));
    return buf;
}

struct Cell {
    int threads;
    unsigned shards;
    double puts_per_sec;
    int max_concurrent_writers;
};

Cell measure(int nthreads, unsigned shards) {
    using E = RomulusLog;
    Session<E> session(256u << 20, "sharding", shards);
    db::ShardedKVStore<E> store(/*root_idx=*/0);

    const std::string value(kValueBytes, 'v');
    for (uint64_t i = 0; i < kKeySpace; ++i) store.put(key_of(i), value);

    // Writer-parallelism witness: the body below runs inside the shard's
    // writer critical section, so the high-water of `in_cs` is the number of
    // update transactions genuinely in flight at once.  S=1 pins it at 1 by
    // construction; with S shards it reaches min(threads, shards) — even on
    // a single-core host, where timeslicing interleaves the critical
    // sections but wall-clock throughput cannot exceed 1x.
    std::atomic<int> in_cs{0}, max_cs{0};
    const double rate = run_throughput(nthreads, bench_ms(), [&](int, auto& rng) {
        const std::string key = key_of(rng() % kKeySpace);
        const unsigned sd = store.shard_of(key);
        E::updateTx(sd, [&] {
            const int c = in_cs.fetch_add(1, std::memory_order_relaxed) + 1;
            int hi = max_cs.load(std::memory_order_relaxed);
            while (c > hi && !max_cs.compare_exchange_weak(hi, c)) {}
            store.store(sd)->put(key, value);  // nests flat in this tx
            in_cs.fetch_sub(1, std::memory_order_relaxed);
        });
    });
    return {nthreads, shards, rate, max_cs.load()};
}

/// Pre-PR-shaped baseline: a plain KVStore driven through the default
/// (shard-0) API, exactly the code path the unsharded engine ran.  The S=1
/// column above must stay within noise of this (the "no regression at S=1"
/// criterion); the delta between the two is the ShardedKVStore routing cost.
double measure_direct(int nthreads) {
    using E = RomulusLog;
    Session<E> session(256u << 20, "sharding", 1u);
    db::KVStore<E>* kv = nullptr;
    E::updateTx([&] {
        kv = E::tmNew<db::KVStore<E>>(1024);
        E::put_object(0, kv);
    });
    const std::string value(kValueBytes, 'v');
    for (uint64_t i = 0; i < kKeySpace; ++i) kv->put(key_of(i), value);
    return run_throughput(nthreads, bench_ms(), [&](int, auto& rng) {
        kv->put(key_of(rng() % kKeySpace), value);
    });
}

}  // namespace

int main() {
    pmem::set_profile(pmem::Profile::CLWB);  // degrades to clflushopt/clflush
    print_header("Sharded RomulusLog: KV update throughput, threads x shards");
    std::printf("flush profile: %s\n",
                pmem::profile_name(pmem::effective_profile()));
    std::printf("%llu keys, %zu-byte values, overwrite-only (in-place path)\n",
                static_cast<unsigned long long>(kKeySpace), kValueBytes);

    std::vector<int> threads = bench_threads();
    if (std::getenv("ROMULUS_BENCH_THREADS") == nullptr)
        threads = {1, 2, 4, 8};  // writer-scaling range
    const std::vector<unsigned> shard_counts = {1, 4, 16};

    std::printf("\n  (cell: puts/s, [w] = max writers in flight at once)\n");
    std::printf("  %-8s", "threads");
    for (unsigned s : shard_counts) std::printf("  S=%-13u", s);
    std::printf("\n");

    std::vector<Cell> sweep;
    for (int t : threads) {
        std::printf("  %-8d", t);
        for (unsigned s : shard_counts) {
            Cell c = measure(t, s);
            std::printf("  %s [%d]", fmt_rate(c.puts_per_sec).c_str(),
                        c.max_concurrent_writers);
            std::fflush(stdout);
            sweep.push_back(c);
        }
        std::printf("\n");
    }
    std::printf("\n(%u hardware threads on this host: wall-clock scaling "
                "needs cores;\n the [w] witness shows commit parallelism "
                "regardless of core count)\n",
                std::thread::hardware_concurrency());

    std::printf("\n  direct KVStore (pre-PR API), S=1:\n");
    std::vector<Cell> direct;
    for (int t : threads) {
        const double rate = measure_direct(t);
        std::printf("  %-8d  %s\n", t, fmt_rate(rate).c_str());
        direct.push_back({t, 1, rate, 1});
    }

    auto json = JsonEmitter::from_env("sharding");
    json.scalar("profile", pmem::profile_name(pmem::effective_profile()));
    json.scalar("keys", double(kKeySpace), "%.0f");
    json.scalar("value_bytes", double(kValueBytes), "%.0f");
    json.begin_array("sweep");
    for (const Cell& c : sweep) {
        json.record(JsonEmitter::fields(
            {JsonEmitter::num("threads", uint64_t(c.threads)),
             JsonEmitter::num("shards", uint64_t{c.shards}),
             JsonEmitter::num("puts_per_sec", c.puts_per_sec, "%.0f"),
             JsonEmitter::num("max_concurrent_writers",
                              uint64_t(c.max_concurrent_writers))}));
    }
    json.begin_array("direct_api");
    for (const Cell& c : direct) {
        json.record(JsonEmitter::fields(
            {JsonEmitter::num("threads", uint64_t(c.threads)),
             JsonEmitter::num("puts_per_sec", c.puts_per_sec, "%.0f")}));
    }
    return 0;
}
