// Ablation — flat-combining aggregation (§5.2/§5.3): with several threads
// announcing updates, one combiner executes whole batches inside a single
// durable transaction, so the average number of persistence fences *per
// mutation* drops below the worst-case 4 ("the average number of persistent
// fences per mutation can be smaller than 4 because several updates are
// aggregated within a single update transaction").
#include <cstdio>

#include "bench_common.hpp"

using namespace romulus;
using namespace romulus::bench;

namespace {

template <typename E>
void run(int nthreads) {
    Session<E> session(32u << 20, "fc");
    using PU = typename E::template p<uint64_t>;
    E::updateTx([&] {
        auto* c = E::template tmNew<PU>();
        *c = 0u;
        E::put_object(0, c);
    });
    E::reset_combine_stats();

    std::atomic<uint64_t> total_fences{0};
    std::atomic<uint64_t> total_ops{0};
    std::vector<std::thread> ts;
    std::atomic<bool> stop{false};
    for (int t = 0; t < nthreads; ++t) {
        ts.emplace_back([&] {
            pmem::reset_tl_stats();
            uint64_t n = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                E::updateTx([&] {
                    *E::template get_object<PU>(0) += 1u;
                });
                ++n;
            }
            total_fences.fetch_add(pmem::tl_stats().fences());
            total_ops.fetch_add(n);
        });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(bench_ms()));
    stop.store(true);
    for (auto& t : ts) t.join();

    const auto cs = E::combine_stats();
    std::printf(
        "%-6s %3d thr: %9llu ops, %6.3f fences/op (worst-case 4), "
        "avg batch %5.2f ops/combine\n",
        short_name<E>(), nthreads, (unsigned long long)total_ops.load(),
        double(total_fences.load()) / double(total_ops.load()), cs.avg_batch());
}

}  // namespace

int main() {
    pmem::set_profile(pmem::Profile::CLFLUSH);
    print_header("Flat-combining fence amortisation (Section 5.3)");
    for (int nt : bench_threads()) {
        run<RomulusLog>(nt);
        run<RomulusLR>(nt);
    }
    std::printf(
        "\nWith >1 announcer the combiner executes several mutations inside\n"
        "one begin/end pair: fences per mutation fall below 4.\n");
    return 0;
}
