#include "core/engine_globals.hpp"

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <sstream>

namespace romulus {

namespace {
std::atomic<uint64_t> g_tx_begins{0};
std::atomic<uint64_t> g_tx_commits{0};
std::atomic<uint64_t> g_tx_aborts{0};
}  // namespace

TxLifecycleCounters tx_lifecycle_counters() {
    return TxLifecycleCounters{
        g_tx_begins.load(std::memory_order_relaxed),
        g_tx_commits.load(std::memory_order_relaxed),
        g_tx_aborts.load(std::memory_order_relaxed),
    };
}

void reset_tx_lifecycle_counters() {
    g_tx_begins.store(0, std::memory_order_relaxed);
    g_tx_commits.store(0, std::memory_order_relaxed);
    g_tx_aborts.store(0, std::memory_order_relaxed);
}

namespace detail {
void count_tx_begin() { g_tx_begins.fetch_add(1, std::memory_order_relaxed); }
void count_tx_commit() { g_tx_commits.fetch_add(1, std::memory_order_relaxed); }
void count_tx_abort() { g_tx_aborts.fetch_add(1, std::memory_order_relaxed); }
}  // namespace detail

ReadConfig& read_config() {
    static ReadConfig cfg;
    return cfg;
}

bool parse_env_long(const char* text, long lo, long* out) {
    if (text == nullptr || *text == '\0') return false;
    errno = 0;
    char* end = nullptr;
    const long n = std::strtol(text, &end, 10);
    if (end == text || errno == ERANGE) return false;
    while (*end == ' ' || *end == '\t') ++end;  // tolerate trailing blanks
    if (*end != '\0') return false;             // reject "12x", "1.5", ...
    if (n < lo) return false;
    *out = n;
    return true;
}

bool env_to_long(const char* name, long lo, long* out) {
    return parse_env_long(std::getenv(name), lo, out);
}

std::string apply_env_tuning() {
    std::ostringstream os;
    auto env_long = [&](const char* name, long lo, auto apply) {
        long n;
        if (env_to_long(name, lo, &n)) {
            apply(n);
            os << name << "=" << n << " ";
        }
    };
    env_long("ROMULUS_READ_OPTIMISTIC", 0,
             [](long n) { read_config().optimistic = n != 0; });
    env_long("ROMULUS_READ_MAX_ATTEMPTS", 1, [](long n) {
        read_config().max_attempts = static_cast<unsigned>(n);
    });
    env_long("ROMULUS_COMMIT_COALESCE", 0,
             [](long n) { pmem::commit_config().coalesce = n != 0; });
    env_long("ROMULUS_NT_THRESHOLD", 0, [](long n) {
        pmem::commit_config().nt_threshold = static_cast<size_t>(n);
    });
    env_long("ROMULUS_COMBINE_RESCANS", 0, [](long n) {
        pmem::commit_config().combine_rescans = static_cast<unsigned>(n);
    });
    env_long("ROMULUS_COMBINE_WAIT_US", 0, [](long n) {
        pmem::commit_config().combine_wait_us = static_cast<unsigned>(n);
    });
    return os.str();
}

ReadStats& tl_read_stats() {
    thread_local ReadStats stats;
    return stats;
}

size_t default_heap_bytes() {
    long v;
    if (env_to_long("ROMULUS_HEAP_MB", 1, &v))
        return static_cast<size_t>(v) * 1024 * 1024;
    return 64ull * 1024 * 1024;
}

unsigned default_shard_count() {
    long v;
    if (env_to_long("ROMULUS_SHARDS", 1, &v)) {
        return v > long(kMaxShards) ? kMaxShards : static_cast<unsigned>(v);
    }
    return 1;
}

}  // namespace romulus
