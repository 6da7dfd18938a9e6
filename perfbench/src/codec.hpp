// Keys, values and random numbers for the RomulusDB benchmark.
//
// Everything here is derived from the workload seed so that a seed names
// one exact input stream.  Values are self-describing: each embeds its key
// id, a version and a checksum over the rest, so every Get can tell a torn,
// misrouted or stale value from the right one without a saved copy of the
// expected bytes.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace perfbench {

/// splitmix64's finalizer: a bijection on 64-bit words.
inline uint64_t mix64(uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/// Small deterministic generator (splitmix64 stream).
class Rng {
  public:
    explicit Rng(uint64_t seed) : s_(mix64(seed)) {}
    uint64_t next() { return mix64(s_ += 0x9e3779b97f4a7c15ull); }
    /// Uniform in [0, n) (Lemire's multiply-high reduction).
    uint64_t below(uint64_t n) {
        return static_cast<uint64_t>(
            (static_cast<unsigned __int128>(next()) * n) >> 64);
    }
    /// Uniform in [0, 1).
    double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  private:
    uint64_t s_;
};

/// Zipfian ranks in [0, n) with skew theta (Gray et al., as in YCSB):
/// rank 0 is the hottest.
class Zipf {
  public:
    Zipf(uint64_t n, double theta) : n_(n), theta_(theta) {
        double zetan = 0;
        for (uint64_t i = 1; i <= n; ++i) zetan += 1.0 / std::pow(double(i), theta);
        const double zeta2 = 1.0 + std::pow(0.5, theta);
        zetan_ = zetan;
        alpha_ = 1.0 / (1.0 - theta);
        eta_ = (1.0 - std::pow(2.0 / double(n), 1.0 - theta)) /
               (1.0 - zeta2 / zetan);
    }
    uint64_t next(Rng& rng) const {
        const double u = rng.unit();
        const double uz = u * zetan_;
        if (uz < 1.0) return 0;
        if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
        const auto r = static_cast<uint64_t>(
            double(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
        return r < n_ ? r : n_ - 1;
    }

  private:
    uint64_t n_;
    double theta_, zetan_ = 0, alpha_ = 0, eta_ = 0;
};

inline constexpr size_t kKeyLen = 16;

/// 16-byte key of id `id`: hex digits of a seed-salted bijection of the id,
/// so distinct ids always get distinct keys and the keys hash evenly.
inline void make_key(uint64_t id, uint64_t salt, char out[kKeyLen]) {
    static constexpr char kHex[] = "0123456789abcdef";
    uint64_t x = mix64(id ^ salt);
    for (size_t i = 0; i < kKeyLen; ++i) {
        out[i] = kHex[x & 15];
        x >>= 4;
    }
}

inline std::string key_string(uint64_t id, uint64_t salt) {
    char k[kKeyLen];
    make_key(id, salt, k);
    return std::string(k, kKeyLen);
}

inline uint64_t checksum(const char* p, size_t n) {
    uint64_t h = 0x243f6a8885a308d3ull ^ n;
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        uint64_t w;
        std::memcpy(&w, p + i, 8);
        h = (h ^ w) * 0x9e3779b97f4a7c15ull;
        h ^= h >> 29;
    }
    for (; i < n; ++i) h = (h ^ uint8_t(p[i])) * 0x100000001b3ull;
    return mix64(h);
}

// Value layout: [id u64][version u64][filler][checksum u64 of the rest].
inline constexpr size_t kValueOverhead = 24;

/// Fill out[0, len) with the value of (id, version); len >= kValueOverhead.
inline void make_value(uint64_t id, uint64_t version, uint64_t salt, size_t len,
                       char* out) {
    std::memcpy(out, &id, 8);
    std::memcpy(out + 8, &version, 8);
    Rng fill(id * 0x100000001b3ull ^ version ^ salt);
    for (size_t i = 16; i < len - 8; i += 8) {
        const uint64_t w = fill.next();
        std::memcpy(out + i, &w, len - 8 - i < 8 ? len - 8 - i : 8);
    }
    const uint64_t sum = checksum(out, len - 8);
    std::memcpy(out + len - 8, &sum, 8);
}

/// Decode a value: false when its length or checksum is wrong (torn or
/// corrupted); otherwise the embedded id and version.
inline bool parse_value(std::string_view v, size_t len, uint64_t* id,
                        uint64_t* version) {
    if (v.size() != len) return false;
    uint64_t sum;
    std::memcpy(&sum, v.data() + len - 8, 8);
    if (sum != checksum(v.data(), len - 8)) return false;
    std::memcpy(id, v.data(), 8);
    std::memcpy(version, v.data() + 8, 8);
    return true;
}

}  // namespace perfbench
