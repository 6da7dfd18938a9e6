// Shared helpers for the test suite.
#pragma once

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "pmem/flush.hpp"

namespace romulus::test {

/// Unique heap file per test to keep tests independent.
inline std::string heap_path(const std::string& tag) {
    return "/dev/shm/romulus_test_" + tag + "_" + std::to_string(::getpid()) +
           ".heap";
}

/// RAII: select a flush profile for the duration of a test.
struct ProfileGuard {
    explicit ProfileGuard(pmem::Profile p) : saved(pmem::profile()) {
        pmem::set_profile(p);
    }
    ~ProfileGuard() { pmem::set_profile(saved); }
    pmem::Profile saved;
};

/// Fresh-heap fixture helper: destroys any pre-existing heap of engine E,
/// initialises a new one, and tears it down at scope exit.
template <typename E>
struct EngineSession {
    explicit EngineSession(size_t bytes, const std::string& tag) : path(heap_path(tag)) {
        std::remove(path.c_str());
        E::init(bytes, path);
    }
    ~EngineSession() {
        if (E::initialized()) E::destroy();
        std::remove(path.c_str());
    }
    std::string path;
};

}  // namespace romulus::test
