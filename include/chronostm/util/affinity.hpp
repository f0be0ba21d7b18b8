// CPU topology helpers: hardware thread count and best-effort pinning (the
// paper's scaling curves assume one thread per processor; pinning removes
// migration noise on Linux, and is a no-op elsewhere).

#pragma once

#include <thread>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace chronostm {

inline unsigned hardware_threads() {
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
}

// Pin the calling thread to `cpu` (mod the hardware thread count).
// Returns true on success, false where unsupported.
inline bool pin_to_cpu(unsigned cpu) {
#if defined(__linux__)
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu % hardware_threads(), &set);
    return pthread_setaffinity_np(pthread_self(), sizeof set, &set) == 0;
#else
    (void)cpu;
    return false;
#endif
}

}  // namespace chronostm
