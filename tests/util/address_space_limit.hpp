// Allocation-failure tests run their case in a forked child (a gtest death
// test) that first lowers its own RLIMIT_AS, so a request for tens of GiB
// fails with std::bad_alloc instead of reaching the machine's memory.
//
// ASan and TSan reserve terabytes of address space at start-up, far more
// than any such limit allows, so these tests skip under them.
#pragma once

#include <sys/resource.h>

#include <cstdint>

#include "util/memory.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define LC_TEST_SANITIZER_RESERVES_ADDRESS_SPACE 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define LC_TEST_SANITIZER_RESERVES_ADDRESS_SPACE 1
#endif
#endif

namespace lc::testing_support {

#ifdef LC_TEST_SANITIZER_RESERVES_ADDRESS_SPACE
inline constexpr bool kSanitizerReservesAddressSpace = true;
#else
inline constexpr bool kSanitizerReservesAddressSpace = false;
#endif

/// Caps the calling process's address space at its current size plus
/// `headroom_bytes`. Returns false when the limit cannot be set.
inline bool limit_address_space(std::uint64_t headroom_bytes) {
  const MemoryUsage usage = read_memory_usage();
  if (usage.vm_size_kb == 0) return false;
  rlimit limit{};
  limit.rlim_cur = usage.vm_size_kb * 1024 + headroom_bytes;
  limit.rlim_max = limit.rlim_cur;
  return setrlimit(RLIMIT_AS, &limit) == 0;
}

}  // namespace lc::testing_support
