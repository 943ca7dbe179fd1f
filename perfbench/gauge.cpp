// The host speed gauge's kernel.  It shares no code with the library and is
// built as its own target with fixed flags (CMakeLists.txt), so no change
// to the library or its build can change what the gauge measures.
#include "gauge.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

namespace {

constexpr std::size_t kKeys = 100'000;

/// The same pseudo-random keys on every call and every host.
const std::vector<double>& keys() {
  static const std::vector<double> k = [] {
    std::vector<double> v(kKeys);
    std::uint64_t x = 88172645463325252ULL;
    for (double& d : v) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      d = static_cast<double>(x >> 11) * 0x1.0p-53;
    }
    return v;
  }();
  return k;
}

}  // namespace

double gauge_kernel_ns() {
  thread_local std::vector<double> work(kKeys);
  const std::vector<double>& in = keys();
  const auto t0 = std::chrono::steady_clock::now();
  std::copy(in.begin(), in.end(), work.begin());
  std::sort(work.begin(), work.end());
  const auto t1 = std::chrono::steady_clock::now();
  // Keeps the sort observable.
  if (work.front() > work.back()) return -1.0;
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

}  // namespace perfbench
