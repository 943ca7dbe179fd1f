// The host speed gauge's kernel: sorting a copy of 100k fixed pseudo-random
// doubles (800 KB, inside one core's L2).  Branchy compares over a working
// set in cache slow down with the rest of the benchmark when a shared host
// gives this process less of its cores; a dependent register loop (the
// calibration loop) does not.
#pragma once

namespace perfbench {

/// Runs the kernel once and returns its wall nanoseconds.  Thread-safe.
[[nodiscard]] double gauge_kernel_ns();

}  // namespace perfbench
