//go:build !linux

package kernels

import "time"

const cpuClockName = "wall clock"

var cpuClockEpoch = time.Now()

// cpuClock falls back to the monotonic wall clock where no per-thread
// CPU clock is wired up.
func cpuClock() time.Duration { return time.Since(cpuClockEpoch) }
