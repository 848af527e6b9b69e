package kernels

import (
	"syscall"
	"time"
	"unsafe"
)

// clockThreadCPUTimeID is CLOCK_THREAD_CPUTIME_ID from <time.h>.
const clockThreadCPUTimeID = 3

const cpuClockName = "thread CPU time"

// cpuClock reads the calling OS thread's CPU clock: time the thread
// spent on a core, which a co-scheduled process cannot inflate by
// taking the core away. Callers pin their goroutine with
// runtime.LockOSThread so successive readings come from one thread.
func cpuClock() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime(CLOCK_THREAD_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}
