package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// fingerprint describes the host a run was measured on. It is printed
// with every run for diagnosis only; samples are never dropped or
// re-run because of it.
func fingerprint() string {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	goamd64 := "unset"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				goamd64 = s.Value
			}
		}
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d goamd64=%s go=%s",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), goamd64, runtime.Version())
}

// usage is a point-in-time reading of the process and host counters a
// measurement window is bracketed by.
type usage struct {
	wall      time.Time
	cpu       time.Duration // user+sys of this process
	stealTick uint64        // /proc/stat aggregate steal
	totalTick uint64        // /proc/stat aggregate of all states
	allocB    uint64        // cumulative heap allocation
	gcCPU     float64       // cumulative GC CPU seconds
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func readUsage() usage {
	u := usage{wall: time.Now()}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	u.stealTick, u.totalTick = procStat()
	s := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		u.allocB = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		u.gcCPU = s[1].Value.Float64()
	}
	return u
}

// procStat returns the aggregate steal ticks and the sum of all CPU
// state ticks from /proc/stat (zeros where it is unavailable).
func procStat() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i, f := range fields[1:9] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// window is the difference between two usage readings.
type window struct {
	wall, cpu time.Duration
	steal     float64 // share of host CPU time stolen by the hypervisor
	allocMB   float64
	gcCPU     float64
}

func since(a usage) window {
	b := readUsage()
	w := window{
		wall:    b.wall.Sub(a.wall),
		cpu:     b.cpu - a.cpu,
		allocMB: float64(b.allocB-a.allocB) / (1 << 20),
		gcCPU:   b.gcCPU - a.gcCPU,
	}
	if dt := b.totalTick - a.totalTick; dt > 0 {
		w.steal = float64(b.stealTick-a.stealTick) / float64(dt)
	}
	return w
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
