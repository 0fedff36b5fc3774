package main

import (
	"cmp"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// epoch anchors every timestamp the benchmark takes, so spans and samples
// are plain monotonic nanosecond offsets.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// quantile returns the q-quantile of sorted by linear interpolation between
// closest ranks (the same rule as Python's statistics.quantiles, inclusive).
func quantile(sorted []int64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return float64(sorted[n-1])
	}
	frac := pos - float64(lo)
	return float64(sorted[lo]) + frac*float64(sorted[lo+1]-sorted[lo])
}

// medianF returns the median of xs (NaN when empty).
func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []int64) []int64 {
	out := slices.Clone(xs)
	slices.Sort(out)
	return out
}

func mean(xs []int64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += float64(x)
	}
	return s / float64(len(xs))
}

// procSample is a snapshot of the process counters a measurement window
// is differenced over.
type procSample struct {
	cpu     float64 // user+system CPU seconds
	mallocs uint64  // cumulative heap allocations
	allocB  uint64  // cumulative bytes allocated on the heap
	gcCPU   float64 // cumulative GC CPU seconds (runtime estimate)
}

func sampleProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gcCPU := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gcCPU)
	gc := 0.0
	if gcCPU[0].Value.Kind() == metrics.KindFloat64 {
		gc = gcCPU[0].Value.Float64()
	}
	return procSample{
		cpu:     cpuSeconds(),
		mallocs: ms.Mallocs,
		allocB:  ms.TotalAlloc,
		gcCPU:   gc,
	}
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

// hostSteal returns the machine's cumulative steal time in clock ticks
// (1/100 s per vCPU): time the hypervisor ran other guests while this
// machine's vCPUs were ready to run. It returns -1 where the kernel does
// not report it.
func hostSteal() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	v, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return -1
	}
	return v
}

// stealBetween returns the steal ticks between two hostSteal readings, or
// -1 when steal is not reported.
func stealBetween(before, after int64) int64 {
	if before < 0 || after < 0 {
		return -1
	}
	return after - before
}

// quietest marks the quarter of equal-length intervals in which the host
// stole the least CPU (ties go to the earlier), given the steal during
// each; every interval when there are fewer than four or steal is not
// reported. On a virtual machine that shares its host, steal changes over
// seconds to minutes and can take a third of the CPU for whole runs, so a
// fixed threshold would keep nothing in a busy run; keeping a fixed share always picks the least
// disturbed part. The intervals all have the same length, so the choice
// does not favour fast ones.
func quietest(steal []int64) []bool {
	keep := make([]bool, len(steal))
	if len(steal) < 4 || slices.Min(steal) < 0 {
		for i := range keep {
			keep[i] = true
		}
		return keep
	}
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(steal[a], steal[b]) })
	for _, i := range idx[:len(idx)/4] {
		keep[i] = true
	}
	return keep
}

// peakRSSMB is the process's peak resident set size in MB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// fsType names the filesystem holding dir, for the host facts.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return "unknown"
}
