package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; 0 for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailPercentile picks the highest of the usual tail percentiles that still
// has at least ten samples beyond it, falling back to the median.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

// procSnap is the process-wide accounting read before and after the window.
type procSnap struct {
	at         time.Time
	cpuS       float64 // user + system CPU of the whole process
	allocBytes uint64  // cumulative heap bytes allocated
	gcCount    uint32
	gcPauseNs  uint64
}

func snapProcess() (procSnap, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return procSnap{}, fmt.Errorf("getrusage: %w", err)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return procSnap{
		at:         time.Now(),
		cpuS:       tv(ru.Utime) + tv(ru.Stime),
		allocBytes: ms.TotalAlloc,
		gcCount:    ms.NumGC,
		gcPauseNs:  ms.PauseTotalNs,
	}, nil
}

// peakRSSKB reads the process's peak resident set size (VmHWM), in kB.
func peakRSSKB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				return strconv.ParseFloat(f[0], 64)
			}
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
