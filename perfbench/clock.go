package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// The benchmark measures the simulator's host cost, so it is the one
// package of the module that reads the host clock. Every reading is
// reported as a host-time metric; none ever enters simulated state, which
// runs on simclock virtual time alone.

// epoch anchors nowNS; host times are nanoseconds since process start.
//
//sledlint:allow wallclock -- the benchmark's purpose is host timing; readings never reach simulated state
var epoch = time.Now()

// nowNS reads the host's monotonic clock in nanoseconds since epoch.
//
//sledlint:allow wallclock -- the benchmark's purpose is host timing; readings never reach simulated state
func nowNS() int64 { return int64(time.Since(epoch)) }

// allocCounter snapshots the heap's cumulative allocation counters.
type allocCounter struct{ mallocs, bytes uint64 }

// readAllocs reads the runtime's cumulative allocation counts. It stops
// the world briefly, so call it only at pass boundaries.
func readAllocs() allocCounter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocCounter{mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

// peakRSSMB reports the peak resident set of this process image in MiB:
// VmHWM from /proc/self/status. getrusage's ru_maxrss would not do: it
// keeps the high-water mark of whatever process image forked and exec'd
// into this one, so a large parent would read as this process's peak.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
