package main

import (
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/sim"
)

// hostCost is what one simulation run cost the host. Allocation and
// switch counts repeat to six digits for a given binary and seed; wall
// and CPU time carry the sandbox's noise and are reported per layer only.
type hostCost struct {
	wall       time.Duration
	cpu        time.Duration // user+system CPU time of the process
	mallocs    uint64
	allocBytes uint64
	heapSys    uint64
	switches   int64
	buckets    []int64 // indexed like switchBuckets
	virtual    time.Duration
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure drives s with run and reports the host cost of doing so. The
// host clocks are read only here, before and after the simulation runs.
func measure(s *sim.Simulation, run func() error) (hostCost, error) {
	c := hostCost{buckets: make([]int64, len(switchBuckets))}
	bucketOf := make(map[string]int)
	s.OnSwitch = func(_ sim.Time, name string) {
		b, ok := bucketOf[name]
		if !ok {
			b = switchBucket(name)
			bucketOf[name] = b
		}
		c.switches++
		c.buckets[b]++
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0, virt0, wall0 := cpuTime(), s.Now(), time.Now()

	err := run()

	c.wall = time.Since(wall0)
	c.cpu = cpuTime() - cpu0
	c.virtual = s.Now().Sub(virt0)
	runtime.ReadMemStats(&after)
	s.OnSwitch = nil
	c.mallocs = after.Mallocs - before.Mallocs
	c.allocBytes = after.TotalAlloc - before.TotalAlloc
	c.heapSys = after.HeapSys
	return c, err
}

// switchBucket classifies a simulated process by its name, which kernels
// form as "<kernel>/<task>.<tid>": the client machine's tasks, the
// replication engine's ft-* tasks, tcprep-*, the failure detector's hb-*
// and failover tasks, rejoin/epoch housekeeping and kernel-less procs
// (other), and whatever remains — the application's own threads.
func switchBucket(name string) int {
	kern, task, ok := strings.Cut(name, "/")
	switch {
	case !ok:
		return bucketOther
	case kern == "client":
		return bucketClient
	case strings.HasPrefix(task, "ft-"):
		return bucketReplication
	case strings.HasPrefix(task, "tcprep-"):
		return bucketTCPRep
	case strings.HasPrefix(task, "hb-"), strings.HasPrefix(task, "failover"):
		return bucketFailure
	case strings.HasPrefix(task, "rejoin-"), strings.HasPrefix(task, "epoch-"):
		return bucketOther
	}
	return bucketApp
}
