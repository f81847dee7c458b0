package main

import (
	"runtime"
	"runtime/metrics"
)

// counters is a reading of the Go runtime's process-wide counters.
type counters struct {
	gcCPU      float64 // seconds of CPU the GC used
	busyCPU    float64 // seconds of CPU not idle (GOMAXPROCS × wall − idle)
	allocs     uint64  // heap objects allocated
	allocBytes uint64
}

var counterNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
}

func readCounters() counters {
	s := make([]metrics.Sample, len(counterNames))
	for i, n := range counterNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return counters{
		gcCPU:      s[0].Value.Float64(),
		busyCPU:    s[1].Value.Float64() - s[2].Value.Float64(),
		allocs:     s[3].Value.Uint64(),
		allocBytes: s[4].Value.Uint64(),
	}
}

// sub returns the counts accumulated between a reading b and c.
func (c counters) sub(b counters) counters {
	return counters{
		gcCPU:      c.gcCPU - b.gcCPU,
		busyCPU:    c.busyCPU - b.busyCPU,
		allocs:     c.allocs - b.allocs,
		allocBytes: c.allocBytes - b.allocBytes,
	}
}

// gcFrac is the share of non-idle CPU the GC used.
func (c counters) gcFrac() float64 {
	if c.busyCPU <= 0 {
		return 0
	}
	return c.gcCPU / c.busyCPU
}

// liveHeap forces a full collection and returns the live heap it found.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// residentMB is the live heap retained since a baseline, in MiB.
func residentMB(base uint64) float64 {
	return float64(int64(liveHeap())-int64(base)) / (1 << 20)
}
