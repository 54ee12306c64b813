package main

import (
	"runtime/metrics"
	"sync/atomic"
	"time"
)

// heapSampleEvery is the heap sampler's cadence: coarse enough that its
// wakeups cost nothing measurable, fine enough to catch the peak of an
// op lasting tens of milliseconds.
const heapSampleEvery = 5 * time.Millisecond

// heapObjectsMetric is the bytes held by heap objects, live or not yet
// swept. runtime/metrics reads it without stopping the world, unlike
// runtime.ReadMemStats.
const heapObjectsMetric = "/memory/classes/heap/objects:bytes"

// heapSampler tracks the peak heap over windows delimited by reset.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

// startHeapSampler starts sampling in the background; close stops it.
func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	h.peak.Store(heapBytes())
	go func() {
		defer close(h.done)
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.observe(heapBytes())
			}
		}
	}()
	return h
}

// heapBytes reads the current heap-object bytes.
func heapBytes() uint64 {
	s := []metrics.Sample{{Name: heapObjectsMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// observe raises the window's peak to v.
func (h *heapSampler) observe(v uint64) {
	for {
		old := h.peak.Load()
		if v <= old || h.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// reset returns the peak since the previous reset, the heap right now
// included, and opens a new window at the current heap.
func (h *heapSampler) reset() uint64 {
	now := heapBytes()
	h.observe(now)
	return h.peak.Swap(now)
}

// close stops the sampler and waits for it to exit.
func (h *heapSampler) close() {
	close(h.stop)
	<-h.done
}

// mib converts bytes to MiB.
func mib(b uint64) float64 { return float64(b) / (1 << 20) }
