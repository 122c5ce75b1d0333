package main

import (
	"slices"
	"sync"
	"time"
)

// The benchmark runs on shared hosts whose cores other tenants load and
// unload over tens of seconds: on the 2-vCPU VM it was written on, a
// fixed loop ran up to half again as slow for minutes at a time, and the
// scanner's pass times (wall and CPU alike) moved with it. Medians over a
// run do not remove a slowdown that lasts the whole run, so every time
// metric is scaled by the host's speed, measured by a fixed kernel right
// before and right after the timed work: a time is reported as it would
// read on a host where the kernel takes calRef. The record keeps the raw
// times too.

const (
	// calRounds is how many rounds of the kernel each worker times per
	// measurement, after one untimed round.
	calRounds = 8
	// calRef is the kernel's median time on the VM above (9.9 ms over 40
	// runs), so scaled times read close to raw ones there.
	calRef = 10 * time.Millisecond
)

// hostSpeed is the calibration kernel. In one round each of the harness's
// workers fills a 32 KiB slice from a fixed linear congruential sequence,
// counts the values in a map of up to 16K entries and sorts the slice:
// integer arithmetic, hashing, branches and cache-resident memory
// traffic, much like the scanner's analysis. It allocates nothing once
// built, so the scanner's heap and collector cannot move it, and the
// untimed round reloads its buffers into cache whatever the scanner left
// there.
type hostSpeed struct {
	bufs []calBuf
}

type calBuf struct {
	vals   []uint32
	counts map[uint32]uint32
}

func newHostSpeed(workers int) *hostSpeed {
	h := &hostSpeed{bufs: make([]calBuf, workers)}
	for i := range h.bufs {
		h.bufs[i] = calBuf{vals: make([]uint32, 1<<13), counts: make(map[uint32]uint32, 1<<14)}
	}
	return h
}

func (b *calBuf) round() {
	clear(b.counts)
	x := uint32(12345)
	for i := range b.vals {
		x = x*1103515245 + 12345
		b.vals[i] = x >> 4
		b.counts[x&0x3fff] += uint32(i)
	}
	slices.Sort(b.vals)
}

// measure runs the kernel on every worker at once and returns the wall of
// the timed rounds.
func (h *hostSpeed) measure() time.Duration {
	var warm, done sync.WaitGroup
	warm.Add(len(h.bufs))
	done.Add(len(h.bufs))
	start := make(chan struct{})
	for i := range h.bufs {
		go func() {
			defer done.Done()
			b := &h.bufs[i]
			b.round()
			warm.Done()
			<-start
			for r := 0; r < calRounds; r++ {
				b.round()
			}
		}()
	}
	warm.Wait()
	t0 := time.Now()
	close(start)
	done.Wait()
	return time.Since(t0)
}

// scaleAll returns each v[i] as it would read on a host where the kernel
// takes calRef, given that it took cals[i] while v[i] was measured.
func scaleAll(v []float64, cals []time.Duration) []float64 {
	out := make([]float64, len(v))
	for i := range v {
		out[i] = v[i] * float64(calRef) / float64(cals[i])
	}
	return out
}
