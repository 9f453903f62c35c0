package main

import (
	"crypto/sha256"
	"runtime"
	"sync"
	"time"
)

// The box this benchmark runs on shares its CPUs: its speed drifts by a
// third over minutes, for whole runs at a time, and every timed metric
// follows. A calibration loop that touches nothing of the program and
// does not allocate (so neither a change to the program nor the size of
// its heap can move it) runs on every CPU before and after every timed
// phase, and the phase's times are scaled to the speed of a quiet box:
// calRef iterations per second, fixed at the commit that added the
// benchmark. Raw wall-clock values are reported beside the scaled ones.
const (
	calRef   = 700000.0 // calibration iterations/s of a quiet box, all CPUs together
	calIters = 40000    // per CPU and calibration: about 100 ms
	calWords = 1 << 20  // 8 MiB per CPU: the walk misses the caches
)

// calChain holds, per CPU, a random cycle through calWords slots.
var calChain = func() [][]uint32 {
	chains := make([][]uint32, runtime.GOMAXPROCS(0))
	for c := range chains {
		chain := make([]uint32, calWords)
		x := uint32(1)
		for i := range chain { // an LCG with full period modulo 2^20
			x = (x*1664525 + 1013904223) & (calWords - 1)
			chain[i] = x
		}
		chains[c] = chain
	}
	return chains
}()

// calibrate runs the fixed loop on every CPU at once and returns
// iterations per second. One iteration hashes 1 KiB and follows 64
// dependent loads through 8 MiB: compute and memory, as the stack is.
func calibrate() float64 {
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, chain := range calChain {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var block [1024]byte
			at := uint32(0)
			for j := 0; j < calIters; j++ {
				sum := sha256.Sum256(block[:])
				block[j&1023] = sum[0]
				for k := 0; k < 64; k++ {
					at = chain[(at+uint32(sum[1]))&(calWords-1)]
				}
				block[0] = byte(at)
			}
		}()
	}
	wg.Wait()
	return float64(len(calChain)*calIters) / time.Since(t0).Seconds()
}

// speedOf times f between two calibrations and returns the box's speed
// meanwhile as a share of calRef (1 = the quiet reference box).
func speedOf(f func()) float64 {
	c0 := calibrate()
	f()
	return (c0 + calibrate()) / 2 / calRef
}
