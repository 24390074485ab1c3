package main

import (
	"runtime"
	"slices"
	"time"
)

// Shared VMs change speed by a third or more over tens of minutes as
// neighbours come and go: on a 2-CPU Xeon VM, one seed of tenants moved
// between 5,600 and 9,900 req/s within a few hours. Ten runs at different
// seeds span such a swing, and two sets of ten can fall on either side of
// it. A fixed reference job, run between the passes, slows down with the
// host, and the end-to-end host metrics are scaled by how fast it ran: a
// slow phase cancels out, while a faster program still reads faster.
//
// The reference job does the kinds of work the simulator spends its time
// on: goroutine hand-off over channels, map updates and sorting. It
// allocates nothing while timed, and its buffers are dropped before the next
// pass, so it neither depends on nor adds to the program's heap.

// probeRefS is the reference job's time on the host the bounds were set on
// (a 2-CPU Intel Xeon VM in a quiet phase). Host metrics are reported as if
// the host ran the reference job in exactly this time.
const probeRefS = 0.04

// probeRounds is how often each probe point runs the reference job. One run
// varies by about 15% back to back, so the median of many runs is used.
const probeRounds = 5

// probeHost collects garbage, so no collection overlaps the reference job,
// then runs the job probeRounds times and appends each run's host seconds
// to into.
func probeHost(into []float64) []float64 {
	m := make(map[int]int, 1<<14)
	xs := make([]int, 1<<17)
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
	}()
	defer close(ping)
	runtime.GC()
	for r := 0; r < probeRounds; r++ {
		t := time.Now()
		for i := 0; i < 40_000; i++ {
			ping <- i
			<-pong
		}
		for i := 0; i < 200_000; i++ {
			m[(i*7919)&(1<<14-1)] += i
		}
		for i := range xs {
			xs[i] = (i*2654435761 + r) % 1_000_003
		}
		slices.Sort(xs)
		into = append(into, time.Since(t).Seconds())
	}
	return into
}
