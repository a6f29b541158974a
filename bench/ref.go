package main

import (
	"math"
	"time"
)

// The reference kernel is a fixed gossip-averaging loop that belongs to
// the benchmark, not to the program. Its graph mirrors the memory a
// gossip tick touches on the workload's network: the task's n nodes, each
// with the expected degree of the workload's random geometric graph,
// π·c²·ln n for radius multiplier c, as CSR offsets and neighbour lists,
// and a position and a value per node. One iteration picks a random node
// and a random neighbour, reads both positions and averages both values.
// A shared host changes speed by tens of percent over minutes, and a
// program change never changes the kernel, so an engine tick priced in
// kernel iterations measured on the same worker just before and just
// after its task keeps the program's cost and drops most of the host's.
const (
	refWarm  = 20_000  // untimed iterations that bring the kernel's data back into cache
	refIters = 200_000 // timed iterations of one probe
)

// refKernel is the kernel for one n: its graph is shared, and every slot
// averages values of its own so slots never write the same memory.
type refKernel struct {
	n     int
	off   []int32 // node i's neighbours are adj[off[i]:off[i+1]]
	adj   []int32
	pos   [][2]float64
	slots []refSlot
}

type refSlot struct {
	vals []float64
	sink float64 // keeps the position reads live
}

// refKernels builds one kernel per n for the given slot count and radius
// multiplier, before any timing starts.
func refKernels(ns []int, slots int, radiusMultiplier float64) map[int]*refKernel {
	ks := make(map[int]*refKernel, len(ns))
	for _, n := range ns {
		deg := max(1, int(math.Round(math.Pi*radiusMultiplier*radiusMultiplier*math.Log(float64(n)))))
		k := &refKernel{n: n, off: make([]int32, n+1), adj: make([]int32, n*deg), pos: make([][2]float64, n), slots: make([]refSlot, slots)}
		for i := range k.off {
			k.off[i] = int32(i * deg)
		}
		x := uint64(0x9e3779b97f4a7c15)
		for i := range k.adj {
			x = xorshift(x)
			k.adj[i] = int32(x % uint64(n))
		}
		for i := range k.pos {
			x = xorshift(x)
			k.pos[i] = [2]float64{float64(x&0xffff) / 0x10000, float64(x>>16&0xffff) / 0x10000}
		}
		for s := range k.slots {
			k.slots[s].vals = make([]float64, n)
			for i := range k.slots[s].vals {
				k.slots[s].vals[i] = float64(i)
			}
		}
		ks[n] = k
	}
	return ks
}

// probe runs the kernel on slot's values and returns nanoseconds per
// timed iteration. Every probe walks the same sequence of nodes.
func (k *refKernel) probe(slot int) float64 {
	k.run(slot, refWarm)
	start := time.Now()
	k.run(slot, refIters)
	return float64(time.Since(start).Nanoseconds()) / refIters
}

func (k *refKernel) run(slot, iters int) {
	s := &k.slots[slot]
	v, n := s.vals, uint64(k.n)
	x := uint64(0x2545f4914f6cdd1d)
	var d float64
	for t := 0; t < iters; t++ {
		x = xorshift(x)
		i := int(x % n)
		lo, hi := k.off[i], k.off[i+1]
		j := k.adj[lo+int32((x>>32)%uint64(hi-lo))]
		d += k.pos[i][0] - k.pos[j][0] + k.pos[i][1] - k.pos[j][1]
		m := (v[i] + v[j]) / 2
		v[i], v[j] = m, m
	}
	s.sink += d
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}
