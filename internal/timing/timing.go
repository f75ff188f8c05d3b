// Package timing provides the basic clocking primitives shared by every
// component of the simulator: the Cycle type, a "never" sentinel used by
// components to report that they have no pending events, a deterministic
// pseudo-random number generator, and a small ready-time priority queue
// used to model fixed-latency pipes.
package timing

import (
	"math"
	"math/bits"
)

// Cycle is a point in simulated time, measured in GPU core clock cycles
// (1.4 GHz in the default configuration).
type Cycle uint64

// Never is the sentinel returned by NextEvent methods when a component has
// no pending work; the run loop treats it as "infinitely far in the future".
const Never Cycle = math.MaxUint64

// Min returns the earlier of two cycles.
func Min(a, b Cycle) Cycle {
	if a < b {
		return a
	}
	return b
}

// Max returns the later of two cycles.
func Max(a, b Cycle) Cycle {
	if a > b {
		return a
	}
	return b
}

// RNG is a deterministic xorshift64* pseudo-random number generator.
// Every source of randomness in the simulator (workload generation only;
// the machine model itself is fully deterministic) flows through an RNG
// seeded from the run configuration, so identical configurations produce
// bit-identical runs.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. A zero seed is remapped to a
// fixed non-zero constant because xorshift has a zero fixpoint.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next raw 64-bit value.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Intn returns a uniformly distributed value in [0, n). It panics if
// n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("timing: Intn called with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniformly distributed value in [0, n). It panics if
// n == 0. The reduction is Lemire's multiply-shift with the rejection
// step, so no residue is over-represented (a plain modulo biases low
// residues for any n that does not divide 2^64).
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("timing: Uint64n called with zero n")
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n // (2^64 - n) mod n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Fork derives an independent generator; the child stream is a pure
// function of the parent state, so forking remains deterministic.
func (r *RNG) Fork() *RNG {
	return NewRNG(r.Uint64() | 1)
}

// ForkInto re-seeds dst as a child of r, producing the same stream as
// Fork without allocating (the |1 keeps the seed off xorshift's zero
// fixpoint, matching NewRNG's remap).
func (r *RNG) ForkInto(dst *RNG) {
	*dst = RNG{state: r.Uint64() | 1}
}

// Item is an element of a Queue: a payload that becomes visible at a
// specific cycle.
type Item[T any] struct {
	ReadyAt Cycle
	Val     T
	seq     uint64
}

// Queue is a min-heap of items ordered by ready time, with FIFO tiebreak
// for items that become ready on the same cycle. It models a latency pipe:
// producers Push with a computed ready time; consumers PopReady each cycle.
type Queue[T any] struct {
	items []Item[T]
	seq   uint64
}

// Len reports the number of queued items (ready or not).
func (q *Queue[T]) Len() int { return len(q.items) }

// Push inserts v so that it becomes visible at cycle at.
func (q *Queue[T]) Push(at Cycle, v T) {
	q.seq++
	q.items = append(q.items, Item[T]{ReadyAt: at, Val: v, seq: q.seq})
	q.up(len(q.items) - 1)
}

// NextReady returns the earliest ready time in the queue, or Never if the
// queue is empty.
func (q *Queue[T]) NextReady() Cycle {
	if len(q.items) == 0 {
		return Never
	}
	return q.items[0].ReadyAt
}

// PopReady removes and returns the earliest item if it is ready at cycle
// now. The second result reports whether an item was returned.
func (q *Queue[T]) PopReady(now Cycle) (T, bool) {
	var zero T
	if len(q.items) == 0 || q.items[0].ReadyAt > now {
		return zero, false
	}
	v := q.items[0].Val
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	q.items = q.items[:last]
	if last > 0 {
		q.down(0)
	}
	return v, true
}

// bucketCap is a bucket's first slice capacity: the common case is at most
// a few items per cycle, so a bucket's slice rarely grows after first use.
// First-use slices are carved from slabs of slabBuckets slices, so a ring
// costs one allocation per slabBuckets buckets it actually uses.
const (
	bucketCap   = 4
	slabBuckets = 16
)

// calBucket holds the items of one cycle. head indexes the next item to
// pop; items[:head] have been consumed and are cleared.
type calBucket[T any] struct {
	items []T
	head  int
}

// Calendar is a bucket ("calendar") queue: one FIFO bucket per cycle,
// indexed by cycle modulo a power-of-two ring size. It pops items in
// exactly the (ReadyAt, insertion-order) sequence a Queue would, but with
// O(1) Push and amortized-O(1) PopReady, provided pending ready times span
// less than the ring size (the ring grows on demand when they don't).
// Use it for high-traffic pipes whose events sit a bounded distance in the
// future — e.g. interconnect deliveries; keep Queue for tiny or unbounded-
// horizon queues.
type Calendar[T any] struct {
	buckets []calBucket[T]
	occ     []uint64 // occupancy bitmap, one bit per bucket
	mask    int
	next    Cycle // earliest nonempty bucket's cycle (undefined when empty)
	maxAt   Cycle // latest pending cycle (undefined when empty)
	count   int
	slab    []T // uncarved first-use storage (see bucketCap)
}

// Len reports the number of queued items (ready or not).
func (c *Calendar[T]) Len() int { return c.count }

// NextReady returns the earliest ready time, or Never if empty.
func (c *Calendar[T]) NextReady() Cycle {
	if c.count == 0 {
		return Never
	}
	return c.next
}

// Push inserts v so that it becomes visible at cycle at.
func (c *Calendar[T]) Push(at Cycle, v T) {
	if c.buckets == nil {
		c.init(1024)
	}
	lo, hi := at, at
	if c.count > 0 {
		if c.next < lo {
			lo = c.next
		}
		if c.maxAt > hi {
			hi = c.maxAt
		}
	}
	if hi-lo >= Cycle(len(c.buckets)) {
		c.grow(lo, hi)
	}
	pos := int(at) & c.mask
	b := &c.buckets[pos]
	if len(b.items) == 0 {
		c.occ[pos>>6] |= 1 << uint(pos&63)
		if b.items == nil {
			if len(c.slab) == 0 {
				c.slab = make([]T, slabBuckets*bucketCap)
			}
			b.items = c.slab[:0:bucketCap]
			c.slab = c.slab[bucketCap:]
		}
	}
	b.items = append(b.items, v)
	c.count++
	c.next, c.maxAt = lo, hi
}

// Reserve sizes the ring for events at most span cycles apart, replacing
// the default 1024-bucket first-Push ring for queues with a known short
// horizon. The ring still doubles on demand if the span estimate is
// exceeded. No-op once the calendar holds or has held items.
func (c *Calendar[T]) Reserve(span int) {
	if c.buckets != nil || span <= 0 {
		return
	}
	size := 64
	for size <= span {
		size *= 2
	}
	c.init(size)
}

// init sizes the ring. Buckets carry no item storage yet: a bucket gets
// its slice on first use and keeps it across later cycles that map to it,
// so a short-lived machine pays only for the buckets it actually fills.
func (c *Calendar[T]) init(size int) {
	c.buckets = make([]calBucket[T], size)
	c.occ = make([]uint64, size/64)
	c.mask = size - 1
}

// grow doubles the ring until [lo, hi] fits. Old bucket i can only move to
// a new index congruent to i modulo the old size, so every bucket — its
// slice, pending items and head — moves wholesale without colliding with
// another: a pending bucket goes to the index of its cycle (keeping its
// FIFO order), an empty one keeps its index and its storage.
func (c *Calendar[T]) grow(lo, hi Cycle) {
	size := 2 * len(c.buckets)
	for Cycle(size) <= hi-lo {
		size *= 2
	}
	old, oldMask := c.buckets, c.mask
	c.init(size)
	base := int(c.next) & oldMask
	for i := range old {
		ob := &old[i]
		pos := i
		if ob.head < len(ob.items) {
			// Pending cycles span less than the old ring, so bucket i
			// holds exactly the cycle next + (i - next) mod oldSize.
			cyc := c.next + Cycle((i-base)&oldMask)
			pos = int(cyc) & c.mask
			c.occ[pos>>6] |= 1 << uint(pos&63)
		}
		c.buckets[pos] = *ob
	}
}

// PopReady removes and returns the earliest item if it is ready at cycle
// now. The second result reports whether an item was returned.
func (c *Calendar[T]) PopReady(now Cycle) (T, bool) {
	var zero T
	if c.count == 0 || c.next > now {
		return zero, false
	}
	pos := int(c.next) & c.mask
	b := &c.buckets[pos]
	v := b.items[b.head]
	b.items[b.head] = zero
	b.head++
	c.count--
	if b.head == len(b.items) {
		b.items = b.items[:0]
		b.head = 0
		c.occ[pos>>6] &^= 1 << uint(pos&63)
		if c.count > 0 {
			// Jump to the next occupied bucket via the bitmap. Pending
			// cycles span less than the ring size, so the first set bit
			// circularly after pos is the earliest pending cycle.
			i := (pos + 1) & c.mask
			w := i >> 6
			word := c.occ[w] &^ (1<<uint(i&63) - 1)
			for word == 0 {
				w++
				if w == len(c.occ) {
					w = 0
				}
				word = c.occ[w]
			}
			bit := w<<6 + bits.TrailingZeros64(word)
			c.next += 1 + Cycle((bit-i)&c.mask)
		}
	}
	return v, true
}

func (q *Queue[T]) less(i, j int) bool {
	a, b := q.items[i], q.items[j]
	if a.ReadyAt != b.ReadyAt {
		return a.ReadyAt < b.ReadyAt
	}
	return a.seq < b.seq
}

func (q *Queue[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q.items[i], q.items[parent] = q.items[parent], q.items[i]
		i = parent
	}
}

func (q *Queue[T]) down(i int) {
	n := len(q.items)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.less(l, smallest) {
			smallest = l
		}
		if r < n && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		q.items[i], q.items[smallest] = q.items[smallest], q.items[i]
		i = smallest
	}
}
