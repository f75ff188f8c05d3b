package timing

import (
	"testing"
	"testing/quick"
)

func TestMinMax(t *testing.T) {
	if Min(3, 5) != 3 || Min(5, 3) != 3 {
		t.Fatal("Min broken")
	}
	if Max(3, 5) != 5 || Max(5, 3) != 5 {
		t.Fatal("Max broken")
	}
	if Min(Never, 7) != 7 {
		t.Fatal("Min with Never broken")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at %d", i)
		}
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced stuck stream")
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Intn(13)
		if v < 0 || v >= 13 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGForkIndependence(t *testing.T) {
	parent := NewRNG(1)
	child := parent.Fork()
	// The child must be deterministic given the parent state.
	parent2 := NewRNG(1)
	child2 := parent2.Fork()
	for i := 0; i < 100; i++ {
		if child.Uint64() != child2.Uint64() {
			t.Fatal("forked streams not deterministic")
		}
	}
}

func TestQueueOrdering(t *testing.T) {
	var q Queue[int]
	q.Push(30, 3)
	q.Push(10, 1)
	q.Push(20, 2)
	if q.NextReady() != 10 {
		t.Fatalf("NextReady = %d, want 10", q.NextReady())
	}
	if _, ok := q.PopReady(5); ok {
		t.Fatal("popped before ready")
	}
	v, ok := q.PopReady(100)
	if !ok || v != 1 {
		t.Fatalf("pop1 = %d,%v", v, ok)
	}
	v, _ = q.PopReady(100)
	if v != 2 {
		t.Fatalf("pop2 = %d", v)
	}
	v, _ = q.PopReady(100)
	if v != 3 {
		t.Fatalf("pop3 = %d", v)
	}
	if q.Len() != 0 {
		t.Fatal("queue not empty")
	}
	if q.NextReady() != Never {
		t.Fatal("empty queue NextReady != Never")
	}
}

func TestQueueFIFOTiebreak(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 50; i++ {
		q.Push(7, i)
	}
	for i := 0; i < 50; i++ {
		v, ok := q.PopReady(7)
		if !ok || v != i {
			t.Fatalf("tiebreak order broken: got %d want %d", v, i)
		}
	}
}

func TestQueuePropertySorted(t *testing.T) {
	// Property: popping everything yields a non-decreasing ready order.
	f := func(times []uint16) bool {
		var q Queue[Cycle]
		for _, tm := range times {
			q.Push(Cycle(tm), Cycle(tm))
		}
		prev := Cycle(0)
		for q.Len() > 0 {
			v, ok := q.PopReady(Never - 1)
			if !ok || v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQueueInterleavedPushPop(t *testing.T) {
	var q Queue[int]
	r := NewRNG(3)
	next := 0
	popped := 0
	for step := 0; step < 2000; step++ {
		if r.Bool(0.6) || q.Len() == 0 {
			q.Push(Cycle(r.Intn(1000)), next)
			next++
		} else {
			if _, ok := q.PopReady(Never - 1); ok {
				popped++
			}
		}
	}
	for q.Len() > 0 {
		q.PopReady(Never - 1)
		popped++
	}
	if popped != next {
		t.Fatalf("popped %d, pushed %d", popped, next)
	}
}

// calendarTrace drives a Calendar and a reference Queue with the same
// pushes and pops and fails on the first item they pop differently. The
// clock advances by small steps with occasional long jumps, and push
// delays mix short pipe latencies with jumps just past a ring size (the
// model checker's 420/430-cycle NoC delay menu), so the ring must grow
// while items are pending.
func calendarTrace(t *testing.T, c *Calendar[int], seed uint64) {
	t.Helper()
	var q Queue[int]
	r := NewRNG(seed)
	delays := []Cycle{0, 1, 3, 60, 61, 130, 420, 430, 1500, 2100}
	now := Cycle(5)
	next := 0
	pop := func() {
		for {
			want, wok := q.PopReady(now)
			got, gok := c.PopReady(now)
			if wok != gok || want != got {
				t.Fatalf("seed %d, cycle %d: calendar popped (%d, %v), queue (%d, %v)", seed, now, got, gok, want, wok)
			}
			if !wok {
				return
			}
		}
	}
	for step := 0; step < 4000; step++ {
		for k := r.Intn(4); k > 0; k-- {
			at := now + delays[r.Intn(len(delays))]
			q.Push(at, next)
			c.Push(at, next)
			next++
		}
		if c.Len() != q.Len() || c.NextReady() != q.NextReady() {
			t.Fatalf("seed %d, cycle %d: calendar Len/NextReady %d/%d, queue %d/%d",
				seed, now, c.Len(), c.NextReady(), q.Len(), q.NextReady())
		}
		pop()
		if r.Bool(0.05) {
			now += 430
		} else {
			now += Cycle(1 + r.Intn(3))
		}
	}
	for now = now + 1; q.Len() > 0; now += 64 {
		pop()
	}
	if c.Len() != 0 || c.NextReady() != Never {
		t.Fatalf("seed %d: calendar not empty after draining: Len %d", seed, c.Len())
	}
}

// TestCalendarOrderAcrossGrowth pins the Calendar's pop order to the
// Queue's (ReadyAt, insertion) order for a zero-value calendar (first
// Push sizes the ring) and for a small Reserve ring that must double
// several times across horizon jumps.
func TestCalendarOrderAcrossGrowth(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		var zero Calendar[int]
		calendarTrace(t, &zero, seed)

		var small Calendar[int]
		small.Reserve(8)
		if len(small.buckets) != 64 {
			t.Fatalf("Reserve(8) sized the ring to %d buckets, want 64", len(small.buckets))
		}
		calendarTrace(t, &small, seed)
		if len(small.buckets) < 4096 {
			t.Fatalf("seed %d: the 2100-cycle delays should have grown the ring past 2048, have %d", seed, len(small.buckets))
		}
	}
}

// TestCalendarGrowDoubles checks that growth doubles the current ring
// (rather than jumping to a fixed large size) and keeps a pending bucket's
// items and order.
func TestCalendarGrowDoubles(t *testing.T) {
	var c Calendar[int]
	c.Reserve(10) // 64 buckets
	c.Push(100, 1)
	c.Push(100, 2)
	c.Push(170, 3) // span 70 ≥ 64: one doubling
	if len(c.buckets) != 128 {
		t.Fatalf("ring is %d buckets after a 70-cycle span, want 128", len(c.buckets))
	}
	c.Push(100+300, 4) // span 300: two more doublings
	if len(c.buckets) != 512 {
		t.Fatalf("ring is %d buckets after a 300-cycle span, want 512", len(c.buckets))
	}
	for i, want := range []int{1, 2, 3, 4} {
		got, ok := c.PopReady(Never - 1)
		if !ok || got != want {
			t.Fatalf("pop %d = (%d, %v), want %d", i, got, ok, want)
		}
	}
}

// TestCalendarInitCarvesNoStorage checks that sizing a ring allocates only
// the bucket headers and the bitmap: item storage comes with first use.
func TestCalendarInitCarvesNoStorage(t *testing.T) {
	var c Calendar[[4]uint64]
	c.Reserve(1000) // 1024 buckets
	for i, b := range c.buckets {
		if b.items != nil {
			t.Fatalf("bucket %d has storage before first use", i)
		}
	}
	c.Push(7, [4]uint64{1})
	if b := c.buckets[7]; cap(b.items) != bucketCap {
		t.Fatalf("first-use bucket capacity %d, want %d", cap(b.items), bucketCap)
	}
}
