// Package sim provides a small deterministic discrete-event simulation
// engine: a virtual clock and an event queue, plus the closed-form LPT
// makespan the WAN and cluster estimates share. The WAN, batch-scheduler,
// and end-to-end transfer models run on it so that experiments covering
// hours of supercomputer time execute in microseconds and are exactly
// reproducible.
package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"
)

// Clock is a virtual-time event loop. The zero value is not usable; call
// NewClock.
type Clock struct {
	now    float64
	queue  eventQueue
	seq    int64
	budget int
}

// event is a scheduled callback.
type event struct {
	at  float64
	seq int64 // FIFO tie-break for determinism
	fn  func()
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// defaultBudget bounds the number of processed events to catch runaway
// simulations in tests.
const defaultBudget = 50_000_000

// NewClock returns a clock at time 0.
func NewClock() *Clock {
	return &Clock{budget: defaultBudget}
}

// Now reports the current virtual time in seconds.
func (c *Clock) Now() float64 { return c.now }

// ErrPastEvent is returned by At when scheduling before the current time.
var ErrPastEvent = errors.New("sim: event scheduled in the past")

// At schedules fn to run at absolute virtual time t.
func (c *Clock) At(t float64, fn func()) error {
	if t < c.now {
		return fmt.Errorf("%w: t=%.6f now=%.6f", ErrPastEvent, t, c.now)
	}
	c.seq++
	heap.Push(&c.queue, &event{at: t, seq: c.seq, fn: fn})
	return nil
}

// After schedules fn to run d seconds from now. Negative d means now.
func (c *Clock) After(d float64, fn func()) {
	if d < 0 {
		d = 0
	}
	// Error impossible: t >= now by construction.
	_ = c.At(c.now+d, fn)
}

// Run processes events until the queue drains, advancing virtual time.
// It returns an error if the event budget is exhausted.
func (c *Clock) Run() error {
	processed := 0
	for c.queue.Len() > 0 {
		e, ok := heap.Pop(&c.queue).(*event)
		if !ok {
			return errors.New("sim: corrupt event queue")
		}
		c.now = e.at
		e.fn()
		processed++
		if processed > c.budget {
			return fmt.Errorf("sim: event budget %d exhausted at t=%.3f", c.budget, c.now)
		}
	}
	return nil
}

// Pending reports the number of scheduled events.
func (c *Clock) Pending() int { return c.queue.Len() }

// Makespan is the completion time of longest-processing-time-first list
// scheduling: costs are taken largest first, each onto a least-loaded of
// `workers` workers (≤ 0 means 1). A min-heap of loads keeps large
// inventories O(n log w). Which least-loaded worker takes a cost never
// changes the multiset of loads, so the result is exact and
// tie-break-independent.
func Makespan(costs []float64, workers int) float64 {
	if workers <= 0 {
		workers = 1
	}
	if workers > len(costs) {
		workers = len(costs)
	}
	if workers == 0 {
		return 0
	}
	sorted := make([]float64, len(costs))
	copy(sorted, costs)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	load := make([]float64, workers)
	for _, c := range sorted {
		load[0] += c
		siftDownMin(load)
	}
	var mk float64
	for _, v := range load {
		if v > mk {
			mk = v
		}
	}
	return mk
}

// siftDownMin restores the min-heap property of h after h[0] grew.
func siftDownMin(h []float64) {
	n, i := len(h), 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && h[l] < h[min] {
			min = l
		}
		if r < n && h[r] < h[min] {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}
