package sim

import (
	"math"
	"math/rand"
	"testing"
)

func TestEventOrdering(t *testing.T) {
	c := NewClock()
	var order []int
	c.After(3, func() { order = append(order, 3) })
	c.After(1, func() { order = append(order, 1) })
	c.After(2, func() { order = append(order, 2) })
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if c.Now() != 3 {
		t.Fatalf("final time = %v", c.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	c := NewClock()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		c.After(1, func() { order = append(order, i) })
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break not FIFO: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	c := NewClock()
	var times []float64
	c.After(1, func() {
		times = append(times, c.Now())
		c.After(2, func() {
			times = append(times, c.Now())
		})
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if len(times) != 2 || times[0] != 1 || times[1] != 3 {
		t.Fatalf("times = %v", times)
	}
}

func TestPastEventRejected(t *testing.T) {
	c := NewClock()
	c.After(5, func() {
		if err := c.At(1, func() {}); err == nil {
			t.Error("want error scheduling in the past")
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeAfterClamped(t *testing.T) {
	c := NewClock()
	ran := false
	c.After(-10, func() { ran = true })
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran || c.Now() != 0 {
		t.Fatalf("ran=%v now=%v", ran, c.Now())
	}
}

func TestBudgetExhaustion(t *testing.T) {
	c := NewClock()
	c.budget = 100
	var loop func()
	loop = func() { c.After(1, loop) }
	loop()
	if err := c.Run(); err == nil {
		t.Fatal("want budget error")
	}
}

func TestPending(t *testing.T) {
	c := NewClock()
	if c.Pending() != 0 {
		t.Fatal("fresh clock has pending events")
	}
	c.After(1, func() {})
	c.After(2, func() {})
	if c.Pending() != 2 {
		t.Fatalf("pending = %d", c.Pending())
	}
}

func TestMakespanBasics(t *testing.T) {
	cases := []struct {
		costs   []float64
		workers int
		want    float64
	}{
		{nil, 4, 0},
		{[]float64{5}, 10, 5},
		{[]float64{1, 1, 1, 1}, 2, 2},
		{[]float64{10, 1, 1, 1}, 4, 10},
		{[]float64{3, 3, 2, 2, 2}, 2, 7}, // LPT's classic miss: OPT is 6
		{[]float64{2, 3}, 0, 5},          // ≤ 0 workers means one
	}
	for _, c := range cases {
		if got := Makespan(c.costs, c.workers); got != c.want {
			t.Errorf("Makespan(%v, %d) = %v, want %v", c.costs, c.workers, got, c.want)
		}
	}
}

func TestMakespanMoreWorkersNeverSlower(t *testing.T) {
	costs := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}
	prev := math.Inf(1)
	for _, w := range []int{1, 2, 4, 8, 16} {
		m := Makespan(costs, w)
		if m > prev+1e-9 {
			t.Fatalf("makespan grew with workers: %v -> %v at %d", prev, m, w)
		}
		prev = m
	}
}

// TestMakespanOneWorkerIsSum: a single worker runs every cost back to back.
func TestMakespanOneWorkerIsSum(t *testing.T) {
	costs := []float64{7, 2, 9, 4, 4, 1}
	if got := Makespan(costs, 1); got != 27 {
		t.Fatalf("Makespan(%v, 1) = %v, want 27", costs, got)
	}
}

// TestMakespanLeavesCostsUntouched: sorting largest-first works on a copy,
// so a caller's inventory keeps its order.
func TestMakespanLeavesCostsUntouched(t *testing.T) {
	costs := []float64{1, 5, 2, 8, 3}
	want := append([]float64(nil), costs...)
	Makespan(costs, 2)
	for i := range costs {
		if costs[i] != want[i] {
			t.Fatalf("costs reordered to %v, want %v", costs, want)
		}
	}
}

// TestMakespanBounds: on random inventories the LPT makespan is at least
// the largest cost and the average load, and for n ≤ 8 it lies between
// the brute-force optimum and Graham's (4/3 − 1/(3m))·OPT.
func TestMakespanBounds(t *testing.T) {
	const tol = 1e-9
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(12)
		m := 1 + rng.Intn(5)
		costs := make([]float64, n)
		var sum, max float64
		for i := range costs {
			costs[i] = rng.Float64() * 100
			sum += costs[i]
			max = math.Max(max, costs[i])
		}
		got := Makespan(costs, m)
		if got < max-tol || got < sum/float64(m)-tol || got > sum+tol {
			t.Fatalf("Makespan(%v, %d) = %v outside [max %v, sum/m %v] .. sum %v", costs, m, got, max, sum/float64(m), sum)
		}
		if n > 8 {
			continue
		}
		opt := bruteForceMakespan(costs, m)
		graham := (4.0/3 - 1/(3*float64(m))) * opt
		if got < opt-tol || got > graham+tol {
			t.Fatalf("Makespan(%v, %d) = %v outside [OPT %v, Graham %v]", costs, m, got, opt, graham)
		}
	}
}

// bruteForceMakespan is the optimal makespan by exhaustive assignment,
// trying only the first of several empty workers.
func bruteForceMakespan(costs []float64, workers int) float64 {
	load := make([]float64, workers)
	best := math.Inf(1)
	var assign func(i int, cur float64)
	assign = func(i int, cur float64) {
		if cur >= best {
			return
		}
		if i == len(costs) {
			best = cur
			return
		}
		for w, prev := range load {
			load[w] = prev + costs[i]
			assign(i+1, math.Max(cur, load[w]))
			load[w] = prev
			if prev == 0 {
				break
			}
		}
	}
	assign(0, 0)
	return best
}
