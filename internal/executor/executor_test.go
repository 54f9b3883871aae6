package executor

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestPoolRunsAllJobs(t *testing.T) {
	p, err := NewPool(4)
	if err != nil {
		t.Fatal(err)
	}
	var count atomic.Int64
	jobs := make([]Job, 100)
	for i := range jobs {
		jobs[i] = func(ctx context.Context, rank int) error {
			count.Add(1)
			return nil
		}
	}
	if err := p.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if count.Load() != 100 {
		t.Fatalf("ran %d jobs", count.Load())
	}
}

func TestPoolBoundedParallelism(t *testing.T) {
	const workers = 3
	p, err := NewPool(workers)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	cur, max := 0, 0
	jobs := make([]Job, 50)
	for i := range jobs {
		jobs[i] = func(ctx context.Context, rank int) error {
			mu.Lock()
			cur++
			if cur > max {
				max = cur
			}
			mu.Unlock()
			time.Sleep(time.Millisecond)
			mu.Lock()
			cur--
			mu.Unlock()
			return nil
		}
	}
	if err := p.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if max > workers {
		t.Fatalf("observed %d concurrent jobs, limit %d", max, workers)
	}
}

// TestPoolErrorCancels pins the error contract without racing the feeder:
// the failing job's error is returned, jobs that had not started when it
// failed see a cancelled context, and Run returns only after every worker
// has. Both workers are pinned — job 0 runs until the pool cancels it, job
// 1 fails — so no later job can start before the failure.
func TestPoolErrorCancels(t *testing.T) {
	p, err := NewPool(2)
	if err != nil {
		t.Fatal(err)
	}
	wantErr := errors.New("boom")
	var joined, startedLive atomic.Int64
	jobs := make([]Job, 16)
	jobs[0] = func(ctx context.Context, rank int) error {
		select {
		case <-ctx.Done():
		case <-time.After(10 * time.Second):
			t.Error("job in flight was never cancelled after another job failed")
		}
		runtime.Gosched()
		joined.Add(1)
		return nil
	}
	jobs[1] = func(ctx context.Context, rank int) error { return wantErr }
	for i := 2; i < len(jobs); i++ {
		jobs[i] = func(ctx context.Context, rank int) error {
			if ctx.Err() == nil {
				startedLive.Add(1)
			}
			return nil
		}
	}
	err = p.Run(context.Background(), jobs)
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want the failing job's error", err)
	}
	if joined.Load() != 1 {
		t.Error("Run returned before the in-flight job's worker had")
	}
	if n := startedLive.Load(); n != 0 {
		t.Errorf("%d job(s) started with a live context after the failure", n)
	}
}

func TestPoolContextCancel(t *testing.T) {
	p, err := NewPool(2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int64
	jobs := make([]Job, 1000)
	for i := range jobs {
		jobs[i] = func(ctx context.Context, rank int) error {
			if ran.Add(1) == 5 {
				cancel()
			}
			return nil
		}
	}
	err = p.Run(ctx, jobs)
	if err == nil {
		t.Fatal("want context error")
	}
	if ran.Load() == 1000 {
		t.Error("cancel should stop the pool")
	}
}

func TestPoolRankRange(t *testing.T) {
	p, err := NewPool(5)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	ranks := map[int]bool{}
	jobs := make([]Job, 100)
	for i := range jobs {
		jobs[i] = func(ctx context.Context, rank int) error {
			mu.Lock()
			ranks[rank] = true
			mu.Unlock()
			return nil
		}
	}
	if err := p.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	for r := range ranks {
		if r < 0 || r >= 5 {
			t.Fatalf("rank %d out of range", r)
		}
	}
}

func TestNewPoolRejectsZero(t *testing.T) {
	if _, err := NewPool(0); err == nil {
		t.Fatal("want error")
	}
}

func TestEmptyJobs(t *testing.T) {
	p, _ := NewPool(2)
	if err := p.Run(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
}

func TestMap(t *testing.T) {
	out, err := Map(context.Background(), 4, 10, func(ctx context.Context, i int) (int, error) {
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	_, err = Map(context.Background(), 4, 10, func(ctx context.Context, i int) (int, error) {
		if i == 7 {
			return 0, errors.New("nope")
		}
		return 0, nil
	})
	if err == nil {
		t.Fatal("want error")
	}
}

func TestMakespanBasics(t *testing.T) {
	if m := Makespan(nil, 4); m != 0 {
		t.Fatalf("empty makespan = %v", m)
	}
	if m := Makespan([]float64{5}, 10); m != 5 {
		t.Fatalf("single job = %v", m)
	}
	// 4 equal jobs on 2 workers → 2 each.
	if m := Makespan([]float64{1, 1, 1, 1}, 2); m != 2 {
		t.Fatalf("makespan = %v", m)
	}
	// One dominant job bounds the makespan.
	if m := Makespan([]float64{10, 1, 1, 1}, 4); m != 10 {
		t.Fatalf("makespan = %v", m)
	}
}

// Properties: makespan ≥ max(cost), ≥ sum/workers, ≤ sum.
func TestMakespanBoundsQuick(t *testing.T) {
	f := func(raw []uint16, w uint8) bool {
		if len(raw) == 0 {
			return true
		}
		workers := int(w)%16 + 1
		costs := make([]float64, len(raw))
		var sum, max float64
		for i, r := range raw {
			costs[i] = float64(r) / 100
			sum += costs[i]
			if costs[i] > max {
				max = costs[i]
			}
		}
		m := Makespan(costs, workers)
		lower := math.Max(max, sum/float64(workers))
		return m >= lower-1e-9 && m <= sum+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
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

func TestStreamMapDeliversAll(t *testing.T) {
	in := make(chan int)
	go func() {
		defer close(in)
		for i := 0; i < 50; i++ {
			in <- i
		}
	}()
	out, wait := StreamMap(context.Background(), 4, 2, in,
		func(ctx context.Context, v int) (int, error) { return v * v, nil })
	var sum int
	for v := range out {
		sum += v
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 0; i < 50; i++ {
		want += i * i
	}
	if sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
}

func TestStreamMapErrorAborts(t *testing.T) {
	boom := errors.New("boom")
	ctx := context.Background()
	in := make(chan int)
	go func() {
		defer close(in)
		for i := 0; i < 1000; i++ {
			select {
			case in <- i:
			case <-time.After(5 * time.Second):
				return
			}
		}
	}()
	out, wait := StreamMap(ctx, 2, 0, in, func(ctx context.Context, v int) (int, error) {
		if v == 3 {
			return 0, boom
		}
		return v, nil
	})
	for range out {
	}
	if err := wait(); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

func TestStreamMapParentCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	in := make(chan int) // never fed, never closed
	out, wait := StreamMap(ctx, 2, 0, in,
		func(ctx context.Context, v int) (int, error) { return v, nil })
	cancel()
	for range out {
	}
	if err := wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
