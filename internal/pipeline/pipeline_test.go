package pipeline

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestStageMapsAllItems(t *testing.T) {
	g := NewGroup(context.Background())
	in := Emit(g, 0, []int{1, 2, 3, 4, 5, 6, 7, 8})
	out := Stage(g, Config{Name: "double", Workers: 3, Buffer: 2}, in,
		func(ctx context.Context, v int) (int, error) { return v * 2, nil })
	got := Collect(g, out)
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 8 {
		t.Fatalf("got %d items, want 8", len(*got))
	}
	sort.Ints(*got)
	for i, v := range *got {
		if v != 2*(i+1) {
			t.Fatalf("item %d = %d", i, v)
		}
	}
}

func TestChainedStages(t *testing.T) {
	g := NewGroup(context.Background())
	n := 32
	items := make([]int, n)
	for i := range items {
		items[i] = i
	}
	a := Stage(g, Config{Name: "a", Workers: 4}, Emit(g, 4, items),
		func(ctx context.Context, v int) (int, error) { return v + 1, nil })
	b := Stage(g, Config{Name: "b", Workers: 2}, a,
		func(ctx context.Context, v int) (int, error) { return v * 10, nil })
	got := Collect(g, b)
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(*got) != n {
		t.Fatalf("got %d items, want %d", len(*got), n)
	}
	var sum int
	for _, v := range *got {
		sum += v
	}
	want := 10 * n * (n + 1) / 2
	if sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
}

func TestErrorCancelsPipeline(t *testing.T) {
	g := NewGroup(context.Background())
	boom := errors.New("boom")
	items := make([]int, 1000)
	for i := range items {
		items[i] = i
	}
	in := Emit(g, 0, items)
	out := Stage(g, Config{Name: "fail", Workers: 2}, in,
		func(ctx context.Context, v int) (int, error) {
			if v == 5 {
				return 0, boom
			}
			return v, nil
		})
	_ = Collect(g, out)
	err := g.Wait()
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

func TestDownstreamErrorUnblocksUpstream(t *testing.T) {
	g := NewGroup(context.Background())
	boom := errors.New("sink failure")
	items := make([]int, 500)
	in := Emit(g, 0, items)
	mid := Stage(g, Config{Name: "pass", Workers: 1}, in,
		func(ctx context.Context, v int) (int, error) { return v, nil })
	out := Stage(g, Config{Name: "sink", Workers: 1}, mid,
		func(ctx context.Context, v int) (int, error) { return 0, boom })
	_ = Collect(g, out)
	done := make(chan error, 1)
	go func() { done <- g.Wait() }()
	select {
	case err := <-done:
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v, want %v", err, boom)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pipeline deadlocked after downstream error")
	}
}

func TestParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := NewGroup(ctx)
	items := make([]int, 100)
	started := make(chan struct{}, 1)
	in := Emit(g, 0, items)
	out := Stage(g, Config{Name: "slow", Workers: 1}, in,
		func(ctx context.Context, v int) (int, error) {
			select {
			case started <- struct{}{}:
			default:
			}
			select {
			case <-ctx.Done():
				return 0, ctx.Err()
			case <-time.After(10 * time.Second):
				return v, nil
			}
		})
	_ = Collect(g, out)
	<-started
	cancel()
	if err := g.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestStageErrorCancelsInFlightWorker pins the error contract without
// racing the feeder: both workers are pinned — item 0 runs until the stage
// cancels it, item 1 fails — so no later item can start before the
// failure. The failing item's error wins, later items never start with a
// live context, and Wait returns only after the in-flight worker has.
func TestStageErrorCancelsInFlightWorker(t *testing.T) {
	g := NewGroup(context.Background())
	boom := errors.New("boom")
	items := make([]int, 16)
	for i := range items {
		items[i] = i
	}
	var joined, startedLive atomic.Int64
	out := Stage(g, Config{Name: "pinned", Workers: 2}, Emit(g, 0, items),
		func(ctx context.Context, v int) (int, error) {
			switch v {
			case 0:
				select {
				case <-ctx.Done():
				case <-time.After(10 * time.Second):
					t.Error("item in flight was never cancelled after another item failed")
				}
				joined.Add(1)
			case 1:
				return 0, boom
			default:
				if ctx.Err() == nil {
					startedLive.Add(1)
				}
			}
			return v, nil
		})
	_ = Collect(g, out)
	if err := g.Wait(); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the failing item's error", err)
	}
	if joined.Load() != 1 {
		t.Error("Wait returned before the in-flight item's worker had")
	}
	if n := startedLive.Load(); n != 0 {
		t.Errorf("%d item(s) started with a live context after the failure", n)
	}
}

// TestStageUnwindsOnCancelWithIdleInput: a stage whose input is never fed
// nor closed still exits, and reports the cancellation, when the parent
// context ends.
func TestStageUnwindsOnCancelWithIdleInput(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := NewGroup(ctx)
	in := make(chan int)
	_ = Collect(g, Stage(g, Config{Name: "idle", Workers: 2}, in,
		func(ctx context.Context, v int) (int, error) { return v, nil }))
	cancel()
	if err := g.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestStageBoundedParallelism: no more than cfg.Workers calls of fn are
// ever in flight at once.
func TestStageBoundedParallelism(t *testing.T) {
	const workers = 3
	g := NewGroup(context.Background())
	var mu sync.Mutex
	cur, peak := 0, 0
	out := Stage(g, Config{Name: "bounded", Workers: workers}, Emit(g, 0, make([]int, 50)),
		func(ctx context.Context, v int) (int, error) {
			mu.Lock()
			cur++
			if cur > peak {
				peak = cur
			}
			mu.Unlock()
			time.Sleep(time.Millisecond)
			mu.Lock()
			cur--
			mu.Unlock()
			return v, nil
		})
	got := Collect(g, out)
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 50 {
		t.Fatalf("got %d items, want 50", len(*got))
	}
	if peak > workers {
		t.Fatalf("observed %d concurrent calls, limit %d", peak, workers)
	}
}

// TestStageEmptyInput: an input closed before any item arrives closes the
// output cleanly, with no call of fn and no error.
func TestStageEmptyInput(t *testing.T) {
	g := NewGroup(context.Background())
	in := make(chan int)
	close(in)
	got := Collect(g, Stage(g, Config{Name: "empty", Workers: 4}, in,
		func(ctx context.Context, v int) (int, error) {
			t.Error("fn called on an empty input")
			return v, nil
		}))
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 0 {
		t.Fatalf("got %d items from an empty input", len(*got))
	}
	if s := g.Stats()[0]; s.Items != 0 {
		t.Fatalf("stage counted %d items", s.Items)
	}
}

// TestStageCancelStopsTakingInput: once the parent context ends mid-stream,
// workers stop pulling items and Wait reports the cancellation.
func TestStageCancelStopsTakingInput(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g := NewGroup(ctx)
	var calls atomic.Int64
	_ = Collect(g, Stage(g, Config{Name: "cancel", Workers: 2}, Emit(g, 0, make([]int, 1000)),
		func(ctx context.Context, v int) (int, error) {
			if calls.Add(1) == 5 {
				cancel()
			}
			return v, nil
		}))
	if err := g.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls.Load() == 1000 {
		t.Error("cancellation did not stop the stage taking input")
	}
}

// TestStageStreamsBeforeInputCloses: a result is delivered as soon as its
// item is done, not held until the input is exhausted.
func TestStageStreamsBeforeInputCloses(t *testing.T) {
	g := NewGroup(context.Background())
	in := make(chan int)
	out := Stage(g, Config{Name: "stream", Workers: 2}, in,
		func(ctx context.Context, v int) (int, error) { return v + 1, nil })
	in <- 41
	select {
	case v := <-out:
		if v != 42 {
			t.Fatalf("got %d, want 42", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("result held back while the input was still open")
	}
	close(in)
	for range out {
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestReducePacksAndFlushes(t *testing.T) {
	g := NewGroup(context.Background())
	items := make([]int, 10)
	for i := range items {
		items[i] = i
	}
	in := Emit(g, 0, items)
	var cur []int
	out := Reduce(g, Config{Name: "pack", Buffer: 1}, in,
		func(ctx context.Context, v int, emit func([]int) error) error {
			cur = append(cur, v)
			if len(cur) == 3 {
				grp := cur
				cur = nil
				return emit(grp)
			}
			return nil
		},
		func(ctx context.Context, emit func([]int) error) error {
			if len(cur) == 0 {
				return nil
			}
			grp := cur
			cur = nil
			return emit(grp)
		})
	got := Collect(g, out)
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 4 {
		t.Fatalf("groups = %d, want 4 (3+3+3+1)", len(*got))
	}
	var total int
	for _, grp := range *got {
		total += len(grp)
	}
	if total != 10 {
		t.Fatalf("total packed = %d, want 10", total)
	}
	if len((*got)[3]) != 1 {
		t.Fatalf("flush group size = %d, want 1", len((*got)[3]))
	}
}

func TestStatsAndOverlap(t *testing.T) {
	g := NewGroup(context.Background())
	items := make([]int, 8)
	in := Emit(g, 0, items)
	const delay = 10 * time.Millisecond
	a := Stage(g, Config{Name: "a", Workers: 1}, in,
		func(ctx context.Context, v int) (int, error) { time.Sleep(delay); return v, nil })
	b := Stage(g, Config{Name: "b", Workers: 1, Buffer: 2}, a,
		func(ctx context.Context, v int) (int, error) { time.Sleep(delay); return v, nil })
	_ = Collect(g, b)
	start := time.Now()
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start).Seconds()
	stats := g.Stats()
	if len(stats) != 2 {
		t.Fatalf("stages = %d, want 2", len(stats))
	}
	for _, s := range stats {
		if s.Items != 8 {
			t.Errorf("stage %s items = %d, want 8", s.Name, s.Items)
		}
		if s.BusySec <= 0 || s.WallSec <= 0 {
			t.Errorf("stage %s has empty timing: %+v", s.Name, s)
		}
	}
	// Two 1-worker stages, 8 items, 10ms each: serial = 160ms, pipelined
	// wall ≈ 90ms. Even heavily loaded CI should see wall below the serial
	// sum of the two stages' busy time.
	serial := stats[0].BusySec + stats[1].BusySec
	if wall >= serial {
		t.Errorf("no overlap: wall %.3fs >= serial %.3fs", wall, serial)
	}
	if ov := Overlap(stats); ov <= 0 {
		t.Errorf("Overlap = %.3fs, want > 0", ov)
	}
}

func TestOverlapEmptyAndSerial(t *testing.T) {
	if Overlap(nil) != 0 {
		t.Fatal("Overlap(nil) != 0")
	}
	t0 := time.Unix(0, 0)
	serial := []StageStats{
		{Name: "a", Items: 1, WallSec: 1, FirstStart: t0, LastEnd: t0.Add(time.Second)},
		{Name: "b", Items: 1, WallSec: 1, FirstStart: t0.Add(time.Second), LastEnd: t0.Add(2 * time.Second)},
	}
	if ov := Overlap(serial); ov != 0 {
		t.Fatalf("serial overlap = %g, want 0", ov)
	}
	overlapped := []StageStats{
		{Name: "a", Items: 1, WallSec: 2, FirstStart: t0, LastEnd: t0.Add(2 * time.Second)},
		{Name: "b", Items: 1, WallSec: 2, FirstStart: t0.Add(time.Second), LastEnd: t0.Add(3 * time.Second)},
	}
	if ov := Overlap(overlapped); ov < 0.99 || ov > 1.01 {
		t.Fatalf("overlap = %g, want ≈1", ov)
	}
}

func TestEmitRespectsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := NewGroup(ctx)
	items := make([]int, 1<<20)
	_ = Emit(g, 0, items) // nobody reads; must unwind on cancel
	cancel()
	done := make(chan struct{})
	go func() { g.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Emit leaked after cancellation")
	}
}

func TestStageDefaultsAndCounts(t *testing.T) {
	g := NewGroup(context.Background())
	var calls atomic.Int64
	in := Emit(g, -1, []int{1, 2, 3})
	out := Stage(g, Config{}, in, func(ctx context.Context, v int) (int, error) {
		calls.Add(1)
		return v, nil
	})
	got := Collect(g, out)
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 3 || len(*got) != 3 {
		t.Fatalf("calls = %d, got = %d", calls.Load(), len(*got))
	}
	s := g.Stats()[0]
	if s.Name != "stage" || s.Workers != 1 {
		t.Fatalf("defaults not applied: %+v", s)
	}
}

// TestReduceSkipsFlushAfterUpstreamError: a failed upstream stage must not
// look like clean input exhaustion — the packer's flush would otherwise run
// on partial state and emit garbage downstream.
func TestReduceSkipsFlushAfterUpstreamError(t *testing.T) {
	g := NewGroup(context.Background())
	boom := errors.New("boom")
	items := make([]int, 50)
	in := Emit(g, 0, items)
	mid := Stage(g, Config{Name: "fail", Workers: 2}, in,
		func(ctx context.Context, v int) (int, error) { return 0, boom })
	var flushed atomic.Bool
	out := Reduce(g, Config{Name: "pack"}, mid,
		func(ctx context.Context, v int, emit func(int) error) error { return nil },
		func(ctx context.Context, emit func(int) error) error {
			flushed.Store(true)
			return emit(-1)
		})
	got := Collect(g, out)
	if err := g.Wait(); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v (root cause must not be masked)", err, boom)
	}
	if flushed.Load() {
		t.Error("flush ran after upstream failure")
	}
	if len(*got) != 0 {
		t.Errorf("reduce emitted %d items after upstream failure", len(*got))
	}
}
