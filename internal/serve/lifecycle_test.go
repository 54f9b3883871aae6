package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"ocelot/internal/core"
	"ocelot/internal/obs"
)

// gatedWeightLog counts the fair-share weight each send carries and holds
// every send until open is closed (or its context ends).
type gatedWeightLog struct {
	open  chan struct{}
	mu    sync.Mutex
	sends map[float64]int
}

func (*gatedWeightLog) Name() string { return "gated-weight-log" }

func (g *gatedWeightLog) Send(ctx context.Context, name string, data []byte) (float64, error) {
	return g.SendWeighted(ctx, name, data, 0)
}

func (g *gatedWeightLog) SendWeighted(ctx context.Context, _ string, _ []byte, weight float64) (float64, error) {
	g.mu.Lock()
	g.sends[weight]++
	g.mu.Unlock()
	select {
	case <-g.open:
		return 0, nil
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

// waitBooks waits until the scheduler's books show the given queued and
// running counts. A settled job gives its slot back just after its Done
// channel closes, so the books lag Done by one lock hand-off; the timeout
// only guards against a leak that never drains.
func waitBooks(t *testing.T, s *Scheduler, queued, running int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		s.mu.Lock()
		q, r := s.queued, s.running
		s.mu.Unlock()
		if q == queued && r == running {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("scheduler books at %d queued / %d running, want %d / %d", q, r, queued, running)
		}
		time.Sleep(time.Millisecond)
	}
}

// A job cancelled while it waits behind a gated blocker settles canceled
// without running: no handle snapshot in its status, no send on the link,
// and its queue slot — the only one — admits a fresh submission once it
// settles.
func TestCancelQueuedJob(t *testing.T) {
	link := &gatedWeightLog{open: make(chan struct{}), sends: map[float64]int{}}
	sched := NewScheduler(Config{
		Transport:  link,
		Tenants:    map[string]TenantConfig{"blocker": {Weight: 1}, "victim": {Weight: 3}},
		MaxRunning: 1,
		QueueDepth: 1,
	})
	defer sched.Close()
	spec := core.CampaignSpec{RelErrorBound: 1e-3, Workers: 1, GroupParam: 1}
	submit := func(tenant string) (*Job, error) {
		return sched.Submit(Request{Tenant: tenant, Fields: testFields(t, 1), Spec: spec})
	}

	blocker, err := submit("blocker")
	if err != nil {
		t.Fatal(err)
	}
	victim, err := submit("victim")
	if err != nil {
		t.Fatal(err)
	}
	if st := victim.Status().State; st != "queued" {
		t.Fatalf("victim is %q behind the blocker, want queued", st)
	}
	if _, err := submit("blocker"); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit into a full queue: %v, want ErrQueueFull", err)
	}

	victim.Cancel()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := victim.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled queued job: %v, want context.Canceled", err)
	}
	st := victim.Status()
	if st.State != "canceled" || !st.Terminal || st.Campaign != nil || st.Error != context.Canceled.Error() {
		t.Fatalf("cancelled queued job status %+v, want terminal canceled with no campaign", st)
	}

	waitBooks(t, sched, 0, 1)
	fresh, err := submit("blocker")
	if err != nil {
		t.Fatalf("submit into the freed slot: %v", err)
	}
	close(link.open)
	for _, j := range []*Job{blocker, fresh} {
		if _, err := j.Wait(ctx); err != nil {
			t.Fatalf("job %s: %v", j.ID(), err)
		}
	}
	link.mu.Lock()
	defer link.mu.Unlock()
	if n := link.sends[3]; n != 0 {
		t.Fatalf("cancelled queued job put %d sends on the link", n)
	}
	if link.sends[1] == 0 {
		t.Fatal("blocker and fresh job sent nothing; the victim check above is vacuous")
	}
}

// Cancels from many goroutines race the dispatcher admitting the same
// jobs. Every job must end terminal, every tenant's active gauge must
// return to zero, and the scheduler must then accept a full queue of
// fresh submissions. Meant for -race.
func TestCancelRacesAdmission(t *testing.T) {
	const (
		tenants = 3 // coprime with the four cancel modes, so each tenant sees all of them
		jobs    = 48
		depth   = jobs
	)
	sched := NewScheduler(Config{MaxRunning: 2, QueueDepth: depth})
	defer sched.Close()
	spec := core.CampaignSpec{RelErrorBound: 1e-3, Workers: 1, GroupParam: 1}
	fields := testFields(t, 1)
	tenant := func(i int) string { return fmt.Sprintf("t%d", i%tenants) }

	var wg sync.WaitGroup
	all := make([]*Job, 0, jobs)
	for i := 0; i < jobs; i++ {
		j, err := sched.Submit(Request{Tenant: tenant(i), Priority: i % 5, Fields: fields, Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, j)
		mode := i % 4
		if mode == 3 {
			continue // runs to completion
		}
		wg.Add(1)
		go func(j *Job) {
			defer wg.Done()
			switch mode {
			case 1: // somewhere around admission
				time.Sleep(time.Duration(i%3) * 300 * time.Microsecond)
			case 2: // just after admission, while it runs
				for j.Status().State == "queued" {
					runtime.Gosched()
				}
			}
			j.Cancel()
		}(j)
	}
	wg.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, j := range all {
		select {
		case <-j.Done():
		case <-ctx.Done():
			t.Fatalf("job %s never settled (status %+v)", j.ID(), j.Status())
		}
		if st := j.Status(); !st.Terminal {
			t.Fatalf("job %s settled in non-terminal state %q", j.ID(), st.State)
		}
	}
	waitBooks(t, sched, 0, 0)
	for i := 0; i < tenants; i++ {
		if n := sched.Metrics().Gauge("serve_active_campaigns", obs.L("tenant", tenant(i))).Value(); n != 0 {
			t.Errorf("serve_active_campaigns{tenant=%q} = %d after every job settled, want 0", tenant(i), n)
		}
	}
	for i := 0; i < depth; i++ {
		if _, err := sched.Submit(Request{Tenant: tenant(i), Fields: fields, Spec: spec}); err != nil {
			t.Fatalf("fresh submit %d of %d: %v", i+1, depth, err)
		}
	}
}
