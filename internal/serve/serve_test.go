package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ocelot/internal/core"
	"ocelot/internal/datagen"
	"ocelot/internal/wan"
)

// testFields synthesizes a small dataset quickly.
func testFields(t *testing.T, n int) []*datagen.Field {
	t.Helper()
	fields, err := datagen.GenerateFirst("CESM", n, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	return fields
}

func postJSON(t *testing.T, url string, body interface{}) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeStatus(t *testing.T, resp *http.Response) JobStatus {
	t.Helper()
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// The daemon round trip: submit over HTTP, watch the NDJSON stream to
// completion, and read the terminal status back.
func TestServeSubmitWatchComplete(t *testing.T) {
	srv := NewServer(Config{
		Transport: &core.SimulatedWANTransport{
			Link:      &wan.Link{BandwidthMBps: 500, Concurrency: 4},
			Timescale: 1e-3,
		},
	})
	srv.WatchInterval = 10 * time.Millisecond
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/campaigns", SubmitRequest{
		Tenant: "climate", Fields: 2, Shrink: 64, Seed: 1,
		Spec: SpecRequest{RelErrorBound: 1e-3, Workers: 2, Groups: 2},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	st := decodeStatus(t, resp)
	if st.ID == "" || st.Tenant != "climate" {
		t.Fatalf("submit returned %+v", st)
	}

	// Watch until terminal.
	wresp, err := http.Get(ts.URL + "/v1/campaigns/" + st.ID + "/watch")
	if err != nil {
		t.Fatal(err)
	}
	defer wresp.Body.Close()
	if ct := wresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("watch content type %q", ct)
	}
	var last JobStatus
	snapshots := 0
	sc := bufio.NewScanner(wresp.Body)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad watch line %q: %v", sc.Text(), err)
		}
		snapshots++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if snapshots == 0 || !last.Terminal || last.State != "done" {
		t.Fatalf("watch ended after %d snapshots in state %q (terminal=%v, err=%q)",
			snapshots, last.State, last.Terminal, last.Error)
	}
	if last.Campaign == nil || last.Campaign.SentGroups == 0 {
		t.Fatalf("terminal watch snapshot has no campaign progress: %+v", last.Campaign)
	}

	// Status and list agree.
	gresp, err := http.Get(ts.URL + "/v1/campaigns/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := decodeStatus(t, gresp); got.State != "done" {
		t.Fatalf("status after watch = %q", got.State)
	}
	lresp, err := http.Get(ts.URL + "/v1/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	var list []JobStatus
	if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("list = %+v", list)
	}
}

// parkLink parks every send until its context ends, so a campaign on it
// can only terminate through cancellation reaching the in-flight send.
type parkLink struct {
	parked   chan struct{} // receives a token as sends reach the link
	inflight atomic.Int64  // sends parked right now
}

func (*parkLink) Name() string { return "park" }

func (p *parkLink) Send(ctx context.Context, _ string, _ []byte) (float64, error) {
	p.inflight.Add(1)
	defer p.inflight.Add(-1)
	select {
	case p.parked <- struct{}{}:
	default:
	}
	<-ctx.Done()
	return 0, ctx.Err()
}

// Cancelling over HTTP mid-stage unwinds the campaign: its sends park on
// the link until their context ends, so reaching the terminal canceled
// state at all proves the cancel reached the in-flight send through the
// whole daemon stack. The timeout only guards against a hang.
func TestServeCancelMidStage(t *testing.T) {
	link := &parkLink{parked: make(chan struct{}, 1)}
	srv := NewServer(Config{Transport: link})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/campaigns", SubmitRequest{
		Tenant: "climate", Fields: 2, Shrink: 64, Seed: 1,
		Spec: SpecRequest{RelErrorBound: 1e-3, Workers: 2, Groups: 2},
	})
	st := decodeStatus(t, resp)
	job, err := srv.Scheduler().Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}

	hang := time.After(30 * time.Second)
	select {
	case <-link.parked:
	case <-hang:
		t.Fatal("no send reached the link")
	}
	cresp := postJSON(t, ts.URL+"/v1/campaigns/"+st.ID+"/cancel", nil)
	if cresp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel status %d", cresp.StatusCode)
	}
	cresp.Body.Close()

	select {
	case <-job.Done():
	case <-hang:
		t.Fatal("cancelled campaign never settled")
	}
	if _, err := job.Result(); err == nil {
		t.Fatal("cancelled campaign completed without error")
	}
	if got := job.Status(); got.State != "canceled" {
		t.Fatalf("terminal state %q, want canceled", got.State)
	}
	if n := link.inflight.Load(); n != 0 {
		t.Fatalf("%d sends still parked after the campaign settled", n)
	}
}

// A full admission queue answers 429, the backpressure contract.
func TestServeQueueBackpressure(t *testing.T) {
	srv := NewServer(Config{
		Transport: &core.SimulatedWANTransport{
			Link:      &wan.Link{BandwidthMBps: 0.01, Concurrency: 1},
			Timescale: 1,
		},
		MaxRunning: 1,
		QueueDepth: 1,
	})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	req := SubmitRequest{
		Tenant: "t", Fields: 1, Shrink: 64, Seed: 1,
		Spec: SpecRequest{RelErrorBound: 1e-3, Workers: 1, Groups: 1},
	}
	codes := make([]int, 3)
	for i := range codes {
		resp := postJSON(t, ts.URL+"/v1/campaigns", req)
		codes[i] = resp.StatusCode
		resp.Body.Close()
	}
	if codes[0] != http.StatusAccepted || codes[1] != http.StatusAccepted {
		t.Fatalf("first two submits = %v, want 202s", codes[:2])
	}
	if codes[2] != http.StatusTooManyRequests {
		t.Fatalf("third submit = %d, want 429", codes[2])
	}
}

// Unknown campaign IDs and malformed submissions get clean JSON errors.
func TestServeErrorPaths(t *testing.T) {
	srv := NewServer(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if resp, err := http.Get(ts.URL + "/v1/campaigns/c-404"); err != nil {
		t.Fatal(err)
	} else {
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown ID status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
	for name, req := range map[string]SubmitRequest{
		"no bound":      {Tenant: "t", Spec: SpecRequest{}},
		"bad codec":     {Tenant: "t", Spec: SpecRequest{RelErrorBound: 1e-3, Codec: "nope"}},
		"bad predictor": {Tenant: "t", Spec: SpecRequest{RelErrorBound: 1e-3, Predictor: "psychic"}},
		"bad app":       {Tenant: "t", App: "NOPE", Spec: SpecRequest{RelErrorBound: 1e-3}},
		"adaptive":      {Tenant: "t", Spec: SpecRequest{RelErrorBound: 1e-3, Adaptive: true}},
		"codec list":    {Tenant: "t", Spec: SpecRequest{RelErrorBound: 1e-3, Codec: "sz3,szx"}},
	} {
		resp := postJSON(t, ts.URL+"/v1/campaigns", req)
		var body httpError
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("%s: undecodable error body: %v", name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || body.Error == "" {
			t.Errorf("%s: status %d body %+v, want 400 with message", name, resp.StatusCode, body)
		}
	}
}

// Per-tenant MaxCampaigns keeps a tenant's second campaign queued while
// its first runs, even with global capacity to spare; cancelling the
// first admits the second.
func TestTenantQuotaAdmission(t *testing.T) {
	sched := NewScheduler(Config{
		Transport: &core.SimulatedWANTransport{
			Link:      &wan.Link{BandwidthMBps: 0.01, Concurrency: 4},
			Timescale: 1,
		},
		Tenants:    map[string]TenantConfig{"capped": {MaxCampaigns: 1}},
		MaxRunning: 4,
	})
	defer sched.Close()

	spec := core.CampaignSpec{RelErrorBound: 1e-3, Workers: 1, GroupParam: 1}
	first, err := sched.Submit(Request{Tenant: "capped", Fields: testFields(t, 1), Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	second, err := sched.Submit(Request{Tenant: "capped", Fields: testFields(t, 1), Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	// An uncapped tenant is admitted immediately alongside.
	other, err := sched.Submit(Request{Tenant: "free", Fields: testFields(t, 1), Spec: spec})
	if err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && other.Status().State == "queued" {
		time.Sleep(2 * time.Millisecond)
	}
	if st := other.Status().State; st == "queued" {
		t.Fatal("uncapped tenant stayed queued despite global capacity")
	}
	time.Sleep(50 * time.Millisecond)
	if st := second.Status().State; st != "queued" {
		t.Fatalf("capped tenant's second campaign is %q, want queued behind the quota", st)
	}

	first.Cancel()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := first.Wait(ctx); err == nil {
		t.Fatal("cancelled first campaign reported success")
	}
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && second.Status().State == "queued" {
		time.Sleep(2 * time.Millisecond)
	}
	if st := second.Status().State; st == "queued" {
		t.Fatal("second campaign not admitted after quota freed")
	}
}

// weightLog is a WeightedTransport that counts the fair-share weight each
// send carries. A send through plain Send counts under weight 0.
type weightLog struct {
	mu    sync.Mutex
	sends map[float64]int
}

func (*weightLog) Name() string { return "weight-log" }

func (w *weightLog) Send(ctx context.Context, name string, data []byte) (float64, error) {
	return w.SendWeighted(ctx, name, data, 0)
}

func (w *weightLog) SendWeighted(ctx context.Context, _ string, _ []byte, weight float64) (float64, error) {
	w.mu.Lock()
	w.sends[weight]++
	w.mu.Unlock()
	return 0, ctx.Err()
}

// The scheduler stamps each tenant's weight on its campaigns, so every
// send on a shared weighted link carries its tenant's share: tenants of
// weight 2 and 1, submitting at once, account for exactly their own
// campaigns' group sends under their own weight and nothing else.
func TestSchedulerStampsTenantWeight(t *testing.T) {
	weights := map[string]float64{"heavy": 2, "light": 1}
	tenants := map[string]TenantConfig{}
	for name, w := range weights {
		tenants[name] = TenantConfig{Weight: w}
	}
	link := &weightLog{sends: map[float64]int{}}
	sched := NewScheduler(Config{Transport: link, Tenants: tenants, MaxRunning: 4})
	defer sched.Close()

	var jobs []*Job
	for _, sub := range []struct {
		tenant string
		fields int
	}{{"heavy", 3}, {"light", 2}, {"heavy", 2}, {"light", 1}} {
		j, err := sched.Submit(Request{Tenant: sub.tenant, Fields: testFields(t, sub.fields),
			Spec: core.CampaignSpec{RelErrorBound: 1e-3, Workers: 1, GroupParam: int64(sub.fields)}})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	want := map[float64]int{}
	for _, j := range jobs {
		res, err := j.Wait(ctx)
		if err != nil {
			t.Fatalf("%s campaign %s: %v", j.Tenant(), j.ID(), err)
		}
		want[weights[j.Tenant()]] += res.Groups
	}
	link.mu.Lock()
	defer link.mu.Unlock()
	if len(link.sends) != len(want) || link.sends[2] != want[2] || link.sends[1] != want[1] {
		t.Fatalf("sends by weight %v, want %v (weight-2 tenant's groups at 2, weight-1 tenant's at 1)", link.sends, want)
	}
}

// gateLink holds every send until open is closed, so a campaign cannot
// finish before the test lets it.
type gateLink struct{ open chan struct{} }

func (gateLink) Name() string { return "gate" }

func (g gateLink) Send(ctx context.Context, _ string, _ []byte) (float64, error) {
	select {
	case <-g.open:
		return 0, nil
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

// Priorities order a tenant's own queue: with one running slot, a later
// high-priority submission runs before an earlier low-priority one. The
// blocker's sends wait at a gate until both are queued, however fast it
// compresses.
func TestPriorityOrdering(t *testing.T) {
	link := gateLink{open: make(chan struct{})}
	sched := NewScheduler(Config{MaxRunning: 1, Transport: link})
	defer sched.Close()

	spec := core.CampaignSpec{RelErrorBound: 1e-3, Workers: 1, GroupParam: 1}
	fields := testFields(t, 1)
	// Occupy the lone slot long enough to stack the queue behind it.
	blocker, err := sched.Submit(Request{Tenant: "t", Fields: testFields(t, 2), Spec: core.CampaignSpec{
		RelErrorBound: 1e-3, Workers: 1, GroupParam: 1,
		Transport: nil, // scheduler overrides with its own
	}})
	if err != nil {
		t.Fatal(err)
	}
	low, err := sched.Submit(Request{Tenant: "t", Priority: 0, Fields: fields, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	high, err := sched.Submit(Request{Tenant: "t", Priority: 5, Fields: fields, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	close(link.open)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, j := range []*Job{blocker, low, high} {
		if _, err := j.Wait(ctx); err != nil {
			t.Fatalf("job %s: %v", j.ID(), err)
		}
	}
	// With one running slot, start order is completion order. The
	// scheduler stamps starts under its lock; the order in which watcher
	// goroutines see Done channels close is not deterministic.
	sched.mu.Lock()
	defer sched.mu.Unlock()
	if !blocker.started.Before(high.started) || !high.started.Before(low.started) {
		t.Fatalf("start order blocker %v, high %v, low %v: want blocker, then the priority-5 job, then priority-0",
			blocker.started, high.started, low.started)
	}
}

// Submitting to a closed scheduler fails; Close leaves every job terminal.
func TestSchedulerClose(t *testing.T) {
	sched := NewScheduler(Config{
		Transport: &core.SimulatedWANTransport{
			Link:      &wan.Link{BandwidthMBps: 0.01, Concurrency: 1},
			Timescale: 1,
		},
		MaxRunning: 1,
	})
	spec := core.CampaignSpec{RelErrorBound: 1e-3, Workers: 1, GroupParam: 1}
	var jobs []*Job
	for i := 0; i < 3; i++ {
		j, err := sched.Submit(Request{Tenant: fmt.Sprintf("t%d", i), Fields: testFields(t, 1), Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	sched.Close()
	for _, j := range jobs {
		select {
		case <-j.Done():
		default:
			t.Fatalf("job %s not terminal after Close", j.ID())
		}
	}
	if _, err := sched.Submit(Request{Tenant: "late", Fields: testFields(t, 1), Spec: spec}); err == nil {
		t.Fatal("submit after Close succeeded")
	}
}
