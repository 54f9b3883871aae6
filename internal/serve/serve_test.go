package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
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

// Cancelling over HTTP mid-stage unwinds the campaign promptly: the link
// below would pace the transfer for minutes, so reaching a terminal
// canceled state within seconds proves mid-send cancellation works
// through the whole daemon stack.
func TestServeCancelMidStage(t *testing.T) {
	srv := NewServer(Config{
		Transport: &core.SimulatedWANTransport{
			Link:      &wan.Link{BandwidthMBps: 0.01, Concurrency: 2},
			Timescale: 1,
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
	st := decodeStatus(t, resp)
	job, err := srv.Scheduler().Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Wait until bytes are in flight.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if s := job.Status(); s.State == "running" && s.Campaign != nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(30 * time.Millisecond)

	canceledAt := time.Now()
	cresp := postJSON(t, ts.URL+"/v1/campaigns/"+st.ID+"/cancel", nil)
	if cresp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel status %d", cresp.StatusCode)
	}
	cresp.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := job.Wait(ctx); err == nil {
		t.Fatal("cancelled campaign completed without error")
	}
	if lat := time.Since(canceledAt); lat > 3*time.Second {
		t.Errorf("cancel-to-terminal latency %v, want prompt against a minutes-long transfer", lat)
	}
	if got := job.Status(); got.State != "canceled" {
		t.Fatalf("terminal state %q, want canceled", got.State)
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
		"bad engine":    {Tenant: "t", Spec: SpecRequest{RelErrorBound: 1e-3, Engine: "warp"}},
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

	order := make(chan string, 3)
	for name, j := range map[string]*Job{"blocker": blocker, "low": low, "high": high} {
		go func(name string, j *Job) {
			<-j.Done()
			order <- name
		}(name, j)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got := make([]string, 0, 3)
	for len(got) < 3 {
		select {
		case n := <-order:
			got = append(got, n)
		case <-ctx.Done():
			t.Fatalf("jobs not all terminal; completion order so far %v", got)
		}
	}
	pos := map[string]int{}
	for i, n := range got {
		pos[n] = i
	}
	if pos["high"] > pos["low"] {
		t.Fatalf("completion order %v: priority-5 job finished after priority-0", got)
	}
	for _, j := range []*Job{blocker, low, high} {
		if _, err := j.Result(); err != nil {
			t.Fatalf("job failed: %v", err)
		}
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
