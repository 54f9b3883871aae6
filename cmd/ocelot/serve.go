package main

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ocelot/internal/core"
	"ocelot/internal/serve"
)

// cmdServe runs the multi-tenant campaign daemon:
//
//	ocelot serve -addr :9177 -route Anvil->Bebop -timescale 1e-3 \
//	  -tenants climate:2,physics:1 -max-running 8 -queue-depth 64
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:9177", "listen address")
	route := fs.String("route", "Anvil->Bebop", "shared WAN link campaigns transfer over; empty = in-process")
	timescale := fs.Float64("timescale", 1e-3, "wall seconds slept per simulated link second")
	tenants := fs.String("tenants", "", "named tenants as name:weight pairs, e.g. climate:2,physics:1 (others get weight 1)")
	maxPerTenant := fs.Int("max-per-tenant", 0, "max concurrently running campaigns per named tenant (0 = unlimited)")
	maxRunning := fs.Int("max-running", 8, "max concurrently running campaigns overall")
	queueDepth := fs.Int("queue-depth", 64, "max queued campaigns before submissions get 429")
	journalDir := fs.String("journal-dir", "", "journal every campaign under this directory and resume unfinished ones on startup")
	debugAddr := fs.String("debug-addr", "", "loopback address serving net/http/pprof and expvar (e.g. 127.0.0.1:6060; empty = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := serve.Config{
		MaxRunning: *maxRunning,
		QueueDepth: *queueDepth,
		JournalDir: *journalDir,
	}
	if *route != "" {
		link, err := lookupRoute(*route)
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		cfg.Transport = &core.SimulatedWANTransport{Link: link, Timescale: *timescale}
	}
	if *tenants != "" {
		cfg.Tenants = map[string]serve.TenantConfig{}
		for _, pair := range strings.Split(*tenants, ",") {
			name, weightStr, found := strings.Cut(strings.TrimSpace(pair), ":")
			if name == "" {
				return fmt.Errorf("serve: bad -tenants entry %q", pair)
			}
			weight := 1.0
			if found {
				w, err := strconv.ParseFloat(weightStr, 64)
				if err != nil || w <= 0 {
					return fmt.Errorf("serve: bad weight in -tenants entry %q", pair)
				}
				weight = w
			}
			cfg.Tenants[name] = serve.TenantConfig{Weight: weight, MaxCampaigns: *maxPerTenant}
		}
	}

	srv := serve.NewServer(cfg)
	defer srv.Close()
	if *journalDir != "" {
		resumed, errs := srv.Recover()
		for _, e := range errs {
			fmt.Fprintln(os.Stderr, "ocelot serve: recover:", e)
		}
		if len(resumed) > 0 {
			fmt.Printf("ocelot serve: resumed %d unfinished campaign(s) from %s\n", len(resumed), *journalDir)
		}
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := newHTTPServer(srv)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		httpSrv.Close()
	}()
	if *debugAddr != "" {
		// Profiling endpoints live on their own listener — typically
		// loopback — so operators can expose the campaign API without also
		// exposing heap dumps and CPU profiles.
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fmt.Errorf("serve: debug listener: %w", err)
		}
		dbgSrv := newHTTPServer(debugMux())
		go func() { _ = dbgSrv.Serve(dln) }()
		go func() {
			<-ctx.Done()
			dbgSrv.Close()
		}()
		fmt.Printf("ocelot serve: debug endpoints (/debug/pprof, /debug/vars) on %s\n", dln.Addr())
	}
	fmt.Printf("ocelot serve: listening on %s (route %s, %d tenants configured)\n",
		ln.Addr(), cmp.Or(*route, "-"), len(cfg.Tenants))
	if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Println("ocelot serve: shutting down, cancelling campaigns")
	return nil
}

// readHeaderTimeout bounds how long a client may take to send a request's
// headers, so one that never finishes them cannot hold a connection
// forever. Nothing bounds the rest of an exchange: `submit -watch` and
// `watch` stream a campaign's status for as long as it runs.
const readHeaderTimeout = 5 * time.Second

// newHTTPServer builds each of the daemon's HTTP servers, the campaign API
// and the debug endpoints, with the header deadline set.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout}
}

// debugMux assembles the profiling mux: the standard net/http/pprof
// handlers plus expvar, mounted explicitly instead of relying on their
// DefaultServeMux side-effect registrations.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}

// cmdSubmit submits a campaign to a running daemon:
//
//	ocelot submit -server http://127.0.0.1:9177 -tenant climate -fields 4 -eb 1e-3 -watch
func cmdSubmit(args []string) error {
	fs := flag.NewFlagSet("submit", flag.ContinueOnError)
	var req serve.SubmitRequest
	req.BindFlags(fs, serve.RunFlags) // the daemon refuses adaptive campaigns
	server := fs.String("server", "http://127.0.0.1:9177", "daemon base URL")
	fs.StringVar(&req.Tenant, "tenant", "default", "submitting tenant")
	fs.IntVar(&req.Priority, "priority", 0, "priority within the tenant's queue (higher first)")
	watch := fs.Bool("watch", false, "stream status until the campaign finishes")
	if err := fs.Parse(args); err != nil {
		return err
	}

	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := http.Post(*server+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	st, err := decodeJobStatus(resp)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	fmt.Printf("submitted %s (tenant %s, state %s)\n", st.ID, st.Tenant, st.State)
	if *watch {
		return watchJob(*server, st.ID)
	}
	return nil
}

// cmdWatch streams a campaign's live status:
//
//	ocelot watch -server http://127.0.0.1:9177 -id c-1
func cmdWatch(args []string) error {
	fs := flag.NewFlagSet("watch", flag.ContinueOnError)
	server := fs.String("server", "http://127.0.0.1:9177", "daemon base URL")
	id := fs.String("id", "", "campaign ID (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "" {
		return errors.New("watch: -id is required")
	}
	return watchJob(*server, *id)
}

// cmdCancel requests cancellation of a running or queued campaign:
//
//	ocelot cancel -server http://127.0.0.1:9177 -id c-1
func cmdCancel(args []string) error {
	fs := flag.NewFlagSet("cancel", flag.ContinueOnError)
	server := fs.String("server", "http://127.0.0.1:9177", "daemon base URL")
	id := fs.String("id", "", "campaign ID (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "" {
		return errors.New("cancel: -id is required")
	}
	resp, err := http.Post(*server+"/v1/campaigns/"+*id+"/cancel", "application/json", nil)
	if err != nil {
		return err
	}
	st, err := decodeJobStatus(resp)
	if err != nil {
		return fmt.Errorf("cancel: %w", err)
	}
	fmt.Printf("cancel requested for %s (state %s)\n", st.ID, st.State)
	return nil
}

// cmdCampaigns lists every campaign the daemon knows about:
//
//	ocelot campaigns -server http://127.0.0.1:9177
func cmdCampaigns(args []string) error {
	fs := flag.NewFlagSet("campaigns", flag.ContinueOnError)
	server := fs.String("server", "http://127.0.0.1:9177", "daemon base URL")
	if err := fs.Parse(args); err != nil {
		return err
	}
	resp, err := http.Get(*server + "/v1/campaigns")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeHTTPError(resp)
	}
	var list []serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return err
	}
	fmt.Printf("%-8s %-12s %4s %-10s %10s %12s %12s\n",
		"id", "tenant", "pri", "state", "queued(s)", "sent (MB)", "elapsed(s)")
	for _, st := range list {
		var sentMB, elapsed float64
		if st.Campaign != nil {
			sentMB = float64(st.Campaign.SentBytes) / 1e6
			elapsed = st.Campaign.ElapsedSec
		}
		fmt.Printf("%-8s %-12s %4d %-10s %10.2f %12.2f %12.2f\n",
			st.ID, st.Tenant, st.Priority, st.State, st.QueuedSec, sentMB, elapsed)
	}
	return nil
}

// Reconnect budget for watchJob; vars so tests can tighten the clock.
var (
	watchMaxRetries  = 5
	watchBaseBackoff = 200 * time.Millisecond
	watchMaxBackoff  = 5 * time.Second
)

// watchJob streams the daemon's NDJSON watch endpoint, printing one status
// line per snapshot until the campaign is terminal. Transient stream drops
// (a daemon restart, a flaky network) reconnect with exponential backoff
// from the last seen state; every successfully decoded snapshot refunds
// the retry budget, so only a stream that stays dead exhausts it.
func watchJob(server, id string) error {
	var last serve.JobStatus
	retries := 0
	backoff := watchBaseBackoff
	for {
		n, err := streamJob(server, id, &last)
		if err != nil {
			return err // definitive: HTTP error status or undecodable stream
		}
		if last.Terminal {
			if last.State != "done" {
				return fmt.Errorf("campaign %s finished %s: %s", id, last.State, last.Error)
			}
			return nil
		}
		if n > 0 {
			retries, backoff = 0, watchBaseBackoff
		}
		retries++
		if retries > watchMaxRetries {
			return fmt.Errorf("watch: lost %s after %d reconnect attempts (last state %q)", id, watchMaxRetries, last.State)
		}
		fmt.Fprintf(os.Stderr, "watch: stream dropped (state %q), reconnecting in %v (%d/%d)\n",
			last.State, backoff, retries, watchMaxRetries)
		time.Sleep(backoff)
		if backoff *= 2; backoff > watchMaxBackoff {
			backoff = watchMaxBackoff
		}
	}
}

// streamJob consumes one watch connection, updating *last and printing a
// line per snapshot, and returns how many snapshots it decoded. A nil
// error with !last.Terminal means the connection dropped mid-stream —
// retryable. Non-2xx responses and malformed payloads are definitive.
func streamJob(server, id string, last *serve.JobStatus) (int, error) {
	resp, err := http.Get(server + "/v1/campaigns/" + id + "/watch")
	if err != nil {
		return 0, nil // connection refused: daemon restarting — retryable
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, decodeHTTPError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	n := 0
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), last); err != nil {
			return n, fmt.Errorf("watch: bad status line: %w", err)
		}
		n++
		printJobStatus(*last)
		if last.Terminal {
			return n, nil
		}
	}
	// Scanner errors are mid-stream drops too: reconnect, don't die.
	return n, nil
}

func printJobStatus(st serve.JobStatus) {
	line := fmt.Sprintf("%s  %-9s", st.ID, st.State)
	if c := st.Campaign; c != nil {
		line += fmt.Sprintf("  %6.2fs  %2d/%d groups  %8.2f MB sent", c.ElapsedSec, c.SentGroups, c.Fields, float64(c.SentBytes)/1e6)
		if c.Retries > 0 || c.Failovers > 0 {
			line += fmt.Sprintf("  %d retries/%d failovers", c.Retries, c.Failovers)
		}
		if c.CorruptGroups > 0 {
			line += fmt.Sprintf("  %d corrupt/%d resent", c.CorruptGroups, c.Retransmits)
		}
		if c.DegradedFields > 0 {
			line += fmt.Sprintf("  %d quarantined", c.DegradedFields)
		}
		for _, s := range c.Stages {
			if s.Name == "transfer" && s.MBps > 0 {
				line += fmt.Sprintf("  (%.1f MB/s)", s.MBps)
			}
		}
	}
	fmt.Println(line)
}

// decodeJobStatus parses a JobStatus response, converting error bodies on
// non-2xx statuses into Go errors.
func decodeJobStatus(resp *http.Response) (serve.JobStatus, error) {
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return serve.JobStatus{}, decodeHTTPError(resp)
	}
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return serve.JobStatus{}, err
	}
	return st, nil
}

// decodeHTTPError turns a JSON error body into an error value.
func decodeHTTPError(resp *http.Response) error {
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err == nil && body.Error != "" {
		return fmt.Errorf("server returned %d: %s", resp.StatusCode, body.Error)
	}
	return fmt.Errorf("server returned %d", resp.StatusCode)
}
