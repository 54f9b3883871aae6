package serve

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
)

// fuzzServer is a shared daemon whose scheduler is closed immediately:
// every fuzzed submission exercises the full decode → spec resolution →
// field synthesis → error-marshalling path without ever running a
// campaign, so the fuzzer spends its budget on the wire layer.
var (
	fuzzServerOnce sync.Once
	fuzzServer     *Server
)

func sharedFuzzServer() *Server {
	fuzzServerOnce.Do(func() {
		fuzzServer = NewServer(Config{})
		fuzzServer.Close()
	})
	return fuzzServer
}

// FuzzServeAPI throws arbitrary bytes at the daemon's wire layer: the
// POST /v1/campaigns decode path (body limit, shrink floor, spec and
// datagen validation) and the status/watch marshalling types. Every
// response must be well-formed JSON with an HTTP status the API
// documents — never a panic, never a non-JSON body.
func FuzzServeAPI(f *testing.F) {
	f.Add([]byte(`{"tenant":"climate","app":"CESM","fields":2,"shrink":48,"seed":7,"spec":{"relErrorBound":1e-3,"engine":"pipelined","workers":2}}`))
	f.Add([]byte(`{"spec":{"relErrorBound":-1}}`))
	f.Add([]byte(`{"app":"nosuch","shrink":1}`))
	f.Add([]byte(`{"spec":{"engine":"warp","predictor":"oracle"}}`))
	f.Add([]byte(`{"tenant":"\u0000","priority":-9,"fields":1000000,"seed":-1,"spec":{"relErrorBound":1e300,"chunkMB":-3}}`))
	f.Add([]byte(`{"fields":1,"shrink":64,"spec":{"relErrorBound":1e-3,"retries":3,"boundAudit":4,"quarantine":true,"codec":"sz3,szx"}}`))
	f.Add([]byte(`{"spec":{"relErrorBound":1e-3,"adaptive":true,"minPSNR":60,"maxRelEB":1e-2,"codec":"sz3,szx"}}`))
	f.Add([]byte(`{"fields":1,"shrink":64,"spec":{"relErrorBound":1e-3,"workers":4611686018427387904,"streams":-1,"retries":4611686018427387904}}`))
	f.Add([]byte(`{"id":"c-1","tenant":"t","state":"running","terminal":false,"queuedSec":0.5,"error":"x"}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(``))

	srv := sharedFuzzServer()
	f.Fuzz(func(t *testing.T, body []byte) {
		// Submit path. The scheduler is closed, so every outcome is a 400
		// with a JSON error body; which 400 depends on how far the request
		// gets (decode, shrink floor, spec, datagen, admission).
		req := httptest.NewRequest("POST", "/v1/campaigns", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != 400 {
			t.Fatalf("submit status = %d, want 400 from a closed scheduler", rec.Code)
		}
		var he httpError
		if err := json.Unmarshal(rec.Body.Bytes(), &he); err != nil || he.Error == "" {
			t.Fatalf("submit error body not JSON {error}: %v %q", err, rec.Body.String())
		}

		// Status and watch lookups with a fuzz-derived campaign ID must
		// 404 with the same JSON error shape. Dot segments are not IDs: the
		// mux cleans them out of the path and redirects.
		id := url.PathEscape(string(body))
		if id == "" || id == "." || id == ".." || strings.Contains(id, "/") {
			id = "c-none"
		}
		for _, path := range []string{"/v1/campaigns/" + id, "/v1/campaigns/" + id + "/watch"} {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
			if rec.Code != 404 || !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("GET %s: status %d body %q, want JSON 404", path, rec.Code, rec.Body.String())
			}
		}

		// Status wire type: any bytes that decode as a JobStatus must
		// re-marshal — the watch stream emits these verbatim.
		var st JobStatus
		if err := json.Unmarshal(body, &st); err == nil {
			if _, err := json.Marshal(st); err != nil {
				t.Fatalf("JobStatus round-trip: %v", err)
			}
		}
	})
}

// TestUnmatchedRoutesAnswerJSON: a request no route matches keeps the
// mux's status — 404 for an unknown path, 405 plus Allow for a known path
// under another method — with the JSON httpError body every route returns.
func TestUnmatchedRoutesAnswerJSON(t *testing.T) {
	srv := sharedFuzzServer()
	for _, tc := range []struct {
		method, path string
		status       int
		allow        string // a method the Allow header must name (405 only)
	}{
		{"GET", "/v1/campaigns/%2F", 404, ""},
		{"GET", "/v1/campaigns/", 404, ""},
		{"GET", "/v1/nosuch", 404, ""},
		{"GET", "/v1/campaigns/c-none/watch/more", 404, ""},
		{"GET", "/v1/campaigns/c-none", 404, ""}, // matched route, unknown ID
		{"DELETE", "/v1/campaigns", 405, "POST"},
		{"POST", "/v1/campaigns/c-none", 405, "GET"},
		{"GET", "/v1/campaigns/c-none/cancel", 405, "POST"},
		{"PUT", "/v1/healthz", 405, "GET"},
	} {
		t.Run(tc.method+" "+tc.path, func(t *testing.T) {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, nil))
			if rec.Code != tc.status {
				t.Fatalf("status %d, want %d (body %q)", rec.Code, tc.status, rec.Body.String())
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type %q, want application/json", ct)
			}
			var he httpError
			if err := json.Unmarshal(rec.Body.Bytes(), &he); err != nil || he.Error == "" {
				t.Fatalf("body not JSON {error}: %v %q", err, rec.Body.String())
			}
			if allow := rec.Header().Get("Allow"); !strings.Contains(allow, tc.allow) || (tc.allow == "") != (allow == "") {
				t.Fatalf("Allow %q, want one naming %q", allow, tc.allow)
			}
		})
	}
}

// TestSubmitBodyLimit pins the 1 MiB request-body cap: a multi-megabyte
// submission is cut off mid-decode and rejected, not buffered.
func TestSubmitBodyLimit(t *testing.T) {
	srv := sharedFuzzServer()
	body := append([]byte(`{"tenant":"`), bytes.Repeat([]byte("a"), 2*maxSubmitBody)...)
	body = append(body, []byte(`"}`)...)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/campaigns", bytes.NewReader(body)))
	if rec.Code != 400 || !strings.Contains(rec.Body.String(), "bad request body") {
		t.Fatalf("oversized body: status %d body %q, want 400 bad request body", rec.Code, rec.Body.String())
	}
}

// TestSubmitShrinkFloor pins the MinShrink guard: shrink 1 asks the
// daemon to synthesize near-paper-scale fields and is refused before any
// generation happens, while a sane shrink passes the guard (and here dies
// later, at admission, because the shared scheduler is closed).
func TestSubmitShrinkFloor(t *testing.T) {
	srv := sharedFuzzServer()
	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/campaigns", strings.NewReader(body)))
		return rec
	}
	rec := post(`{"shrink":1,"fields":1,"spec":{"relErrorBound":1e-3}}`)
	if rec.Code != 400 || !strings.Contains(rec.Body.String(), "below minimum") {
		t.Fatalf("shrink 1: status %d body %q, want 400 below minimum", rec.Code, rec.Body.String())
	}
	rec = post(`{"shrink":64,"fields":1,"spec":{"relErrorBound":1e-3}}`)
	if rec.Code != 400 || !strings.Contains(rec.Body.String(), "scheduler closed") {
		t.Fatalf("shrink 64: status %d body %q, want to reach admission", rec.Code, rec.Body.String())
	}
}
