package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one traced interval, recorded from the benchmark's own files
// around a call into a layer. Times are seconds since the recorder started;
// Parent is the ID of the span that caused this one (-1 for a root), and
// spans of one campaign share Campaign.
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"`
	Campaign string  `json:"campaign,omitempty"`
	Name     string  `json:"name"`
	Start    float64 `json:"start_s"`
	End      float64 `json:"end_s"`
}

// recorder keeps spans in memory until the benchmark ends. A nil recorder
// records nothing, which is what the untraced pass runs with.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a finished interval and returns its ID.
func (r *recorder) add(name, campaign string, parent int, start, end time.Time) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Campaign: campaign, Name: name,
		Start: start.Sub(r.epoch).Seconds(), End: end.Sub(r.epoch).Seconds()})
	return id
}

// reserve allocates an ID for a span whose children finish before it does;
// finish fills in its interval.
func (r *recorder) reserve(name, campaign string, parent int) int {
	return r.add(name, campaign, parent, time.Time{}, time.Time{})
}

func (r *recorder) finish(id int, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans[id].Start = start.Sub(r.epoch).Seconds()
	r.spans[id].End = end.Sub(r.epoch).Seconds()
	r.mu.Unlock()
}

// write dumps every span as one JSON array.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	blob, err := json.MarshalIndent(r.spans, "", " ")
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
