package planner

import (
	"testing"
)

// TestBuildDoneMask verifies a resume plan prices only the remaining work:
// done fields carry no decision, contribute nothing to the wall model, and
// the grouping decision runs over the remaining fields alone.
func TestBuildDoneMask(t *testing.T) {
	fields := plannerFields(t, 40, 7)
	model := trainedModel(t, testCandidates())
	opts := Options{Candidates: testCandidates(), Link: testLink(), Workers: 2, Seed: 1}

	full, err := Build(fields, model, opts)
	if err != nil {
		t.Fatal(err)
	}

	opts.Done = []bool{true, false, true, false}
	resumed, err := Build(fields, model, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed.Fields) != len(fields) {
		t.Fatalf("plan shape changed: %d fields", len(resumed.Fields))
	}
	for i, fp := range resumed.Fields {
		if opts.Done[i] {
			if !fp.Done || fp.RelEB != 0 || fp.PredSec != 0 {
				t.Fatalf("done field %d still priced: %+v", i, fp)
			}
		} else if fp.Done || fp.RelEB <= 0 {
			t.Fatalf("remaining field %d mis-planned: %+v", i, fp)
		}
	}
	if resumed.RawBytes >= full.RawBytes {
		t.Fatalf("resume raw bytes %d not below full %d", resumed.RawBytes, full.RawBytes)
	}
	if resumed.PredCompressSec >= full.PredCompressSec {
		t.Fatalf("resume compress wall %.3fs not below full %.3fs",
			resumed.PredCompressSec, full.PredCompressSec)
	}
	// The wall model is max(C, T) + min(C, T)/G, and a resume's smaller
	// field count caps the group-count search below the full plan's — the
	// overlap term min(C, T)/G can come out a hair LARGER for the resume
	// even though both stage terms shrink. With the transfer term floored
	// by per-archive WAN overhead at this scale the walls effectively tie;
	// allow the overlap-term wobble, but a resume must never predict a
	// materially longer wall.
	if resumed.PredWallSec > full.PredWallSec*1.05+1e-9 {
		t.Fatalf("resume wall %.3fs materially above full %.3fs", resumed.PredWallSec, full.PredWallSec)
	}
	if resumed.GroupParam < 1 || resumed.GroupParam > 2 {
		t.Fatalf("grouping must cover only the 2 remaining fields: param=%d", resumed.GroupParam)
	}

	// Degenerate resume: everything done.
	opts.Done = []bool{true, true, true, true}
	empty, err := Build(fields, model, opts)
	if err != nil {
		t.Fatal(err)
	}
	if empty.PredWallSec != 0 || empty.PredCompressSec != 0 || empty.GroupParam != 1 {
		t.Fatalf("all-done plan should price nothing: %+v", empty)
	}

	// Shape mismatch is rejected.
	opts.Done = []bool{true}
	if _, err := Build(fields, model, opts); err == nil {
		t.Fatal("mismatched Done mask accepted")
	}
}
