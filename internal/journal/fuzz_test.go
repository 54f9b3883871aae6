package journal

import (
	"errors"
	"testing"
)

// FuzzJournalManifest feeds arbitrary bytes — seeded with valid manifests,
// truncations, corrupt digests, and crafted huge counts — through Parse.
// The invariant: Parse returns a Manifest or an error wrapping ErrCorrupt;
// it never panics and never allocates beyond the input's own footprint
// (crafted counts must be rejected by validation, not trusted into
// allocations — the same discipline ocelotvet's alloccap enforces on the
// stream decoders).
func FuzzJournalManifest(f *testing.F) {
	begin := `{"t":"begin","specHash":"feedbeef","engine":"pipelined","strategy":1,"groupParam":4,"fields":[{"name":"a.sz","relEB":0.001},{"name":"b.sz","relEB":0.0001,"predictor":2,"codec":"szx"}]}` + "\n"
	group := `{"t":"group","group":0,"members":[0,1],"bytes":1234,"archive":"abc123"}` + "\n"
	full := begin + group +
		`{"t":"sent","group":0}` + "\n" +
		`{"t":"ack","group":0,"digests":["11","22"]}` + "\n" +
		`{"t":"done"}` + "\n"
	f.Add([]byte(full))
	f.Add([]byte(begin))
	f.Add([]byte(full[:len(full)-9])) // torn tail
	f.Add([]byte(begin + `{"t":"group","group":0,"members":[0,1],"archive":"zznotahex"}` + "\n"))
	f.Add([]byte(begin + `{"t":"group","group":1073741824,"members":[0],"archive":"1"}` + "\n"))
	f.Add([]byte(begin + `{"t":"ack","group":0,"digests":["1"]}` + "\n"))
	f.Add([]byte(begin + group + `{"t":"ack","group":0,"archive":"abc123","digests":["11","22"],"degraded":[1]}` + "\n"))
	f.Add([]byte(begin + group + `{"t":"ack","group":0,"digests":["11","22"],"degraded":[0,5]}` + "\n"))
	f.Add([]byte(`{"t":"begin","specHash":"x","fields":[]}` + "\n"))
	f.Add([]byte("{\"t\":\"begin\"\xff\n"))
	f.Add([]byte("\n\n\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return // bound fuzz memory, not the parser
		}
		m, err := Parse(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("non-typed parse error: %v", err)
			}
			return
		}
		if m.SpecHash == "" || len(m.Fields) == 0 {
			t.Fatalf("accepted manifest without begin state: %+v", m)
		}
		// Every accepted group must pass the structural invariants resume
		// relies on.
		for id, g := range m.Groups {
			if id != g.ID || len(g.Members) == 0 || len(g.Members) > len(m.Fields) {
				t.Fatalf("group %d structurally invalid: %+v", id, g)
			}
			for _, idx := range g.Members {
				if idx < 0 || idx >= len(m.Fields) {
					t.Fatalf("group %d member %d out of range", id, idx)
				}
			}
			if g.Acked && len(g.Digests) != len(g.Members) {
				t.Fatalf("group %d acked with %d digests", id, len(g.Digests))
			}
		}
		done, digests, degraded := m.DoneFields()
		if len(done) != len(m.Fields) || len(digests) != len(m.Fields) || len(degraded) != len(m.Fields) {
			t.Fatalf("DoneFields shape mismatch")
		}
		for i := range degraded {
			if degraded[i] && !done[i] {
				t.Fatalf("field %d degraded but not covered by an acked group", i)
			}
		}
	})
}
