package journal

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func testFields() []FieldPlan {
	return []FieldPlan{
		{Name: "a.sz", RelEB: 1e-3},
		{Name: "b.sz", RelEB: 1e-3, Predictor: 2, Codec: "szx"},
		{Name: "c.sz", RelEB: 1e-4},
		{Name: "d.sz", RelEB: 1e-3},
	}
}

// writeSample journals a 2-group campaign where only group 0 is acked.
func writeSample(t *testing.T, path string) {
	t.Helper()
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Begin("feedbeef", "pipelined", 1, 2, testFields(),
		map[string]string{"tenant": "climate"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Group(0, []int{0, 2}, 0xabc, 0xc0ffee, 1000); err != nil {
		t.Fatal(err)
	}
	if err := w.Group(1, []int{1, 3}, 0xdef, 0, 2000); err != nil {
		t.Fatal(err)
	}
	if err := w.Sent(0); err != nil {
		t.Fatal(err)
	}
	if err := w.Ack(0, 0xabc, []uint64{11, 22}); err != nil {
		t.Fatal(err)
	}
	if err := w.Sent(1); err != nil {
		t.Fatal(err)
	}
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.ocjl")
	writeSample(t, path)
	m, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.SpecHash != "feedbeef" || m.Engine != "pipelined" || m.GroupParam != 2 {
		t.Fatalf("begin state mangled: %+v", m)
	}
	if m.Meta["tenant"] != "climate" {
		t.Fatalf("meta lost: %v", m.Meta)
	}
	if len(m.Groups) != 2 || m.Done {
		t.Fatalf("groups=%d done=%v", len(m.Groups), m.Done)
	}
	if g := m.Groups[0]; !g.Acked || !g.Sent || g.Bytes != 1000 || g.ArchiveDigest != 0xabc || g.FrameCRC != 0xc0ffee {
		t.Fatalf("group 0: %+v", g)
	}
	if g := m.Groups[1]; g.Acked || !g.Sent {
		t.Fatalf("group 1: %+v", g)
	}
	done, digests, _ := m.DoneFields()
	wantDone := []bool{true, false, true, false}
	for i, w := range wantDone {
		if done[i] != w {
			t.Fatalf("done[%d]=%v want %v", i, done[i], w)
		}
	}
	if digests[0] != 11 || digests[2] != 22 {
		t.Fatalf("digests: %v", digests)
	}
	if m.AckedGroups() != 1 || m.AckedBytes() != 1000 || m.MaxGroupID() != 1 {
		t.Fatalf("acked=%d bytes=%d max=%d", m.AckedGroups(), m.AckedBytes(), m.MaxGroupID())
	}
}

func TestJournalTornTailTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.ocjl")
	writeSample(t, path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop the file mid-way through the final record: the crash artifact
	// Load must shrug off. The acked state of earlier records survives.
	torn := data[:len(data)-3]
	m, err := Parse(torn)
	if err != nil {
		t.Fatalf("torn tail rejected: %v", err)
	}
	if m.Groups[1] == nil || m.Groups[1].Sent {
		t.Fatalf("torn final sent record should be discarded: %+v", m.Groups[1])
	}
	if !m.Groups[0].Acked {
		t.Fatal("earlier acked state lost")
	}
}

func TestJournalCorruptTyped(t *testing.T) {
	valid := `{"t":"begin","specHash":"ff","fields":[{"name":"a.sz","relEB":0.001}]}` + "\n"
	cases := map[string]string{
		"bad json mid-file":  valid + "{nope}\n" + `{"t":"done"}` + "\n",
		"no begin":           `{"t":"done"}` + "\n",
		"empty":              "",
		"member range":       valid + `{"t":"group","group":0,"members":[5],"archive":"1"}` + "\n",
		"too many members":   valid + `{"t":"group","group":0,"members":[0,0],"archive":"1"}` + "\n",
		"huge group id":      valid + `{"t":"group","group":99999999,"members":[0],"archive":"1"}` + "\n",
		"negative group id":  valid + `{"t":"group","group":-1,"members":[0],"archive":"1"}` + "\n",
		"sent unknown group": valid + `{"t":"sent","group":7}` + "\n",
		"ack digest count":   valid + `{"t":"group","group":0,"members":[0],"archive":"1"}` + "\n" + `{"t":"ack","group":0,"digests":["1","2"]}` + "\n",
		"bad digest":         valid + `{"t":"group","group":0,"members":[0],"archive":"zz"}` + "\n",
		"unknown kind":       valid + `{"t":"frob"}` + "\n",
		"conflicting begin":  valid + `{"t":"begin","specHash":"00","fields":[{"name":"a.sz","relEB":0.001}]}` + "\n",
		"group re-recorded":  valid + `{"t":"group","group":0,"members":[0],"archive":"1"}` + "\n" + `{"t":"group","group":0,"members":[0],"archive":"2"}` + "\n",
	}
	for name, text := range cases {
		if _, err := Parse([]byte(text)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: want ErrCorrupt, got %v", name, err)
		}
	}
}

func TestJournalIdempotentDuplicates(t *testing.T) {
	text := `{"t":"begin","specHash":"ff","fields":[{"name":"a.sz","relEB":0.001}]}` + "\n" +
		`{"t":"group","group":0,"members":[0],"archive":"1","bytes":10}` + "\n" +
		`{"t":"group","group":0,"members":[0],"archive":"1","bytes":10}` + "\n" +
		`{"t":"ack","group":0,"digests":["1"]}` + "\n" +
		`{"t":"ack","group":0,"digests":["1"]}` + "\n"
	m, err := Parse([]byte(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Groups) != 1 || !m.Groups[0].Acked {
		t.Fatalf("duplicate records mis-folded: %+v", m.Groups)
	}
}

func TestJournalSpecMismatch(t *testing.T) {
	m := &Manifest{SpecHash: "aa"}
	if err := m.CheckSpec("aa"); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckSpec("bb"); !errors.Is(err, ErrSpecMismatch) {
		t.Fatalf("want ErrSpecMismatch, got %v", err)
	}
}

func TestJournalResumeAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.ocjl")
	writeSample(t, path)
	w, err := OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Resume(); err != nil {
		t.Fatal(err)
	}
	if err := w.Group(2, []int{1, 3}, 0x123, 0, 1500); err != nil {
		t.Fatal(err)
	}
	if err := w.Ack(2, 0x123, []uint64{33, 44}); err != nil {
		t.Fatal(err)
	}
	if err := w.Done(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Entry{T: KindDone}); err == nil {
		t.Fatal("append after close should fail")
	}
	m, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Done || m.Resumes != 1 || m.MaxGroupID() != 2 {
		t.Fatalf("done=%v resumes=%d max=%d", m.Done, m.Resumes, m.MaxGroupID())
	}
	done, _, _ := m.DoneFields()
	for i, d := range done {
		if !d {
			t.Fatalf("field %d not covered after resume", i)
		}
	}
}

// TestJournalAckDegradedMembers: an ack records which of its members the
// bound audit quarantined, DoneFields reports them, an ack without any keeps
// its old form, and an ack that degrades a non-member is corrupt.
func TestJournalAckDegradedMembers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "degraded.ocjl")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	plans := []FieldPlan{{Name: "a.sz", RelEB: 1e-3}, {Name: "b.sz", RelEB: 1e-3}, {Name: "c.sz", RelEB: 1e-3}}
	steps := []func() error{
		func() error { return w.Begin("ff", "pipelined", 0, 2, plans, nil) },
		func() error { return w.Group(0, []int{0, 2}, 0xa, 0, 10) },
		func() error { return w.Ack(0, 0xa, []uint64{1, 2}, 2) },
		func() error { return w.Group(1, []int{1}, 0xb, 0, 10) },
		func() error { return w.Ack(1, 0xb, []uint64{3}) },
		w.Close,
	}
	for _, step := range steps {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(raw), `"degraded"`); n != 1 {
		t.Fatalf("%d records carry the degraded key, want only the ack that degrades a member", n)
	}
	m, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	done, _, degraded := m.DoneFields()
	if !slices.Equal(done, []bool{true, true, true}) || !slices.Equal(degraded, []bool{false, false, true}) {
		t.Fatalf("done %v, degraded %v; want all done and only field 2 degraded", done, degraded)
	}

	begin := `{"t":"begin","specHash":"ff","fields":[{"name":"a.sz","relEB":0.001},{"name":"b.sz","relEB":0.001}]}` + "\n"
	group := `{"t":"group","group":0,"members":[0],"archive":"a","bytes":10}` + "\n"
	ack := `{"t":"ack","group":0,"archive":"a","digests":["1"],"degraded":[1]}` + "\n"
	if _, err := Parse([]byte(begin + group + ack)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ack degrading a non-member: got %v, want ErrCorrupt", err)
	}
}

func TestJournalAckEchoVoidsMismatch(t *testing.T) {
	begin := `{"t":"begin","specHash":"ff","fields":[{"name":"a.sz","relEB":0.001}]}` + "\n"
	group := `{"t":"group","group":0,"members":[0],"archive":"abc","crc":"c0ffee","bytes":10}` + "\n"

	// Mismatched echo: the ack is voided, not an error — the group stays
	// unacked so a resume re-sends it.
	m, err := Parse([]byte(begin + group + `{"t":"ack","group":0,"archive":"dead","digests":["1"]}` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Groups[0].Acked {
		t.Fatal("mismatched-echo ack should be voided")
	}

	// Matching echo acks normally.
	m, err = Parse([]byte(begin + group + `{"t":"ack","group":0,"archive":"abc","digests":["1"]}` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !m.Groups[0].Acked || m.Groups[0].FrameCRC != 0xc0ffee {
		t.Fatalf("matching-echo ack rejected: %+v", m.Groups[0])
	}

	// Legacy echo-less acks are still accepted.
	m, err = Parse([]byte(begin + group + `{"t":"ack","group":0,"digests":["1"]}` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !m.Groups[0].Acked {
		t.Fatal("legacy echo-less ack rejected")
	}

	// A voided ack after a good one leaves the good ack intact.
	m, err = Parse([]byte(begin + group +
		`{"t":"ack","group":0,"archive":"abc","digests":["1"]}` + "\n" +
		`{"t":"ack","group":0,"archive":"dead","digests":["9"]}` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !m.Groups[0].Acked || m.Groups[0].Digests[0] != 1 {
		t.Fatalf("voided duplicate clobbered good ack: %+v", m.Groups[0])
	}
}

func TestJournalCorruptIntegrityFields(t *testing.T) {
	begin := `{"t":"begin","specHash":"ff","fields":[{"name":"a.sz","relEB":0.001}]}` + "\n"
	group := `{"t":"group","group":0,"members":[0],"archive":"abc","crc":"c0ffee","bytes":10}` + "\n"
	cases := map[string]string{
		"bad frame crc": begin + `{"t":"group","group":0,"members":[0],"archive":"abc","crc":"zz"}` + "\n",
		"oversized crc": begin + `{"t":"group","group":0,"members":[0],"archive":"abc","crc":"fffffffff"}` + "\n",
		"bad ack echo":  begin + group + `{"t":"ack","group":0,"archive":"zz","digests":["1"]}` + "\n",
		"crc conflict":  begin + group + `{"t":"group","group":0,"members":[0],"archive":"abc","crc":"beef","bytes":10}` + "\n",
	}
	for name, text := range cases {
		if _, err := Parse([]byte(text)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: want ErrCorrupt, got %v", name, err)
		}
	}
}

func TestJournalDigestFormat(t *testing.T) {
	for _, v := range []uint64{0, 1, 0xdeadbeef, ^uint64(0)} {
		got, err := parseDigest(FormatDigest(v))
		if err != nil || got != v {
			t.Fatalf("digest %x round-trip: got %x err %v", v, got, err)
		}
	}
	if _, err := parseDigest(strings.Repeat("f", 17)); err == nil {
		t.Fatal("oversized digest accepted")
	}
}
