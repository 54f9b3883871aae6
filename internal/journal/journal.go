// Package journal persists a campaign's progress as a durable, append-only
// manifest so a crashed or canceled campaign can resume without redoing
// completed work. The file format is newline-delimited JSON: one record per
// state transition (begin, group packed, group sent, group acked, resume,
// done), each flushed with fsync before the campaign proceeds, so the
// journal never claims more than what durably happened. The engine treats a
// group as recoverable only once it is ACKED — packed and sent but
// unverified groups are redone on resume, which is always safe because the
// campaign's ReconDigest folds per-field digests in field order, not in
// group or completion order.
//
// Crash tolerance: a process killed mid-append leaves a torn final line;
// Load tolerates exactly that (the unfinished record is discarded, matching
// what the fsync contract guarantees) but returns ErrCorrupt for anything
// else — bad JSON mid-file, references to unknown groups or fields,
// conflicting duplicate records — so a damaged journal is reported, never
// silently half-trusted.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"ocelot/internal/obs"
)

// Record kinds, stored in Entry.T.
const (
	// KindBegin opens a manifest: spec hash, per-field plan, grouping.
	KindBegin = "begin"
	// KindGroup records a packed group: members, archive digest, bytes.
	KindGroup = "group"
	// KindSent records the transport accepting a group's archive.
	KindSent = "sent"
	// KindAck records a group verified end to end, with per-member
	// reconstruction digests and the members the bound audit quarantined,
	// if any. Acked groups are skipped on resume. An ack
	// echoes the archive digest it verified; an echo that disagrees with
	// the group record VOIDS the ack (the group is re-sent on resume)
	// rather than corrupting the manifest — a stale or tampered ack must
	// never let an unverified archive be skipped.
	KindAck = "ack"
	// KindResume marks a resumed incarnation appending after a crash.
	KindResume = "resume"
	// KindDone marks the campaign complete; nothing is missing.
	KindDone = "done"
)

// maxGroupID bounds group identifiers a manifest may reference. Real
// campaigns emit a few dozen groups; the bound exists so a crafted journal
// cannot smuggle absurd ids into resume bookkeeping.
const maxGroupID = 1 << 20

// maxFields bounds the per-field plan length. The paper's largest dataset
// has dozens of fields; the bound exists purely as a sanity cap against
// crafted manifests.
const maxFields = 1 << 16

// ErrCorrupt is wrapped by every load error caused by a damaged or
// internally inconsistent journal (as opposed to I/O failures). Callers
// branch on it with errors.Is to distinguish "journal unusable" from
// "journal unreadable".
var ErrCorrupt = errors.New("journal: corrupt manifest")

// ErrSpecMismatch is returned by Manifest.CheckSpec when a resume attempt
// presents a different campaign spec than the journal was written under.
// Resuming under a changed spec would splice incompatible halves into one
// result, so the engine refuses.
var ErrSpecMismatch = errors.New("journal: spec hash mismatch")

// FieldPlan is one field's pinned compression decision as recorded at
// begin time. On resume the engine re-executes missing fields under
// exactly these settings — never a fresh plan — so the resumed halves of a
// campaign are byte-compatible with the completed ones.
type FieldPlan struct {
	// Name is the field's archive member name (unique per campaign).
	Name string `json:"name"`
	// RelEB is the field's relative error bound.
	RelEB float64 `json:"relEB"`
	// Predictor is the sz predictor ordinal (0 = campaign default).
	Predictor int `json:"predictor,omitempty"`
	// Codec is the registry codec name ("" = campaign default).
	Codec string `json:"codec,omitempty"`
}

// Entry is one NDJSON record. A single struct covers every kind; unused
// fields stay at their zero values and are omitted on the wire.
type Entry struct {
	// T is the record kind (KindBegin .. KindDone).
	T string `json:"t"`

	// SpecHash fingerprints the campaign spec + dataset (begin records).
	SpecHash string `json:"specHash,omitempty"`
	// Engine is the engine name the campaign ran under (begin records).
	Engine string `json:"engine,omitempty"`
	// Strategy is the grouping strategy ordinal (begin records).
	Strategy int `json:"strategy,omitempty"`
	// GroupParam is the grouping parameter (begin records).
	GroupParam int64 `json:"groupParam,omitempty"`
	// Fields is the per-field pinned plan (begin records).
	Fields []FieldPlan `json:"fields,omitempty"`
	// Meta carries caller bookkeeping (e.g. the serve daemon's original
	// submit request) so an external recovery pass can reconstruct the
	// campaign without out-of-band state (begin records).
	Meta map[string]string `json:"meta,omitempty"`

	// Group is the group id (group/sent/ack records).
	Group int `json:"group,omitempty"`
	// Members lists the field indices packed into the group (group records).
	Members []int `json:"members,omitempty"`
	// Bytes is the packed archive size (group records).
	Bytes int64 `json:"bytes,omitempty"`
	// Archive is the FNV-64a digest of the archive bytes, hex. Group
	// records record it; ack records echo it so a mismatched (voided) ack
	// is distinguishable from a verified one.
	Archive string `json:"archive,omitempty"`
	// CRC is the CRC-32C of the integrity frame's payload, hex (group
	// records; omitted when zero, as in journals of unframed archives an
	// earlier build could write).
	CRC string `json:"crc,omitempty"`
	// Digests are the per-member reconstruction digests, hex, parallel to
	// the group's Members (ack records).
	Digests []string `json:"digests,omitempty"`
	// Degraded lists the field indices of the group's members the bound
	// audit quarantined (ack records; omitted when none was).
	Degraded []int `json:"degraded,omitempty"`
}

// GroupState is one group's accumulated journal state.
type GroupState struct {
	// ID is the group id (unique within the campaign, monotone per
	// incarnation).
	ID int
	// Members are the field indices packed into this group.
	Members []int
	// Bytes is the packed archive size.
	Bytes int64
	// ArchiveDigest is the FNV-64a digest of the archive bytes.
	ArchiveDigest uint64
	// FrameCRC is the CRC-32C of the integrity frame's payload (zero in
	// journals of unframed archives an earlier build could write).
	FrameCRC uint32
	// Sent reports the transport accepted the archive.
	Sent bool
	// Acked reports the group verified end to end; acked groups are
	// skipped on resume.
	Acked bool
	// Digests are per-member reconstruction digests (set when Acked).
	Digests []uint64
	// Degraded lists the field indices of members the bound audit
	// quarantined (set when Acked).
	Degraded []int
}

// Manifest is the replayed state of one campaign journal.
type Manifest struct {
	// SpecHash fingerprints the spec + dataset the journal was written under.
	SpecHash string
	// Engine is the engine name recorded at begin.
	Engine string
	// Strategy and GroupParam are the grouping knobs recorded at begin.
	Strategy   int
	GroupParam int64
	// Fields is the pinned per-field plan recorded at begin.
	Fields []FieldPlan
	// Meta is the caller bookkeeping recorded at begin.
	Meta map[string]string
	// Groups maps group id → state for every group the journal mentions.
	Groups map[int]*GroupState
	// Done reports the campaign completed (nothing to resume).
	Done bool
	// Resumes counts resumed incarnations recorded in the journal.
	Resumes int
}

// corruptf builds an ErrCorrupt-wrapped error.
func corruptf(format string, args ...interface{}) error {
	return fmt.Errorf("%w: "+format, append([]interface{}{ErrCorrupt}, args...)...)
}

// Parse replays a journal's raw bytes into a Manifest. A torn final line
// (no trailing newline — the normal artifact of a crash mid-append) is
// discarded; every other inconsistency returns an error wrapping
// ErrCorrupt. Parse never allocates proportionally to anything but the
// input length, so a crafted journal cannot balloon memory.
func Parse(data []byte) (*Manifest, error) {
	m := &Manifest{Groups: make(map[int]*GroupState)}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, len(data)+1)
	torn := len(data) > 0 && data[len(data)-1] != '\n'
	var lines [][]byte
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		lines = append(lines, append([]byte(nil), line...))
	}
	if err := sc.Err(); err != nil {
		return nil, corruptf("scan: %v", err)
	}
	if torn && len(lines) > 0 {
		lines = lines[:len(lines)-1]
	}
	if len(lines) == 0 {
		return nil, corruptf("no complete records")
	}
	for n, line := range lines {
		var e Entry
		if err := json.Unmarshal(line, &e); err != nil {
			return nil, corruptf("record %d: %v", n, err)
		}
		if err := m.apply(&e, n); err != nil {
			return nil, err
		}
	}
	if m.SpecHash == "" {
		return nil, corruptf("missing begin record")
	}
	return m, nil
}

// apply folds one record into the manifest.
func (m *Manifest) apply(e *Entry, n int) error {
	switch e.T {
	case KindBegin:
		if m.SpecHash != "" {
			if e.SpecHash != m.SpecHash {
				return corruptf("record %d: second begin with different spec hash", n)
			}
			return nil // idempotent duplicate
		}
		if e.SpecHash == "" {
			return corruptf("record %d: begin without spec hash", n)
		}
		if len(e.Fields) == 0 || len(e.Fields) > maxFields {
			return corruptf("record %d: begin with %d fields", n, len(e.Fields))
		}
		for i, fp := range e.Fields {
			if fp.Name == "" {
				return corruptf("record %d: field %d unnamed", n, i)
			}
		}
		m.SpecHash = e.SpecHash
		m.Engine = e.Engine
		m.Strategy = e.Strategy
		m.GroupParam = e.GroupParam
		m.Fields = e.Fields
		m.Meta = e.Meta
		return nil
	case KindGroup:
		if m.SpecHash == "" {
			return corruptf("record %d: group before begin", n)
		}
		if e.Group < 0 || e.Group > maxGroupID {
			return corruptf("record %d: group id %d out of range", n, e.Group)
		}
		if len(e.Members) == 0 || len(e.Members) > len(m.Fields) {
			return corruptf("record %d: group %d has %d members for %d fields", n, e.Group, len(e.Members), len(m.Fields))
		}
		for _, idx := range e.Members {
			if idx < 0 || idx >= len(m.Fields) {
				return corruptf("record %d: group %d member %d out of range", n, e.Group, idx)
			}
		}
		if e.Bytes < 0 {
			return corruptf("record %d: group %d has negative size", n, e.Group)
		}
		digest, err := parseDigest(e.Archive)
		if err != nil {
			return corruptf("record %d: group %d archive digest: %v", n, e.Group, err)
		}
		var frameCRC uint32
		if e.CRC != "" {
			v, err := strconv.ParseUint(e.CRC, 16, 32)
			if err != nil {
				return corruptf("record %d: group %d frame crc: %v", n, e.Group, err)
			}
			frameCRC = uint32(v)
		}
		if prev, ok := m.Groups[e.Group]; ok {
			if prev.ArchiveDigest != digest || prev.FrameCRC != frameCRC || prev.Bytes != e.Bytes || !equalInts(prev.Members, e.Members) {
				return corruptf("record %d: group %d re-recorded with different contents", n, e.Group)
			}
			return nil // idempotent duplicate
		}
		m.Groups[e.Group] = &GroupState{
			ID:            e.Group,
			Members:       e.Members,
			Bytes:         e.Bytes,
			ArchiveDigest: digest,
			FrameCRC:      frameCRC,
		}
		return nil
	case KindSent:
		g, ok := m.Groups[e.Group]
		if !ok {
			return corruptf("record %d: sent for unknown group %d", n, e.Group)
		}
		g.Sent = true
		return nil
	case KindAck:
		g, ok := m.Groups[e.Group]
		if !ok {
			return corruptf("record %d: ack for unknown group %d", n, e.Group)
		}
		if e.Archive != "" {
			echo, err := parseDigest(e.Archive)
			if err != nil {
				return corruptf("record %d: ack for group %d archive echo: %v", n, e.Group, err)
			}
			if echo != g.ArchiveDigest {
				// The ack verified a different archive than the group record
				// describes — void it (leave the group unacked so resume
				// re-sends it) instead of trusting either side. Legacy
				// echo-less acks skip this check.
				return nil
			}
		}
		if len(e.Digests) != len(g.Members) {
			return corruptf("record %d: ack for group %d has %d digests for %d members", n, e.Group, len(e.Digests), len(g.Members))
		}
		digests := make([]uint64, len(e.Digests))
		for i, d := range e.Digests {
			v, err := parseDigest(d)
			if err != nil {
				return corruptf("record %d: ack digest %d: %v", n, i, err)
			}
			digests[i] = v
		}
		if g.Acked && !equalUints(g.Digests, digests) {
			return corruptf("record %d: group %d re-acked with different digests", n, e.Group)
		}
		if len(e.Degraded) > 0 {
			member := make(map[int]bool, len(g.Members))
			for _, idx := range g.Members {
				member[idx] = true
			}
			for _, idx := range e.Degraded {
				if !member[idx] {
					return corruptf("record %d: ack for group %d degrades field %d, not a member", n, e.Group, idx)
				}
			}
		}
		g.Acked = true
		g.Digests = digests
		g.Degraded = e.Degraded
		return nil
	case KindResume:
		if m.SpecHash == "" {
			return corruptf("record %d: resume before begin", n)
		}
		m.Resumes++
		return nil
	case KindDone:
		if m.SpecHash == "" {
			return corruptf("record %d: done before begin", n)
		}
		m.Done = true
		return nil
	default:
		return corruptf("record %d: unknown kind %q", n, e.T)
	}
}

// Load reads and replays a journal file.
func Load(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// CheckSpec compares the manifest's recorded spec hash against the hash of
// the spec a resume attempt is about to run, returning ErrSpecMismatch on
// disagreement.
func (m *Manifest) CheckSpec(specHash string) error {
	if m.SpecHash != specHash {
		return fmt.Errorf("%w: journal %s vs campaign %s", ErrSpecMismatch, m.SpecHash, specHash)
	}
	return nil
}

// DoneFields reports, per field index, whether an acked group already
// covers the field, along with the recorded reconstruction digest and
// whether the bound audit quarantined it.
func (m *Manifest) DoneFields() (done []bool, digests []uint64, degraded []bool) {
	done = make([]bool, len(m.Fields))
	digests = make([]uint64, len(m.Fields))
	degraded = make([]bool, len(m.Fields))
	for _, g := range sortedGroups(m.Groups) {
		if !g.Acked {
			continue
		}
		for i, idx := range g.Members {
			done[idx] = true
			digests[idx] = g.Digests[i]
		}
		for _, idx := range g.Degraded {
			degraded[idx] = true
		}
	}
	return done, digests, degraded
}

// AckedGroups counts groups verified end to end.
func (m *Manifest) AckedGroups() int {
	n := 0
	for _, g := range m.Groups {
		if g.Acked {
			n++
		}
	}
	return n
}

// AckedBytes sums the archive bytes of acked groups — the work a resume
// does not redo.
func (m *Manifest) AckedBytes() int64 {
	var b int64
	for _, g := range m.Groups {
		if g.Acked {
			b += g.Bytes
		}
	}
	return b
}

// MaxGroupID returns the largest recorded group id, or -1 for none. A
// resumed incarnation numbers its groups from MaxGroupID()+1 so ids stay
// unique across incarnations.
func (m *Manifest) MaxGroupID() int {
	max := -1
	for id := range m.Groups {
		if id > max {
			max = id
		}
	}
	return max
}

// SortedGroups returns the manifest's groups in id order — deterministic
// iteration for replaying acked state into a fresh journal or reporting.
func (m *Manifest) SortedGroups() []*GroupState { return sortedGroups(m.Groups) }

// sortedGroups returns the groups in id order so replay-derived state is
// deterministic regardless of map iteration.
func sortedGroups(groups map[int]*GroupState) []*GroupState {
	out := make([]*GroupState, 0, len(groups))
	for _, g := range groups {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// parseDigest decodes a 64-bit hex digest.
func parseDigest(s string) (uint64, error) {
	if s == "" {
		return 0, errors.New("empty digest")
	}
	if len(s) > 16 {
		return 0, fmt.Errorf("digest %q too long", s)
	}
	return strconv.ParseUint(s, 16, 64)
}

// FormatDigest encodes a 64-bit digest the way the journal stores it.
func FormatDigest(d uint64) string { return strconv.FormatUint(d, 16) }

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalUints(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Writer appends records to a journal file with durability: every append
// is written and fsynced before returning, so the journal never claims a
// transition the disk has not seen. A Writer is safe for concurrent use —
// the campaign engine's transfer and verify stages append from different
// goroutines.
type Writer struct {
	mu   sync.Mutex
	f    *os.File
	path string
	// records/fsyncs count appends when SetMetrics installed a registry
	// (nil = off; Append pays a pointer check per record).
	records *obs.Counter
	fsyncs  *obs.Counter
}

// SetMetrics installs a metrics registry: every subsequent Append counts
// one journal_records_total and one journal_fsyncs_total. Nil reg resets
// to off.
func (w *Writer) SetMetrics(reg *obs.Registry) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.records = reg.Counter("journal_records_total")
	w.fsyncs = reg.Counter("journal_fsyncs_total")
}

// Create starts a fresh journal at path, truncating any previous file and
// fsyncing the parent directory so the file itself survives a crash.
func Create(path string) (*Writer, error) {
	if dir := filepath.Dir(path); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, err
	}
	return &Writer{f: f, path: path}, nil
}

// OpenAppend opens an existing journal for a resumed incarnation to extend.
func OpenAppend(path string) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return &Writer{f: f, path: path}, nil
}

// syncDir fsyncs a directory so a freshly created entry is durable.
func syncDir(dir string) error {
	if dir == "" {
		dir = "."
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Path reports the file the writer appends to.
func (w *Writer) Path() string { return w.path }

// Append durably writes one record: marshal, newline-terminate, write,
// fsync. The record is visible to Load only after Append returns nil.
func (w *Writer) Append(e Entry) error {
	buf, err := json.Marshal(e)
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return errors.New("journal: writer closed")
	}
	if _, err := w.f.Write(buf); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.records.Inc()
	w.fsyncs.Inc()
	return nil
}

// Begin records the campaign's identity and pinned plan.
func (w *Writer) Begin(specHash, engine string, strategy int, groupParam int64, fields []FieldPlan, meta map[string]string) error {
	return w.Append(Entry{T: KindBegin, SpecHash: specHash, Engine: engine,
		Strategy: strategy, GroupParam: groupParam, Fields: fields, Meta: meta})
}

// Group records a packed group before its archive is offered to the
// transport. frameCRC is the CRC-32C of the integrity frame's payload; a
// zero CRC is omitted from the record, the shape of journals of unframed
// archives an earlier build could write.
func (w *Writer) Group(id int, members []int, archiveDigest uint64, frameCRC uint32, bytes int64) error {
	e := Entry{T: KindGroup, Group: id, Members: members,
		Archive: FormatDigest(archiveDigest), Bytes: bytes}
	if frameCRC != 0 {
		e.CRC = strconv.FormatUint(uint64(frameCRC), 16)
	}
	return w.Append(e)
}

// Sent records the transport accepting a group's archive.
func (w *Writer) Sent(id int) error {
	return w.Append(Entry{T: KindSent, Group: id})
}

// Ack records a group verified end to end with its per-member
// reconstruction digests (parallel to the group's recorded members) and the
// field indices of the members the bound audit quarantined, if any.
// archiveDigest echoes the digest of the archive that verified; replay
// voids an ack whose echo disagrees with the group record, so a
// tampered journal can never skip an unverified group on resume.
func (w *Writer) Ack(id int, archiveDigest uint64, digests []uint64, degraded ...int) error {
	hex := make([]string, len(digests))
	for i, d := range digests {
		hex[i] = FormatDigest(d)
	}
	return w.Append(Entry{T: KindAck, Group: id,
		Archive: FormatDigest(archiveDigest), Digests: hex, Degraded: degraded})
}

// Resume records a resumed incarnation taking over the journal.
func (w *Writer) Resume() error { return w.Append(Entry{T: KindResume}) }

// Done records campaign completion.
func (w *Writer) Done() error { return w.Append(Entry{T: KindDone}) }

// Close releases the underlying file. Records already appended stay
// durable; Append after Close fails.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}
