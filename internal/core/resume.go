package core

import (
	"strconv"

	"ocelot/internal/journal"
)

// fingerprint hashes the facts a resume must not change: the grouping
// knobs, the campaign-level compression settings, the fan-out
// granularity, and the dataset's field identities. Per-field planned
// settings are deliberately excluded — a resumed adaptive campaign pins them
// from the journal's own begin record, which this fingerprint guards.
func (c *campaign) fingerprint() string {
	h := uint64(fnvOffset64)
	add := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= fnvPrime64
		}
		// Token separator so adjacent tokens cannot alias ("ab"+"c" ≠ "a"+"bc").
		h ^= 0x1f
		h *= fnvPrime64
	}
	s := c.spec
	// v2: reconstruction digests are XXH64, not FNV-64a. A journal written
	// under v1 records digests a resume could not reproduce, so it is
	// refused (journal.ErrSpecMismatch) rather than spliced.
	add("ocjl-v2")
	// Builds with more than one engine hashed its name here; the constant
	// keeps every journal the pipelined engine wrote resumable, and one
	// another engine wrote refused.
	add("pipelined")
	add(strconv.Itoa(int(s.GroupStrategy)))
	add(strconv.FormatInt(s.GroupParam, 10))
	add(strconv.FormatFloat(s.RelErrorBound, 'g', -1, 64))
	add(strconv.Itoa(int(s.Predictor)))
	add(s.Codec)
	add(strconv.FormatInt(s.chunkBytes(), 10))
	// Every archive is framed. Builds that could ship unframed archives
	// hashed the framing switch here; the constant keeps every framed
	// journal they wrote resumable, and an unframed one refused.
	add("true")
	if c.planned {
		add("planned")
	}
	for i := range c.jobs {
		f := c.jobs[i].field
		add(f.ID())
		for _, d := range f.Dims {
			add(strconv.Itoa(d))
		}
	}
	return journal.FormatDigest(h)
}

// byteDigest hashes raw bytes with FNV-64a; the journal stores one per
// packed archive so a resumed incarnation's bookkeeping can tell a
// re-packed group from a recorded one.
func byteDigest(b []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// replayAcked copies a prior incarnation's acked groups into a fresh
// journal, so a resume writing to a NEW path produces a journal that stands
// alone — a later resume needs only that file.
func replayAcked(jw *journal.Writer, m *journal.Manifest) error {
	for _, g := range m.SortedGroups() {
		if !g.Acked {
			continue
		}
		if err := jw.Group(g.ID, g.Members, g.ArchiveDigest, g.FrameCRC, g.Bytes); err != nil {
			return err
		}
		if err := jw.Sent(g.ID); err != nil {
			return err
		}
		if err := jw.Ack(g.ID, g.ArchiveDigest, g.Digests, g.Degraded...); err != nil {
			return err
		}
	}
	return nil
}
