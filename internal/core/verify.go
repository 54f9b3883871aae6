package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"ocelot/internal/codec"
	"ocelot/internal/grouping"
	"ocelot/internal/integrity"
	"ocelot/internal/lossless"
	"ocelot/internal/metrics"
	"ocelot/internal/obs"
	"ocelot/internal/sentinel"
)

// verify is the decompress stage: decode and audit one member of a
// delivered group, and, as the group's last member to verify, ack the
// group in the journal.
func (c *campaign) verify(ctx context.Context, m member, _ func(struct{})) error {
	ctx, span := c.spec.Obs.StartSpan(ctx, "decompress",
		obs.Int("group", int64(m.grp.id)), obs.String("field", m.Name))
	defer span.End()
	if integrity.Checksum(m.Data) != m.sum {
		return fmt.Errorf("core: %s: member checksum does not match its pack-time digest", m.Name)
	}
	if err := c.verifyMember(ctx, m.Member, make([]float64, codec.TileLen)); err != nil {
		return err
	}
	if m.grp.left.Add(-1) > 0 {
		return nil
	}
	return c.ack(ctx, m.grp.group)
}

// ack closes a group whose members all verified: it is now verified end to
// end — durable at the destination. A journaled campaign records the
// group's per-member recon digests (parallel to its journal members, which
// are sg.idxs) so a resume can fold them without redoing the field,
// echoing the archive digest so a later resume can prove the ack belongs to
// the archive the journal describes. The members the bound audit
// quarantined are recorded too, so a resumed result still reports them
// degraded. Each member's verify wrote its job before its countdown step,
// so the last step sees every member's outcome.
func (c *campaign) ack(ctx context.Context, sg group) error {
	if c.jw != nil {
		acks := make([]uint64, len(sg.idxs))
		var degraded []int
		for k, i := range sg.idxs {
			acks[k] = c.jobs[i].digest
			if c.jobs[i].quarantined {
				degraded = append(degraded, i)
			}
		}
		_, jsp := c.spec.Obs.StartSpan(ctx, "journal.ack", obs.Int("group", int64(sg.id)))
		err := c.jw.Ack(sg.id, sg.digest, acks, degraded...)
		jsp.End()
		if err != nil {
			return err
		}
	}
	var raw int64
	for _, i := range sg.idxs {
		raw += int64(c.jobs[i].field.RawBytes())
	}
	c.h.led.verifiedRaw.add(raw)
	return nil
}

// arrive is the transfer stage's last step: it checks a delivered group's
// integrity frame (repairing the delivery if it arrived corrupted) and
// emits each archive member as its own decompress-stage item, with the
// checksum the frame records for it and the group's countdown.
func (c *campaign) arrive(ctx context.Context, span *obs.Span, sg group, delivered []byte, emit func(member)) error {
	payload, sums, err := c.openFrame(ctx, span, sg, delivered)
	if err != nil {
		return err
	}
	members, err := grouping.Unpack(payload)
	if err != nil {
		return err
	}
	if len(sums) != len(members) {
		return fmt.Errorf("core: group %d: frame records %d members, archive holds %d", sg.id, len(sums), len(members))
	}
	span.Annotate(obs.Int("members", int64(len(members))))
	d := &delivery{group: sg}
	d.left.Store(int32(len(members)))
	for k, m := range members {
		emit(member{Member: m, sum: sums[k], grp: d})
	}
	return nil
}

// openFrame is the checksum gate before any decompression, and the
// destination's half of the repair protocol: have is what arrived, and of
// sg it reads only the id. A delivery that fails the frame check is
// detected corruption, classified transient, and repaired in rounds, as
// many as the retry budget has attempts (a zero-value policy grants one):
// each round NAKs the block sums of the copy held here, and the source
// (sendRepair) answers with only the blocks that differ. A repair that
// arrives corrupted counts as one more detected corruption and leaves the
// held copy as it was for the next round. The delivery may be the sender's
// own buffer, so the first repair that arrives is applied to a copy of it,
// the one copy the repair rounds make; every later round patches that copy
// in place. It returns the verified inner payload and the frame's
// per-member checksums.
func (c *campaign) openFrame(ctx context.Context, span *obs.Span, sg group, have []byte) ([]byte, []uint32, error) {
	payload, sums, verr := integrity.Verify(have)
	if verr == nil {
		return payload, sums, nil
	}
	led := c.h.led
	led.corruptGroups.add(1)
	led.corruptions.add(1)
	span.Annotate(obs.String("corrupt", verr.Error()))
	nak := integrity.BlockSums(have)
	// Rounds do not back off: a repair that arrived corrupted crossed a
	// working link, so a pause would only idle this transfer stream. A send
	// that fails inside a round backs off in the shipper.
	policy := c.spec.Retry
	policy.Sleep = func(ctx context.Context, _ time.Duration) error { return ctx.Err() }
	rounds := 0
	var held []byte // the delivery's one copy, patched round after round
	_, err := policy.Do(ctx, func(ctx context.Context) error {
		rctx, rsp := c.spec.Obs.StartSpan(ctx, "retransmit",
			obs.Int("group", int64(sg.id)), obs.Int("nak_bytes", int64(len(nak))))
		defer rsp.End()
		d, err := c.sendRepair(rctx, sg, nak)
		if err != nil {
			return err
		}
		rounds++
		if held == nil {
			held = bytes.Clone(have)
		}
		if held, payload, sums, err = patch(held, d); err != nil {
			led.corruptions.add(1)
			return sentinel.MarkTransient(err)
		}
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("core: group %d corrupted in transit and not recovered after %d retransmit(s): %w", sg.id, rounds, err)
	}
	return payload, sums, nil
}

// patch unframes a repair delivery, applies it in place to the held copy,
// and checks the patched copy as the whole frame it must now be. It returns
// the held copy — patched, or as it was when the repair arrived damaged —
// with the verified frame's payload and member checksums.
func patch(held, delivered []byte) ([]byte, []byte, []uint32, error) {
	packed, _, err := integrity.Verify(delivered)
	if err != nil {
		return held, nil, nil, err
	}
	members, err := grouping.Unpack(packed)
	if err != nil {
		return held, nil, nil, err
	}
	if len(members) != 1 {
		return held, nil, nil, fmt.Errorf("core: repair holds %d members, want 1", len(members))
	}
	fixed, err := integrity.Patch(held, members[0].Data)
	if err != nil {
		return held, nil, nil, err
	}
	payload, sums, err := integrity.Verify(fixed)
	return fixed, payload, sums, err
}

// verifyMember decodes one archive member and holds the codec to its
// contract: the pointwise bound audit, then the digest and (for planned
// campaigns) the PSNR score of what the destination now holds. It is one
// streaming pass: the member decodes into tile (codec.TileLen values),
// and each tile feeds the audit, the squared-error sum and the digest
// while it is still in cache, so no reconstruction is materialised.
func (c *campaign) verifyMember(ctx context.Context, m grouping.Member, tile []float64) error {
	_, span := c.spec.Obs.StartSpan(ctx, "verify", obs.String("field", m.Name))
	defer span.End()
	i, ok := c.byName[m.Name]
	if !ok {
		return fmt.Errorf("core: unknown member %q", m.Name)
	}
	j := &c.jobs[i]
	// Pointwise bound audit of every point: the codec's error-bound
	// contract is checked against the data, not trusted.
	audit := metrics.NewAudit(j.field.Data, 1, c.planned)
	digest := newReconHash()
	// A tile that does not fit the field is remembered, not returned: the
	// decoder's own verdict on a malformed member comes first, and the
	// shape checks after it, exactly as if the member had decoded whole.
	var fitErr error
	// Registry dispatch on the member's own magic: grouped archives may mix
	// codecs (per-field plan decisions), and pre-codec sz3 archives decode
	// through the same path byte-identically. Codecs without a tile decoder
	// visit their whole reconstruction once; it is walked in tiles too.
	dims, err := codec.DecodeTiles(m.Data, tile, func(start int, vals []float64) error {
		for len(vals) > 0 && fitErr == nil {
			t := vals[:min(len(vals), codec.TileLen)]
			if fitErr = audit.Add(start, t); fitErr == nil && c.digestOn {
				digest.write(t)
			}
			start, vals = start+len(t), vals[len(t):]
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("decompress %s: %w", m.Name, err)
	}
	if len(dims) != len(j.field.Dims) {
		return fmt.Errorf("core: %s: dims mismatch", m.Name)
	}
	if fitErr != nil {
		return fmt.Errorf("core: %s: %w", m.Name, fitErr)
	}
	maxErr, err := audit.MaxAbsError()
	if err != nil {
		return fmt.Errorf("core: %s: %w", m.Name, err)
	}
	if maxErr > j.absEB {
		c.h.led.auditFailures.add(1)
		if !c.spec.BoundAudit.Quarantine {
			return fmt.Errorf("core: %s: error %g exceeds bound %g", m.Name, maxErr, j.absEB)
		}
		// The codec broke its bound for this field: quarantine it — re-ship
		// the raw values lossless and record the degradation instead of
		// failing the campaign. The replacement is bit-exact, so it has no
		// error to report and no noise to score; it is what the destination
		// now holds, so it is what the digest covers.
		recon, err := c.quarantine(ctx, j)
		if err != nil {
			return fmt.Errorf("core: %s: bound violated (%g > %g) and lossless quarantine failed: %w", m.Name, maxErr, j.absEB, err)
		}
		digest = newReconHash()
		digest.write(recon)
		j.quarantined = true
		c.h.led.degradedFields.add(1)
		span.Annotate(obs.String("quarantined", "lossless"))
	} else {
		j.relErr = maxErr / j.valueRange
		if c.planned {
			if j.psnr, err = audit.PSNR(); err != nil {
				return err
			}
		}
	}
	if c.digestOn {
		j.digest = digest.sum()
	}
	j.verified = true
	return nil
}

// quarantine re-ships one bound-violating field through the lossless
// escape: the raw float64 bits travel deflate-compressed (with the
// backend's raw fallback) inside an integrity frame, are verified on
// arrival, and replace the lossy reconstruction bit-exactly. Every delivery
// is booked as degraded bytes, whether or not the escape ends up succeeding.
func (c *campaign) quarantine(ctx context.Context, j *fieldJob) ([]float64, error) {
	ctx, span := c.spec.Obs.StartSpan(ctx, "quarantine", obs.String("field", j.name))
	defer span.End()
	bits := floatsToBytes(j.field.Data)
	payload, err := frame(1, lossless.MaxCompressedLen(len(bits)), func(framed []byte) ([]byte, []uint32, error) {
		escape := len(framed)
		framed, err := lossless.AppendCompress(framed, bits, lossless.Deflate)
		if err != nil {
			return nil, nil, err
		}
		return framed, []uint32{integrity.Checksum(framed[escape:])}, nil
	})
	if err != nil {
		return nil, err
	}
	span.Annotate(obs.Int("bytes", int64(len(payload))))
	var delivered []byte
	_, err = c.spec.Retry.Do(ctx, func(ctx context.Context) error {
		d, err := c.ship.ship(ctx, j.name+".lossless", payload)
		if err != nil {
			return err
		}
		c.h.led.degradedBytes.add(int64(len(payload)))
		if d, _, err = integrity.Verify(d); err != nil {
			// The escape itself was corrupted in flight: detected, and
			// re-shipped under the same transient budget.
			c.h.led.corruptions.add(1)
			return sentinel.MarkTransient(err)
		}
		delivered = d
		return nil
	})
	if err != nil {
		return nil, err
	}
	raw, err := lossless.Decompress(delivered)
	if err != nil {
		return nil, err
	}
	return bytesToFloats(raw, len(j.field.Data))
}

// floatsToBytes flattens float64 values into their little-endian IEEE-754
// bit patterns — the wire form of a quarantined field's lossless escape.
func floatsToBytes(vals []float64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

// bytesToFloats inverts floatsToBytes, checking the payload carries
// exactly the expected value count.
func bytesToFloats(raw []byte, want int) ([]float64, error) {
	if len(raw) != 8*want {
		return nil, fmt.Errorf("core: lossless escape carries %d bytes, want %d", len(raw), 8*want)
	}
	vals := make([]float64, want)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return vals, nil
}
