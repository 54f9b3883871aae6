package core

import (
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

// verify is the decompress stage: check the delivered group's integrity
// frame (repairing the delivery if it arrived corrupted), decode and audit
// every member, and ack the group in the journal.
func (c *campaign) verify(ctx context.Context, sg group) (struct{}, error) {
	ctx, span := c.spec.Obs.StartSpan(ctx, "decompress", obs.Int("group", int64(sg.id)))
	defer span.End()
	payload, sums, err := c.openFrame(ctx, span, sg)
	if err != nil {
		return struct{}{}, err
	}
	members, err := grouping.Unpack(payload)
	if err != nil {
		return struct{}{}, err
	}
	if len(sums) != len(members) {
		return struct{}{}, fmt.Errorf("core: group %d: frame records %d members, archive holds %d", sg.id, len(sums), len(members))
	}
	span.Annotate(obs.Int("members", int64(len(members))))
	tile := make([]float64, codec.TileLen)
	for k, m := range members {
		if integrity.Checksum(m.Data) != sums[k] {
			return struct{}{}, fmt.Errorf("core: %s: member checksum does not match its pack-time digest", m.Name)
		}
		if err := c.verifyMember(ctx, m, tile); err != nil {
			return struct{}{}, err
		}
	}
	if c.jw != nil {
		// The group is now verified end to end — durable at the
		// destination. Record its per-member recon digests (parallel to the
		// group's journal members, which are sg.idxs) so a resume can fold
		// them without redoing the field, echoing the archive digest so a
		// later resume can prove the ack belongs to the archive the journal
		// describes.
		acks := make([]uint64, len(sg.idxs))
		for k, i := range sg.idxs {
			acks[k] = c.jobs[i].digest
		}
		_, jsp := c.spec.Obs.StartSpan(ctx, "journal.ack", obs.Int("group", int64(sg.id)))
		err := c.jw.Ack(sg.id, sg.digest, acks)
		jsp.End()
		if err != nil {
			return struct{}{}, err
		}
	}
	var raw int64
	for _, i := range sg.idxs {
		raw += int64(c.jobs[i].field.RawBytes())
	}
	c.h.led.verifiedRaw.add(raw)
	return struct{}{}, nil
}

// openFrame is the checksum gate before any decompression, and the
// destination's half of the repair protocol: of sg it reads only the id
// and what arrived. A delivery that fails the frame check is detected
// corruption, classified transient, and repaired in rounds, as many as the
// retry budget has attempts (a zero-value policy grants one): each round
// NAKs the block sums of the copy held here, and the source (sendRepair)
// answers with only the blocks that differ. A repair that arrives
// corrupted counts as one more detected corruption and leaves the held
// copy as it was for the next round. It returns the verified inner payload
// and the frame's per-member checksums.
func (c *campaign) openFrame(ctx context.Context, span *obs.Span, sg group) ([]byte, []uint32, error) {
	have := sg.delivered
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
	// working link, so a pause would only idle this decode worker. A send
	// that fails inside a round backs off in the shipper.
	policy := c.spec.Retry
	policy.Sleep = func(ctx context.Context, _ time.Duration) error { return ctx.Err() }
	rounds := 0
	_, err := policy.Do(ctx, func(ctx context.Context) error {
		rctx, rsp := c.spec.Obs.StartSpan(ctx, "retransmit",
			obs.Int("group", int64(sg.id)), obs.Int("nak_bytes", int64(len(nak))))
		defer rsp.End()
		d, err := c.sendRepair(rctx, sg, nak)
		if err != nil {
			return err
		}
		rounds++
		if payload, sums, err = patch(have, d); err != nil {
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

// patch unframes a repair delivery, applies it to the held copy, and
// checks the patched copy as the whole frame it must now be.
func patch(have, delivered []byte) ([]byte, []uint32, error) {
	packed, _, err := integrity.Verify(delivered)
	if err != nil {
		return nil, nil, err
	}
	members, err := grouping.Unpack(packed)
	if err != nil {
		return nil, nil, err
	}
	if len(members) != 1 {
		return nil, nil, fmt.Errorf("core: repair holds %d members, want 1", len(members))
	}
	fixed, err := integrity.Patch(have, members[0].Data)
	if err != nil {
		return nil, nil, err
	}
	return integrity.Verify(fixed)
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
	payload, err := lossless.Compress(floatsToBytes(j.field.Data), lossless.Deflate)
	if err != nil {
		return nil, err
	}
	payload = integrity.Wrap(payload, []uint32{integrity.Checksum(payload)})
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
