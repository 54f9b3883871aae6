package core

import (
	"context"
	"fmt"
	"time"

	"ocelot/internal/grouping"
	"ocelot/internal/integrity"
	"ocelot/internal/obs"
	"ocelot/internal/sentinel"
)

// shipper moves named payloads to the destination with the campaign's full
// retry + failover budget: transient errors (link flaps, outage windows)
// retry in place with exponential backoff, and when the primary transport's
// budget is spent — or it fails permanently — the send moves to the next
// fallback endpoint under the same policy. Every successful delivery —
// first send, corruption repair, or quarantine escape — goes through
// ship, the single place link seconds and sent bytes are booked, so each
// is counted exactly once and a retried send never double-counts.
type shipper struct {
	transports []Transport // primary, then fallbacks in order
	// spec supplies the retry policy, the tracer, and TransportWeight: a
	// weight > 0 rides every attempt on weighted transports, so concurrent
	// campaigns split a shared link proportionally.
	spec *CampaignSpec
	now  func() time.Time
	led  *ledger
}

// send makes one attempt on one transport through the richest interface it
// implements, returning the bytes that arrived.
func (s *shipper) send(ctx context.Context, tr Transport, name string, data []byte) ([]byte, float64, error) {
	weight := s.spec.TransportWeight
	if dt, ok := tr.(DeliveredTransport); ok {
		return dt.SendDelivered(ctx, name, data, weight)
	}
	if wt, ok := tr.(WeightedTransport); ok && weight > 0 {
		sec, err := wt.SendWeighted(ctx, name, data, weight)
		return data, sec, err
	}
	sec, err := tr.Send(ctx, name, data)
	return data, sec, err
}

// ship delivers one payload and returns the bytes that actually arrived.
func (s *shipper) ship(ctx context.Context, name string, payload []byte) ([]byte, error) {
	var sec float64
	var delivered []byte
	var attempt int64
	r, f, err := sentinel.Failover(ctx, s.spec.Retry, len(s.transports),
		func(ctx context.Context, ep int) error {
			// One child span per attempt, so retries and failovers are
			// visible in the trace as repeated sends under the caller's span.
			attempt++
			actx, asp := s.spec.Obs.StartSpan(ctx, "send",
				obs.Int("attempt", attempt), obs.Int("endpoint", int64(ep)))
			defer asp.End()
			start := s.now()
			d, t, err := s.send(actx, s.transports[ep], name, payload)
			s.led.sendSeconds.Observe(s.now().Sub(start).Seconds())
			if err != nil {
				asp.Annotate(obs.String("error", err.Error()))
				return err
			}
			delivered, sec = d, t
			return nil
		})
	s.led.retries.add(int64(r))
	s.led.failovers.add(int64(f))
	if err != nil {
		return nil, err
	}
	s.led.sentBytes.add(int64(len(payload)))
	s.led.mu.Lock()
	s.led.linkSec += sec
	s.led.mu.Unlock()
	return delivered, nil
}

// sendRepair is the source's half of the repair protocol: it reads only
// the group's archive and the destination's NAK. The repair carries the
// blocks of the archive the NAK does not report intact, travels as a
// one-member grouping archive in an OCIF frame under the group's own wire
// name, and is booked as a retransmit. It returns what arrived. The member
// is named after the archive it patches, by the payload CRC-32C its frame
// records, so the same archive always gets the same repair name, whatever
// id the pipeline numbered its group with.
func (c *campaign) sendRepair(ctx context.Context, sg group, nak []byte) ([]byte, error) {
	repair := integrity.Repair(sg.archive, nak)
	name := fmt.Sprintf("repair-%08x", integrity.PayloadChecksum(sg.archive))
	framed, err := packFrame([]grouping.Member{{Name: name, Data: repair}})
	if err != nil {
		return nil, err
	}
	d, err := c.ship.ship(ctx, groupName(sg.id), framed)
	if err != nil {
		return nil, err
	}
	c.h.led.retransmits.add(1)
	c.h.led.retransmitBytes.add(int64(len(framed)))
	return d, nil
}

// groupName is the wire name of a group archive.
func groupName(id int) string { return fmt.Sprintf("group-%04d.ocgr", id) }

// transfer is the transfer stage: ship one packed group, journal it, and
// check what arrived (arrive), which emits the group's members.
func (c *campaign) transfer(ctx context.Context, pg group, emit func(member)) error {
	ctx, span := c.spec.Obs.StartSpan(ctx, "transfer",
		obs.Int("group", int64(pg.id)), obs.Int("bytes", int64(len(pg.archive))))
	defer span.End()
	delivered, err := c.ship.ship(ctx, groupName(pg.id), pg.archive)
	if err != nil {
		return err
	}
	c.h.led.sentGroups.add(1)
	if c.jw != nil {
		_, jsp := c.spec.Obs.StartSpan(ctx, "journal.sent", obs.Int("group", int64(pg.id)))
		err := c.jw.Sent(pg.id)
		jsp.End()
		if err != nil {
			return err
		}
	}
	return c.arrive(ctx, span, pg, delivered, emit)
}
