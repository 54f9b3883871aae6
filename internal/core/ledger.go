package core

import (
	"sync"
	"sync/atomic"

	"ocelot/internal/obs"
)

// tally is one campaign counter: the per-run atomic that CampaignResult and
// CampaignStatus read, and the registry counter (nil when the spec carries
// no registry, or when the series is per-run only) that /metrics exposes.
// An event adds to both in one call, so the three views cannot drift.
type tally struct {
	n atomic.Int64
	c *obs.Counter
}

func (t *tally) add(d int64) {
	t.n.Add(d)
	t.c.Add(d)
}

func (t *tally) load() int64 { return t.n.Load() }

// ledger is a campaign's single set of books. Every handle owns one from
// Submit on; each engine event hits it exactly once, and CampaignResult,
// CampaignStatus and the registry's campaign_* series are all filled from
// it. Registry counters are shared by every campaign on the same registry,
// which is why the per-run atomics exist beside them.
type ledger struct {
	rawBytes        tally // campaign_raw_bytes_total
	fields          tally // campaign_fields_total: fields this incarnation executes
	compressedBytes tally // campaign_compressed_bytes_total
	chunks          tally // campaign_chunks_total
	sentBytes       tally // campaign_sent_bytes_total: every successful delivery, once
	sentGroups      tally // campaign_groups_total
	corruptions     tally // campaign_corruption_detected_total: every failed verification
	corruptGroups   tally // groups whose delivery failed verification at least once
	retransmits     tally // campaign_retransmits_total: successful repair deliveries
	retransmitBytes tally // framed repair bytes those deliveries shipped
	auditFailures   tally // campaign_bound_audit_failures_total
	degradedFields  tally // campaign_degraded_fields_total
	degradedBytes   tally // bytes the lossless quarantine escapes shipped
	retries         tally // transient retries across sends and the chunk fan-out
	failovers       tally // endpoint failovers across sends

	sendSeconds *obs.Histogram // campaign_send_seconds, one observation per attempt

	mu      sync.Mutex
	linkSec float64 // transport-reported seconds summed over deliveries; guarded by mu
}

// newLedger resolves the campaign metric family against the bundle's
// registry once, so the stage hot paths pay atomic adds — not registry
// lookups — per event. A nil bundle leaves every registry side a no-op.
func newLedger(o *obs.Obs) *ledger {
	l := &ledger{sendSeconds: o.Histogram("campaign_send_seconds")}
	l.rawBytes.c = o.Counter("campaign_raw_bytes_total")
	l.fields.c = o.Counter("campaign_fields_total")
	l.compressedBytes.c = o.Counter("campaign_compressed_bytes_total")
	l.chunks.c = o.Counter("campaign_chunks_total")
	l.sentBytes.c = o.Counter("campaign_sent_bytes_total")
	l.sentGroups.c = o.Counter("campaign_groups_total")
	l.corruptions.c = o.Counter("campaign_corruption_detected_total")
	l.retransmits.c = o.Counter("campaign_retransmits_total")
	l.auditFailures.c = o.Counter("campaign_bound_audit_failures_total")
	l.degradedFields.c = o.Counter("campaign_degraded_fields_total")
	return l
}
