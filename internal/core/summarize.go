package core

import (
	"fmt"
	"math"
	"sort"

	"ocelot/internal/grouping"
	"ocelot/internal/obs"
	"ocelot/internal/pipeline"
)

// summarize fills the result once the stage graph has drained: the per-field
// outcomes folded from the jobs, the packer's realized grouping, the
// ledger's counters, and the stage timings.
func (c *campaign) summarize(g *pipeline.Group, p *packer, wallSec float64) (*CampaignResult, error) {
	res, led := c.res, c.h.led
	res.WallSec = wallSec

	verified := 0
	minPSNR := math.Inf(1)
	var procRaw int64
	names := make([]string, len(c.jobs))
	for i := range c.jobs {
		names[i] = c.jobs[i].name
		// A resume carries the quarantines of the groups it skipped over
		// from the journal, so this covers the whole campaign.
		if c.jobs[i].quarantined {
			res.DegradedFields = append(res.DegradedFields, c.jobs[i].name)
		}
	}
	for _, i := range c.active {
		j := &c.jobs[i]
		procRaw += int64(j.field.RawBytes())
		if j.verified {
			verified++
		}
		if j.quarantined {
			continue
		}
		res.MaxRelError = math.Max(res.MaxRelError, j.relErr)
		minPSNR = math.Min(minPSNR, j.psnr)
	}
	if verified != len(c.active) {
		return nil, fmt.Errorf("core: %d members after grouping, want %d", verified, len(c.active))
	}
	sort.Strings(res.DegradedFields)
	if c.planned {
		res.MinPSNR = minPSNR
	}

	res.Groups = len(p.plan)
	res.GroupBytes = p.groupBytes
	for _, b := range p.groupBytes {
		res.GroupedBytes += b
	}
	res.Metadata = grouping.Metadata(names, p.plan, c.spec.GroupStrategy)
	res.CompressedBytes = led.compressedBytes.load()
	// The ratio rates the work this incarnation actually did: for a resume
	// that is the missing fields' raw bytes over their compressed bytes.
	if res.CompressedBytes > 0 {
		res.Ratio = float64(procRaw) / float64(res.CompressedBytes)
	}
	res.Chunks = int(led.chunks.load())
	res.LinkSec = led.linkSec // every writer has returned: the stage graph drained
	res.Retries = int(led.retries.load())
	res.Failovers = int(led.failovers.load())
	res.CorruptGroups = int(led.corruptGroups.load())
	res.Retransmits = int(led.retransmits.load())
	res.RetransmitBytes = led.retransmitBytes.load()
	res.DegradedBytes = led.degradedBytes.load()

	stats := g.Stats()
	res.OverlapSec = pipeline.Overlap(stats)
	// Per-stage throughput: compress consumes the raw field bytes, packing
	// consumes the compressed streams, the transfer ships the packed
	// archives, and decompression delivers raw bytes back — so
	// compress/decompress MB/s are directly comparable to the codec's
	// single-stream throughput and to the link's rate.
	pipeline.AttachThroughput(stats, "compress", res.RawBytes)
	pipeline.AttachThroughput(stats, "pack", res.CompressedBytes)
	pipeline.AttachThroughput(stats, "transfer", res.GroupedBytes)
	pipeline.AttachThroughput(stats, "decompress", res.RawBytes)
	res.Stages = stats
	for _, s := range stats {
		switch s.Name {
		case "compress":
			res.CompressSec = s.WallSec
		case "pack":
			res.PackSec = s.BusySec
		case "transfer":
			res.TransferSec = s.WallSec
		case "decompress":
			res.DecompressSec = s.WallSec
		}
		// Per-stage throughput distribution across runs.
		if s.MBps > 0 {
			c.spec.Obs.Histogram("campaign_stage_mbps", obs.L("stage", s.Name)).Observe(s.MBps)
		}
	}
	return c.finish()
}

// finish closes the books: the journal's done record, the digest fold over
// every field (journal-recorded digests for fields a resume skipped, fresh
// ones for the rest), and the inline metrics snapshot — taken last so it
// includes everything above.
func (c *campaign) finish() (*CampaignResult, error) {
	if c.jw != nil {
		if err := c.jw.Done(); err != nil {
			return nil, fmt.Errorf("core: journal %s: %w", c.spec.Journal, err)
		}
	}
	if c.digestOn {
		digests := make([]uint64, len(c.jobs))
		for i := range c.jobs {
			digests[i] = c.jobs[i].digest
		}
		c.res.ReconDigest = foldDigests(digests)
	}
	if o := c.spec.Obs; o != nil {
		c.res.Metrics = o.Metrics.Snapshot()
	}
	return c.res, nil
}
