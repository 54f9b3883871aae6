package core

import (
	"ocelot/internal/planner"

	// Link every registered codec into campaign binaries so codec names
	// resolve and mixed-codec archives decompress via registry dispatch.
	_ "ocelot/internal/szx"
)

// CampaignResult reports a real campaign run.
type CampaignResult struct {
	Files    int
	RawBytes int64
	// Codec is the registry name the campaign compressed with; "mixed"
	// when a plan assigned different codecs to different fields (the
	// per-field detail is in Plan.Fields).
	Codec           string
	CompressedBytes int64
	Groups          int
	GroupedBytes    int64
	GroupBytes      []int64 // realized per-archive sizes, in emit order
	Ratio           float64
	CompressSec     float64
	DecompressSec   float64
	MaxRelError     float64 // max observed |err| / field range, ≤ RelErrorBound on success
	Metadata        string

	// Stage-graph accounting.
	PackSec     float64 // time spent packing group archives
	TransferSec float64 // transfer-stage span (first send start to last send end)
	LinkSec     float64 // transport-reported seconds (e.g. simulated WAN time)
	WallSec     float64 // end-to-end wall time of the campaign

	// Chunk fan-out accounting (populated when CampaignSpec.ChunkMB > 0).
	Chunks int // total compression chunks across all fields
	// ReconDigest folds, in field order (independent of completion order),
	// one XXH64 digest per field of the little-endian bytes of its
	// reconstructed float64 values, computed in the verify stage's
	// streaming pass. Two
	// fan-out campaigns over the same fields produced bit-identical
	// decompressed output iff their digests match — the check the
	// parallel-compression artifact uses to prove worker count never
	// changes the bytes. Zero when chunk fan-out is off: monolithic runs
	// do not pay the digest pass.
	ReconDigest uint64
	// OverlapSec is the measured concurrency between stages: the sum of
	// per-stage spans minus the run's span. Zero means strictly serial
	// phases; the stage graph's win is this time, hidden.
	OverlapSec float64
	Stages     []StageTiming

	// Fault-tolerance accounting (populated when the spec journals,
	// resumes, or retries — see CampaignSpec.Journal/ResumeFrom/Retry).
	// ReconDigest is also populated for journaled and resumed campaigns: a
	// resumed campaign folds the journal's recorded digests for skipped
	// fields with fresh digests for re-executed ones, reproducing the
	// uninterrupted run's digest bit for bit.
	Resumed       bool  // this run resumed from a journal
	SkippedGroups int   // journal-acked groups the resume did not re-execute
	SkippedBytes  int64 // their archive bytes — work the resume skipped
	Retries       int   // transient retries across transfer sends
	Failovers     int   // endpoint failovers across transfer sends

	// End-to-end integrity accounting: every archive is framed and every
	// reconstruction audited (see CampaignSpec.BoundAudit).
	// SentBytes-style accounting stays exact under corruption:
	// campaign_sent_bytes_total = GroupedBytes + RetransmitBytes +
	// DegradedBytes, since every delivery is counted once.
	CorruptGroups   int      // groups whose delivery failed checksum verification at least once
	Retransmits     int      // successful repair deliveries for corrupted groups
	RetransmitBytes int64    // bytes those repairs shipped (only the damaged blocks, framed)
	DegradedFields  []string // members the bound audit quarantined and re-shipped lossless
	DegradedBytes   int64    // bytes the lossless quarantine escapes shipped

	// Planner accounting (populated when CampaignSpec.Adaptive is set): the plan's
	// predictions beside the measured outcome, so every adaptive run
	// reports predicted vs. actual.
	Planned         bool    // true when a predictive plan chose the configs
	PlanSec         float64 // seconds spent sampling, predicting, deciding
	MinPSNR         float64 // measured min PSNR across fields (planned runs only)
	PredRatio       float64 // plan's predicted compression ratio (vs. Ratio)
	PredCompressSec float64 // predicted compress wall (vs. CompressSec)
	PredTransferSec float64 // predicted transfer makespan (vs. LinkEstSec)
	PredWallSec     float64 // predicted pipelined wall (vs. WallSec)
	// LinkEstSec is the link model's transfer makespan over the REALIZED
	// archive sizes — the honest "actual" beside PredTransferSec, since
	// LinkSec sums per-send seconds (overlap double-counted) while the
	// prediction is a makespan.
	LinkEstSec float64
	Plan       *planner.Plan // the full per-field decision table

	// Metrics is the inline flattened snapshot of the spec's metrics
	// registry at campaign completion (nil unless CampaignSpec.Obs carries
	// one): every counter/gauge keyed `name{labels}`, histograms as
	// `_sum`/`_count` pairs — the same series GET /metrics exposes from
	// the daemon, without running one.
	Metrics map[string]float64 `json:",omitempty"`
}
