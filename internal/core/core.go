// Package core is the Ocelot framework: it composes the quality predictor
// and planner, the codec registry, the file-grouping optimizer, and the
// Globus-style WAN transfer into the end-to-end "compress and transfer"
// pipeline of the paper (Fig 1/2).
//
// Two paths are provided:
//
//   - Simulate: the calibrated analytic/discrete-event model used to
//     regenerate the paper's end-to-end results (Table VIII, Fig 16) for
//     testbeds we cannot physically run.
//   - Campaign: a real in-process pipeline that compresses actual data with
//     the Go SZ implementation, packs groups, moves bytes, decompresses,
//     and verifies error bounds.
package core

import (
	"errors"
	"fmt"
	"math/rand"

	"ocelot/internal/cluster"
	"ocelot/internal/grouping"
	"ocelot/internal/wan"
)

// Mode selects the transfer strategy, matching Table VIII's columns.
type Mode uint8

const (
	// ModeDirect transfers raw files (the paper's NP).
	ModeDirect Mode = iota + 1
	// ModeCompressed compresses each file individually first (CP).
	ModeCompressed
	// ModeGrouped compresses and packs small files into groups (OP).
	ModeGrouped
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeDirect:
		return "NP"
	case ModeCompressed:
		return "CP"
	case ModeGrouped:
		return "OP"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// FileSet describes one dataset campaign (e.g. "CESM, 7182 files, 1.61TB").
type FileSet struct {
	// App label for reports.
	App string
	// Sizes are per-file raw byte counts.
	Sizes []int64
	// Ratio is the effective compression ratio the compressor achieves on
	// this application's files (measured on synthetic samples or predicted
	// by the quality model).
	Ratio float64
	// RatioJitterFrac varies per-file ratios deterministically (0 = none).
	RatioJitterFrac float64
}

// TotalBytes sums the raw file sizes.
func (fs *FileSet) TotalBytes() int64 {
	var t int64
	for _, s := range fs.Sizes {
		t += s
	}
	return t
}

// UniformFileSet builds a FileSet of n equal files.
func UniformFileSet(app string, n int, fileBytes int64, ratio float64) *FileSet {
	sizes := make([]int64, n)
	for i := range sizes {
		sizes[i] = fileBytes
	}
	return &FileSet{App: app, Sizes: sizes, Ratio: ratio}
}

// Pipeline binds a source machine, destination machine, and WAN link.
type Pipeline struct {
	Source *cluster.Machine
	Dest   *cluster.Machine
	Link   *wan.Link
}

// Plan configures one simulated run.
type Plan struct {
	// Mode is the strategy; required.
	Mode Mode
	// SourceNodes for compression (default 16, the paper's Anvil setup).
	SourceNodes int
	// DestNodes for decompression (default: the destination's I/O knee).
	DestNodes int
	// GroupStrategy and GroupParam control ModeGrouped packing; defaults:
	// ByWorldSize with world = SourceNodes × cores.
	GroupStrategy grouping.Strategy
	GroupParam    int64
	// Seed drives deterministic jitter.
	Seed int64
}

// Report is the simulated outcome, matching Table VIII's columns.
type Report struct {
	Mode          Mode    `json:"mode"`
	Files         int     `json:"files"`
	RawBytes      int64   `json:"rawBytes"`
	MovedBytes    int64   `json:"movedBytes"`
	MovedFiles    int     `json:"movedFiles"`
	CompressSec   float64 `json:"compressSec"`
	TransferSec   float64 `json:"transferSec"`
	DecompressSec float64 `json:"decompressSec"`
	TotalSec      float64 `json:"totalSec"`
	// EffectiveMBps is the transfer-phase effective speed.
	EffectiveMBps float64 `json:"effectiveMBps"`
}

// Gain computes the paper's performance improvement (T(NP) − Total)/T(NP).
func Gain(direct, withCompression *Report) float64 {
	if direct.TotalSec <= 0 {
		return 0
	}
	return (direct.TotalSec - withCompression.TotalSec) / direct.TotalSec
}

// Simulate runs one plan over the calibrated models.
func (p *Pipeline) Simulate(fs *FileSet, plan Plan) (*Report, error) {
	if p.Source == nil || p.Dest == nil || p.Link == nil {
		return nil, errors.New("core: pipeline needs source, dest, link")
	}
	if err := p.Link.Validate(); err != nil {
		return nil, err
	}
	if len(fs.Sizes) == 0 {
		return nil, errors.New("core: empty file set")
	}
	if plan.Mode != ModeDirect && fs.Ratio <= 0 {
		return nil, errors.New("core: compression modes need a positive ratio")
	}
	srcNodes := plan.SourceNodes
	if srcNodes <= 0 {
		srcNodes = 16
	}
	dstNodes := plan.DestNodes
	if dstNodes <= 0 {
		dstNodes = int(p.Dest.IOKneeNodes)
	}
	rep := &Report{Mode: plan.Mode, Files: len(fs.Sizes), RawBytes: fs.TotalBytes()}

	switch plan.Mode {
	case ModeDirect:
		tr, err := p.Link.Estimate(fs.Sizes, plan.Seed)
		if err != nil {
			return nil, err
		}
		rep.TransferSec = tr.Seconds
		rep.TotalSec = tr.Seconds
		rep.MovedBytes = tr.Bytes
		rep.MovedFiles = tr.Files
		rep.EffectiveMBps = tr.EffectiveMBps
		return rep, nil

	case ModeCompressed, ModeGrouped:
		compressed := compressedSizes(fs, plan.Seed)
		rep.CompressSec = p.Source.CompressTime(fs.Sizes, srcNodes)

		moved := compressed
		if plan.Mode == ModeGrouped {
			strategy := plan.GroupStrategy
			if strategy == 0 {
				strategy = grouping.ByWorldSize
			}
			param := plan.GroupParam
			if param <= 0 {
				param = int64(srcNodes * p.Source.CoresPerNode)
			}
			planIdx, err := grouping.Plan(compressed, strategy, param)
			if err != nil {
				return nil, err
			}
			moved = grouping.GroupSizes(compressed, planIdx)
		}
		tr, err := p.Link.Estimate(moved, plan.Seed)
		if err != nil {
			return nil, err
		}
		rep.TransferSec = tr.Seconds
		rep.MovedBytes = tr.Bytes
		rep.MovedFiles = tr.Files
		rep.EffectiveMBps = tr.EffectiveMBps
		rep.DecompressSec = p.Dest.DecompressTime(fs.Sizes, dstNodes)
		rep.TotalSec = rep.CompressSec + rep.TransferSec + rep.DecompressSec
		return rep, nil

	default:
		return nil, fmt.Errorf("core: unknown mode %v", plan.Mode)
	}
}

// compressedSizes derives per-file compressed sizes from the set's ratio
// with optional deterministic jitter.
func compressedSizes(fs *FileSet, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed ^ 0x5EED))
	out := make([]int64, len(fs.Sizes))
	for i, s := range fs.Sizes {
		r := fs.Ratio
		if fs.RatioJitterFrac > 0 {
			r *= 1 + fs.RatioJitterFrac*(rng.Float64()*2-1)
			if r < 1 {
				r = 1
			}
		}
		c := int64(float64(s) / r)
		if c < 1 {
			c = 1
		}
		out[i] = c
	}
	return out
}

// CompareModes simulates NP, CP, and OP for one file set and returns the
// three reports (Table VIII row).
func (p *Pipeline) CompareModes(fs *FileSet, plan Plan) (direct, cp, op *Report, err error) {
	d := plan
	d.Mode = ModeDirect
	if direct, err = p.Simulate(fs, d); err != nil {
		return nil, nil, nil, err
	}
	c := plan
	c.Mode = ModeCompressed
	if cp, err = p.Simulate(fs, c); err != nil {
		return nil, nil, nil, err
	}
	o := plan
	o.Mode = ModeGrouped
	if op, err = p.Simulate(fs, o); err != nil {
		return nil, nil, nil, err
	}
	return direct, cp, op, nil
}
