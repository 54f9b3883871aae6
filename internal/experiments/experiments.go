// Package experiments contains one driver per table and figure of the
// paper's evaluation (Section VIII). Each driver returns a Result whose
// Text field is a formatted table mirroring the paper's artifact and whose
// numeric fields feed the regression assertions in the test-suite and the
// benchmark harness at the repository root.
//
// Scale: the paper's datasets are terabytes; drivers accept a Scale that
// shrinks every dataset dimension so a full reproduction sweep runs on a
// laptop. The *shape* of each result (who wins, by what factor, where the
// crossovers fall) is preserved; absolute numbers are not comparable.
package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"ocelot/internal/datagen"
	"ocelot/internal/metrics"
	"ocelot/internal/sz"
)

// Scale controls dataset sizes for the experiment drivers.
type Scale struct {
	// Shrink divides every dataset dimension (≥ 1). Higher = faster.
	Shrink int
	// Seed makes every driver deterministic.
	Seed int64
}

// QuickScale is for unit tests (~10⁴ points per field).
func QuickScale() Scale { return Scale{Shrink: 40, Seed: 42} }

func (s Scale) withDefaults() Scale {
	if s.Shrink < 1 {
		s.Shrink = 16
	}
	return s
}

// timing returns a scale suitable for experiments that *measure wall time*
// (Figs 4, 13, 14): fields must be large enough that compression takes
// milliseconds, or correlations and overhead fractions are pure noise.
func (s Scale) timing() Scale {
	s = s.withDefaults()
	if s.Shrink > 10 {
		s.Shrink = 10
	}
	return s
}

// Result is the common experiment output.
type Result struct {
	// ID is the paper artifact, e.g. "Table VIII".
	ID string
	// Text is the formatted reproduction of the artifact.
	Text string
	// Values holds named scalar outcomes for assertions.
	Values map[string]float64
}

func newResult(id string) *Result {
	return &Result{ID: id, Values: make(map[string]float64)}
}

// --- Table I ---

// TableI reproduces the basic data-based feature examples.
func TableI(scale Scale) (*Result, error) {
	scale = scale.withDefaults()
	res := newResult("Table I")
	specs := []struct{ app, field, label string }{
		{"CESM", "CLDHGH", "CLDHGH"},
		{"CESM", "FLDSC", "FLDSC"},
		{"CESM", "PCONVT", "PCONVT"},
		{"HACC", "vx", "HACC-VX"},
		{"HACC", "xx", "HACC-XX"},
	}
	var sb strings.Builder
	sb.WriteString("Table I: basic data-based features\n")
	sb.WriteString(fmt.Sprintf("%-12s %14s %14s %14s\n", "Dataset", "min", "max", "value range"))
	for _, sp := range specs {
		f, err := datagen.Generate(sp.app, sp.field, scale.Shrink, scale.Seed)
		if err != nil {
			return nil, err
		}
		st := metrics.ComputeRange(f.Data)
		sb.WriteString(fmt.Sprintf("%-12s %14.2f %14.2f %14.2f\n", sp.label, st.Min, st.Max, st.Range))
		res.Values[sp.label+"/range"] = st.Range
	}
	res.Text = sb.String()
	return res, nil
}

// --- shared helpers ---

// relConfig builds an SZ config whose absolute bound is relEB resolved
// against the data's range through sz.Config.AbsoluteBound — the single
// rel→abs resolver, so experiments quantize at exactly the bound the
// compressor would pick itself (degenerate ranges included).
func relConfig(data []float64, relEB float64) sz.Config {
	rel := sz.Config{ErrorBound: relEB, BoundMode: sz.BoundRelative}
	return sz.DefaultConfig(rel.AbsoluteBound(data))
}

// measureCompression compresses and reports (ratio, seconds, stats).
func measureCompression(f *datagen.Field, cfg sz.Config) (ratio, seconds float64, st *sz.Stats, err error) {
	start := time.Now()
	stream, stats, err := sz.Compress(f.Data, f.Dims, cfg)
	if err != nil {
		return 0, 0, nil, err
	}
	seconds = time.Since(start).Seconds()
	return metrics.CompressionRatio(f.RawBytes(), len(stream)), seconds, stats, nil
}

// measureCompressionBest repeats the measurement and keeps the fastest run
// — the standard noise-robust estimator for the timing-correlation figures,
// which otherwise wobble under machine load.
func measureCompressionBest(f *datagen.Field, cfg sz.Config, reps int) (ratio, seconds float64, err error) {
	best := math.Inf(1)
	for r := 0; r < reps; r++ {
		ra, sec, _, err := measureCompression(f, cfg)
		if err != nil {
			return 0, 0, err
		}
		ratio = ra
		if sec < best {
			best = sec
		}
	}
	return ratio, best, nil
}

// pearson computes the correlation coefficient between two series.
func pearson(x, y []float64) float64 {
	n := len(x)
	if n == 0 || n != len(y) {
		return 0
	}
	var sx, sy float64
	for i := 0; i < n; i++ {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var cov, vx, vy float64
	for i := 0; i < n; i++ {
		dx, dy := x[i]-mx, y[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

// fmtFloat prints with adaptive precision like the paper's tables.
func fmtFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.1f", v)
	case math.Abs(v) >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}
