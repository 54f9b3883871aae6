// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (see docs/ARCHITECTURE.md for the experiment index),
// plus ablation benches for the repo's own design choices.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Each paper-artifact bench executes the corresponding driver from
// internal/experiments; ns/op therefore measures the cost of regenerating
// that artifact at the default laptop scale.
package ocelot

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"ocelot/internal/datagen"
	"ocelot/internal/experiments"
	"ocelot/internal/features"
	"ocelot/internal/grouping"
	"ocelot/internal/huffman"
	"ocelot/internal/sz"
)

// benchScale is used by the artifact benches: smaller than the default
// experiment scale so the full suite completes in minutes.
func benchScale() experiments.Scale { return experiments.Scale{Shrink: 24, Seed: 42} }

func runExperiment(b *testing.B, fn func(experiments.Scale) (*experiments.Result, error)) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := fn(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if res.Text == "" {
			b.Fatal("empty result")
		}
	}
}

// --- Paper tables ---

func BenchmarkTableI_DataFeatures(b *testing.B)           { runExperiment(b, experiments.TableI) }
func BenchmarkTableII_FilePatterns(b *testing.B)          { runExperiment(b, experiments.TableII) }
func BenchmarkTableV_CRTimePrediction(b *testing.B)       { runExperiment(b, experiments.TableV) }
func BenchmarkTableVI_PSNRPredictionCESM(b *testing.B)    { runExperiment(b, experiments.TableVI) }
func BenchmarkTableVII_PSNRPredictionISABEL(b *testing.B) { runExperiment(b, experiments.TableVII) }
func BenchmarkTableVIII_EndToEndTransfer(b *testing.B)    { runExperiment(b, experiments.TableVIII) }

// --- Paper figures ---

func BenchmarkFig4_EntropyVsTime(b *testing.B)        { runExperiment(b, experiments.Fig4) }
func BenchmarkFig5_FeaturesVsRatioNyx(b *testing.B)   { runExperiment(b, experiments.Fig5) }
func BenchmarkFig6_MirandaRrle(b *testing.B)          { runExperiment(b, experiments.Fig6) }
func BenchmarkFig7_PSNRFeaturesCESM(b *testing.B)     { runExperiment(b, experiments.Fig7) }
func BenchmarkFig8_PSNRFeaturesISABEL(b *testing.B)   { runExperiment(b, experiments.Fig8) }
func BenchmarkFig9_ParallelScaling(b *testing.B)      { runExperiment(b, experiments.Fig9) }
func BenchmarkFig12_PredictionErrorDist(b *testing.B) { runExperiment(b, experiments.Fig12) }
func BenchmarkFig13_OverheadAnalysis(b *testing.B)    { runExperiment(b, experiments.Fig13) }
func BenchmarkFig14_RTMTimeFeatures(b *testing.B)     { runExperiment(b, experiments.Fig14) }
func BenchmarkFig15_VisualQuality(b *testing.B)       { runExperiment(b, experiments.Fig15) }
func BenchmarkFig16_TransferComparison(b *testing.B)  { runExperiment(b, experiments.Fig16) }

// --- Ablations (DESIGN.md §5) ---

// benchField loads a medium CESM field once per process.
func benchField(b *testing.B) *datagen.Field {
	b.Helper()
	f, err := datagen.Generate("CESM", "TMQ", 10, 7)
	if err != nil {
		b.Fatal(err)
	}
	return f
}

// BenchmarkAblation_Predictor compares the three decorrelation pipelines.
func BenchmarkAblation_Predictor(b *testing.B) {
	f := benchField(b)
	for _, p := range []sz.Predictor{sz.PredictorLorenzo, sz.PredictorInterp, sz.PredictorRegression} {
		b.Run(p.String(), func(b *testing.B) {
			cfg := sz.DefaultConfig(1e-3)
			cfg.Predictor = p
			b.SetBytes(int64(f.NumPoints() * 8))
			b.ReportAllocs()
			var size int
			for i := 0; i < b.N; i++ {
				stream, _, err := sz.Compress(f.Data, f.Dims, cfg)
				if err != nil {
					b.Fatal(err)
				}
				size = len(stream)
			}
			b.ReportMetric(float64(f.RawBytes())/float64(size), "ratio")
		})
	}
}

// BenchmarkAblation_SamplingStride compares feature-extraction cost at the
// paper's sampling rates (Fig 13's knob).
func BenchmarkAblation_SamplingStride(b *testing.B) {
	f := benchField(b)
	cfg := sz.DefaultConfig(1e-3)
	for _, stride := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("stride-%d", stride), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := features.Extract(f.Data, f.Dims, cfg, features.Options{SampleStride: stride}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_GroupingStrategy compares packing strategies on a
// CESM-like inventory of small compressed files.
func BenchmarkAblation_GroupingStrategy(b *testing.B) {
	sizes := make([]int64, 7182)
	for i := range sizes {
		sizes[i] = 31e6 // ~224MB raw at ratio ~7
	}
	link := StandardLinks()["Anvil->Bebop"]
	cases := []struct {
		name     string
		strategy grouping.Strategy
		param    int64
	}{
		{"by-world-64", grouping.ByWorldSize, 64},
		{"by-target-2GB", grouping.ByTargetSize, 2 << 30},
		{"single-archive", grouping.SingleArchive, 0},
		{"no-grouping", 0, 0},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var seconds float64
			for i := 0; i < b.N; i++ {
				moved := sizes
				if c.strategy != 0 {
					plan, err := grouping.Plan(sizes, c.strategy, c.param)
					if err != nil {
						b.Fatal(err)
					}
					moved = grouping.GroupSizes(sizes, plan)
				}
				tr, err := link.Estimate(moved, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				seconds = tr.Seconds
			}
			b.ReportMetric(seconds, "transfer-sec")
		})
	}
}

// BenchmarkCampaignPipelineOverlap runs the same campaign on the
// phase-barriered engine and on the streaming pipelined engine over the
// same simulated WAN, and reports both wall times plus the speedup. The
// pipelined wall time sits measurably below the sequential
// compress-then-transfer sum because packed groups ship while later
// fields are still compressing.
func BenchmarkCampaignPipelineOverlap(b *testing.B) {
	var fields []*datagen.Field
	for _, name := range datagen.Fields("CESM")[:12] {
		f, err := datagen.Generate("CESM", name, 16, 5)
		if err != nil {
			b.Fatal(err)
		}
		fields = append(fields, f)
	}
	spec := CampaignSpec{
		RelErrorBound:   1e-3,
		Workers:         4,
		GroupParam:      6,
		Transport:       &SimulatedWANTransport{Link: StandardLinks()["Anvil->Bebop"], Timescale: 1},
		TransferStreams: 2,
	}
	seqSpec := spec
	seqSpec.Engine = EngineSequential
	b.ReportAllocs()
	var seqWall, pipeWall, overlap float64
	for i := 0; i < b.N; i++ {
		seq, err := Run(context.Background(), fields, seqSpec)
		if err != nil {
			b.Fatal(err)
		}
		pipe, err := Run(context.Background(), fields, spec)
		if err != nil {
			b.Fatal(err)
		}
		seqWall += seq.WallSec
		pipeWall += pipe.WallSec
		overlap += pipe.OverlapSec
	}
	n := float64(b.N)
	b.ReportMetric(seqWall/n, "sequential-sec")
	b.ReportMetric(pipeWall/n, "pipelined-sec")
	b.ReportMetric(overlap/n, "overlap-sec")
	if pipeWall > 0 {
		b.ReportMetric(seqWall/pipeWall, "speedup")
	}
}

// BenchmarkCompressThroughput measures raw compressor speed on each
// application's representative field.
func BenchmarkCompressThroughput(b *testing.B) {
	cases := []struct{ app, field string }{
		{"CESM", "TMQ"},
		{"Miranda", "density"},
		{"Nyx", "baryon_density"},
		{"ISABEL", "Pf48"},
		{"RTM", "snap-1048"},
	}
	for _, c := range cases {
		b.Run(c.app, func(b *testing.B) {
			f, err := datagen.Generate(c.app, c.field, 12, 7)
			if err != nil {
				b.Fatal(err)
			}
			cfg := sz.DefaultConfig(1e-3)
			b.SetBytes(int64(f.NumPoints() * 8))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := sz.Compress(f.Data, f.Dims, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Entropy hot path ---

// huffmanBenchStream builds an SZ-realistic quantization-code stream: a
// zero-bin-dominated normal spread over the default 64K alphabet.
func huffmanBenchStream(b *testing.B) (*huffman.SymbolStream, []uint64) {
	b.Helper()
	rng := rand.New(rand.NewSource(3))
	var s huffman.SymbolStream
	freqs := make([]uint64, 1<<16)
	for i := 0; i < 1<<18; i++ {
		sym := 1<<15 + int(rng.NormFloat64()*40)
		s.Append(sym)
		freqs[sym]++
	}
	return &s, freqs
}

// BenchmarkHuffmanEncode measures the production encode path (EncodeToSized
// into a reused buffer, payload bits precomputed from the frequency table).
func BenchmarkHuffmanEncode(b *testing.B) {
	s, freqs := huffmanBenchStream(b)
	table, err := huffman.BuildTable(freqs)
	if err != nil {
		b.Fatal(err)
	}
	bits, err := table.EncodedBitsStream(s)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(s.Len()) * 2) // compact representation: 2 bytes/symbol
	b.ReportAllocs()
	b.ResetTimer()
	var buf []byte
	for i := 0; i < b.N; i++ {
		out, err := huffman.EncodeToSized(buf[:0], s, table, bits)
		if err != nil {
			b.Fatal(err)
		}
		buf = out
	}
}

// BenchmarkHuffmanDecode measures the two-level table-driven decode
// (DecodeInto with a reused SymbolStream) against the same stream.
func BenchmarkHuffmanDecode(b *testing.B) {
	s, freqs := huffmanBenchStream(b)
	table, err := huffman.BuildTable(freqs)
	if err != nil {
		b.Fatal(err)
	}
	bits, err := table.EncodedBitsStream(s)
	if err != nil {
		b.Fatal(err)
	}
	enc, err := huffman.EncodeToSized(nil, s, table, bits)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(s.Len()) * 2)
	b.ReportAllocs()
	b.ResetTimer()
	var dec huffman.SymbolStream
	for i := 0; i < b.N; i++ {
		if err := huffman.DecodeInto(&dec, enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSZ3Throughput measures single-stream sz3 compress/decompress
// MB/s on one field.
func BenchmarkSZ3Throughput(b *testing.B) {
	f := benchField(b)
	cfg := sz.DefaultConfig(1e-3)
	stream, _, err := sz.Compress(f.Data, f.Dims, cfg)
	if err != nil {
		b.Fatal(err)
	}
	raw := int64(f.NumPoints() * 8)
	b.Run("compress", func(b *testing.B) {
		b.SetBytes(raw)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := sz.Compress(f.Data, f.Dims, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decompress", func(b *testing.B) {
		b.SetBytes(raw)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := sz.Decompress(stream); err != nil {
				b.Fatal(err)
			}
		}
	})
}
