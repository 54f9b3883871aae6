package sz

import (
	"testing"

	"ocelot/internal/datagen"
	"ocelot/internal/quant"
)

// quantizeRun is the interp runs' scalar quantizer (the generic loop of
// simd.Interp.Encode) over values v and their predictions: the range
// test, quant.Round, the recovered value and its post-check, and the code
// and reconstruction written by index (0 marks an escape). It divides the
// residual by 2eb, as the runs do, or, with recip, multiplies it by the
// reciprocal.
func quantizeRun(codes []uint16, recon, v, preds []float64, eb float64, recip bool) {
	const radius = 1 << 15
	eb2, inv, radF := 2*eb, 1/(2*eb), float64(radius)
	for i, pred := range preds {
		x := v[i]
		d := (x - pred) / eb2
		if recip {
			d = (x - pred) * inv
		}
		codes[i], recon[i] = 0, x
		if d > -radF && d < radF {
			bin := quant.Round(d)
			rec := pred + float64(float64(bin)*eb2)
			if e := rec - x; bin < radius && bin > -radius && !(e > eb || e < -eb) {
				codes[i], recon[i] = uint16(bin+radius), rec
			}
		}
	}
}

// BenchmarkQuantizeDivision measures whether the division is what sz3's
// scalar quantizer waits on: its loop over one 900×1800 CESM field at a
// relative bound of 1e-4, each value predicted linearly from its row
// neighbours as the interpolation predictor does, dividing by 2eb and
// multiplying by its reciprocal. It reports ns per value and, for the
// multiply, how many of the field's codes it changes.
func BenchmarkQuantizeDivision(b *testing.B) {
	fields, err := datagen.GenerateFirst("CESM", 1, 2, 42)
	if err != nil {
		b.Fatal(err)
	}
	v := fields[0].Data
	preds := make([]float64, len(v))
	for i := 1; i+1 < len(v); i++ {
		preds[i] = (v[i-1] + v[i+1]) / 2
	}
	eb := Config{ErrorBound: 1e-4, BoundMode: BoundRelative}.AbsoluteBound(v)
	want, recon := make([]uint16, len(v)), make([]float64, len(v))
	quantizeRun(want, recon, v, preds, eb, false)
	for _, tc := range []struct {
		name  string
		recip bool
	}{{"divide", false}, {"reciprocal", true}} {
		b.Run(tc.name, func(b *testing.B) {
			codes := make([]uint16, len(v))
			for i := 0; i < b.N; i++ {
				quantizeRun(codes, recon, v, preds, eb, tc.recip)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(v)), "ns/value")
			changed := 0
			for i := range codes {
				if codes[i] != want[i] {
					changed++
				}
			}
			b.ReportMetric(float64(changed), "changed_codes")
		})
	}
}
