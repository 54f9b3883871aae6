package experiments

import (
	"math"
	"strings"
	"testing"
)

func quick() Scale { return QuickScale() }

func TestTableI(t *testing.T) {
	res, err := TableI(quick())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "CLDHGH") || !strings.Contains(res.Text, "HACC-VX") {
		t.Fatalf("missing rows:\n%s", res.Text)
	}
	// Paper ranges: CLDHGH 0.92, HACC-XX 256.
	if math.Abs(res.Values["CLDHGH/range"]-0.92) > 0.02 {
		t.Errorf("CLDHGH range = %v", res.Values["CLDHGH/range"])
	}
	if math.Abs(res.Values["HACC-XX/range"]-256) > 2 {
		t.Errorf("HACC-XX range = %v", res.Values["HACC-XX/range"])
	}
}

func TestTableII(t *testing.T) {
	res, err := TableII(quick())
	if err != nil {
		t.Fatal(err)
	}
	s1, s10, s100, s1000 := res.Values["speed_1M"], res.Values["speed_10M"],
		res.Values["speed_100M"], res.Values["speed_1000M"]
	if !(s1 < s10 && s10 < s100) {
		t.Fatalf("speed must rise with file size: %v %v %v", s1, s10, s100)
	}
	if s100/s1 < 2.5 {
		t.Errorf("small-file penalty too weak: 1M=%.0f 100M=%.0f", s1, s100)
	}
	if s1000 < 900 || s1000 > 1200 {
		t.Errorf("1000M speed %.0f outside calibrated band (paper 1060)", s1000)
	}
}

func TestTableV(t *testing.T) {
	res, err := TableV(quick())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "P-CR") {
		t.Fatalf("bad table:\n%s", res.Text)
	}
	if res.Values["cr_mean_rel_err"] > 0.6 {
		t.Errorf("CR prediction mean relative error %.2f too high", res.Values["cr_mean_rel_err"])
	}
}

func TestTableVI(t *testing.T) {
	res, err := TableVI(quick())
	if err != nil {
		t.Fatal(err)
	}
	if res.Values["psnr_rmse"] <= 0 || res.Values["psnr_rmse"] > 45 {
		t.Errorf("CESM PSNR RMSE = %.2f (paper ~13)", res.Values["psnr_rmse"])
	}
}

func TestTableVII(t *testing.T) {
	res, err := TableVII(quick())
	if err != nil {
		t.Fatal(err)
	}
	if res.Values["psnr_rmse"] <= 0 || res.Values["psnr_rmse"] > 45 {
		t.Errorf("ISABEL PSNR RMSE = %.2f (paper ~14)", res.Values["psnr_rmse"])
	}
}

func TestTableVIII(t *testing.T) {
	res, err := TableVIII(quick())
	if err != nil {
		t.Fatal(err)
	}
	// Every route must show a positive gain; the paper range is 41%-91%.
	for _, key := range []string{
		"CESM/Anvil->Cori/gain", "CESM/Anvil->Bebop/gain", "CESM/Bebop->Cori/gain",
		"RTM/Anvil->Cori/gain", "RTM/Anvil->Bebop/gain", "RTM/Bebop->Cori/gain",
		"Miranda/Anvil->Cori/gain", "Miranda/Anvil->Bebop/gain", "Miranda/Bebop->Cori/gain",
	} {
		g, ok := res.Values[key]
		if !ok {
			t.Fatalf("missing %s", key)
		}
		if g <= 0.2 || g >= 0.99 {
			t.Errorf("%s = %.2f outside plausible band", key, g)
		}
	}
	// RTM on the slow link is the paper's best case (91%).
	if res.Values["RTM/Anvil->Bebop/gain"] < res.Values["Miranda/Anvil->Cori/gain"] {
		t.Errorf("RTM slow-link gain (%.2f) should exceed Miranda fast-link gain (%.2f)",
			res.Values["RTM/Anvil->Bebop/gain"], res.Values["Miranda/Anvil->Cori/gain"])
	}
}

func TestFig4(t *testing.T) {
	res, err := Fig4(quick())
	if err != nil {
		t.Fatal(err)
	}
	// Entropy/time correlation positive at the smallest bound.
	if res.Values["corr_eb_1e-06"] < 0 {
		t.Errorf("corr at eb=1e-6 = %.3f, want positive", res.Values["corr_eb_1e-06"])
	}
}

func TestFig5(t *testing.T) {
	res, err := Fig5(quick())
	if err != nil {
		t.Fatal(err)
	}
	if res.Values["corr_p0"] < 0.5 {
		t.Errorf("corr(p0, logCR) = %.3f, want strongly positive", res.Values["corr_p0"])
	}
	if res.Values["corr_qent"] > -0.5 {
		t.Errorf("corr(qent, logCR) = %.3f, want strongly negative", res.Values["corr_qent"])
	}
	if res.Values["corr_rrle"] < 0.3 {
		t.Errorf("corr(rrle, logCR) = %.3f, want positive", res.Values["corr_rrle"])
	}
}

func TestFig6(t *testing.T) {
	res, err := Fig6(quick())
	if err != nil {
		t.Fatal(err)
	}
	if res.Values["model_rel_err"] > 0.8 {
		t.Errorf("model relative error %.2f too high", res.Values["model_rel_err"])
	}
}

func TestFig7And8(t *testing.T) {
	for _, fn := range []func(Scale) (*Result, error){Fig7, Fig8} {
		res, err := fn(quick())
		if err != nil {
			t.Fatal(err)
		}
		// p0 grows with eb while PSNR falls → negative correlation.
		if res.Values["corr_p0_psnr"] > 0 {
			t.Errorf("%s: corr(p0,psnr) = %.3f, want negative", res.ID, res.Values["corr_p0_psnr"])
		}
		if res.Values["corr_qent_psnr"] < 0 {
			t.Errorf("%s: corr(qent,psnr) = %.3f, want positive", res.ID, res.Values["corr_qent_psnr"])
		}
	}
}

func TestFig9(t *testing.T) {
	res, err := Fig9(quick())
	if err != nil {
		t.Fatal(err)
	}
	// Compression monotone non-increasing 1→16 nodes.
	if res.Values["CESM/compress_n16"] > res.Values["CESM/compress_n1"] {
		t.Error("compression should speed up with nodes")
	}
	// Decompression contention: 16 nodes slower than 4.
	if res.Values["CESM/decompress_n16"] <= res.Values["CESM/decompress_n4"] {
		t.Error("decompression should degrade past the I/O knee")
	}
}

func TestFig12(t *testing.T) {
	res, err := Fig12(quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range []string{"Nyx", "CESM", "Miranda"} {
		w := res.Values[app+"/cr_ci_width"]
		if w < 0 {
			t.Errorf("%s: negative CI width", app)
		}
	}
}

func TestFig13(t *testing.T) {
	res, err := Fig13(quick())
	if err != nil {
		t.Fatal(err)
	}
	// Sampling must slash the overhead (paper: >70% → <5%; we assert a
	// generous 4x reduction to stay robust on loaded CI machines).
	full := res.Values["overhead_full_frac"]
	sampled := res.Values["overhead_sampled_frac"]
	if sampled >= full {
		t.Errorf("sampled overhead %.3f should be below full %.3f", sampled, full)
	}
}

func TestFig14(t *testing.T) {
	res, err := Fig14(quick())
	if err != nil {
		t.Fatal(err)
	}
	if res.Values["corr_qent_time"] < 0 {
		t.Errorf("corr(qent,time) = %.3f, want positive", res.Values["corr_qent_time"])
	}
}

func TestFig15(t *testing.T) {
	res, err := Fig15(quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"CLDMED", "TMQ", "TROP_Z"} {
		p := res.Values[f+"/psnr"]
		if p < 50 {
			t.Errorf("%s PSNR = %.1f, want > 50 (no visible difference)", f, p)
		}
	}
	if !strings.Contains(res.Text, "original:") {
		t.Error("missing ASCII render")
	}
}

func TestFig16(t *testing.T) {
	res, err := Fig16(quick())
	if err != nil {
		t.Fatal(err)
	}
	for key, v := range res.Values {
		if strings.HasSuffix(key, "/speedup") && v <= 1 {
			t.Errorf("%s = %.2f, compression should win", key, v)
		}
	}
	// Slow link (Anvil->Bebop) benefits more than fast link for RTM.
	if res.Values["RTM/Anvil->Bebop/speedup"] <= res.Values["RTM/Anvil->Cori/speedup"]*0.8 {
		t.Errorf("slow link should benefit at least comparably: bebop=%.1f cori=%.1f",
			res.Values["RTM/Anvil->Bebop/speedup"], res.Values["RTM/Anvil->Cori/speedup"])
	}
}

func TestPlanner(t *testing.T) {
	res, err := Planner(quick())
	if err != nil {
		t.Fatal(err)
	}
	if res.Values["adaptive_e2e_sec"] > res.Values["fixed_e2e_sec"]*1.05 {
		t.Errorf("adaptive campaign end-to-end (%.4fs) worse than the fixed baseline (%.4fs)",
			res.Values["adaptive_e2e_sec"], res.Values["fixed_e2e_sec"])
	}
	if res.Values["adaptive_xfer_sec"] > res.Values["fixed_xfer_sec"]*1.05 {
		t.Errorf("adaptive transfer makespan (%.4fs) worse than the fixed baseline (%.4fs)",
			res.Values["adaptive_xfer_sec"], res.Values["fixed_xfer_sec"])
	}
	// The workload's floor separates fields, so the adaptive plan must
	// strictly beat the global bound on bytes moved at the same floor.
	if res.Values["adaptive_bytes"] >= res.Values["fixed_bytes"] {
		t.Errorf("adaptive moved %.0f bytes, fixed baseline %.0f — no win from per-field bounds",
			res.Values["adaptive_bytes"], res.Values["fixed_bytes"])
	}
	if res.Values["adaptive_min_psnr"] < 66 {
		t.Errorf("adaptive min PSNR %.1f dB far below the 76 dB floor", res.Values["adaptive_min_psnr"])
	}
	if res.Values["adaptive_pred_ratio"] <= 0 || res.Values["adaptive_ratio"] <= 0 {
		t.Error("predicted-vs-actual ratio missing from the artifact")
	}
	if !strings.Contains(res.Text, "predicted vs actual") {
		t.Error("artifact text missing the predicted-vs-actual line")
	}
}
