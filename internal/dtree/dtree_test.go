package dtree

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// makeRegression builds a piecewise dataset a tree can fit well.
func makeRegression(n int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		a, b, c := rng.Float64()*10, rng.Float64()*10, rng.Float64()*10
		x[i] = []float64{a, b, c}
		switch {
		case a < 3:
			y[i] = 1 + 0.01*b
		case a < 7 && b > 5:
			y[i] = 5 + 0.01*c
		default:
			y[i] = 9
		}
	}
	return x, y
}

func TestFitsPiecewiseFunction(t *testing.T) {
	x, y := makeRegression(2000, 1)
	tree, err := Train(x, y, Params{})
	if err != nil {
		t.Fatal(err)
	}
	var sse float64
	for i := range x {
		p, err := tree.Predict(x[i])
		if err != nil {
			t.Fatal(err)
		}
		d := p - y[i]
		sse += d * d
	}
	rmse := math.Sqrt(sse / float64(len(x)))
	if rmse > 0.2 {
		t.Fatalf("train RMSE = %v, tree failed to fit", rmse)
	}
}

func TestGeneralizes(t *testing.T) {
	x, y := makeRegression(2000, 2)
	tree, err := Train(x[:1500], y[:1500], Params{MaxDepth: 8, MinSamplesLeaf: 5})
	if err != nil {
		t.Fatal(err)
	}
	var sse float64
	for i := 1500; i < 2000; i++ {
		p, _ := tree.Predict(x[i])
		d := p - y[i]
		sse += d * d
	}
	rmse := math.Sqrt(sse / 500)
	if rmse > 0.6 {
		t.Fatalf("test RMSE = %v", rmse)
	}
}

func TestConstantTarget(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}, {4}}
	y := []float64{7, 7, 7, 7}
	tree, err := Train(x, y, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Depth() != 0 {
		t.Fatalf("constant target should give a leaf, depth=%d", tree.Depth())
	}
	p, _ := tree.Predict([]float64{99})
	if p != 7 {
		t.Fatalf("predict = %v", p)
	}
}

func TestErrors(t *testing.T) {
	if _, err := Train(nil, nil, Params{}); err != ErrNoData {
		t.Fatal("want ErrNoData")
	}
	if _, err := Train([][]float64{{1}}, []float64{1, 2}, Params{}); err == nil {
		t.Fatal("want length mismatch error")
	}
	if _, err := Train([][]float64{{1}, {1, 2}}, []float64{1, 2}, Params{}); err == nil {
		t.Fatal("want ragged feature error")
	}
	tree, err := Train([][]float64{{1, 2}, {3, 4}}, []float64{1, 2}, Params{MinSamplesLeaf: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tree.Predict([]float64{1}); err == nil {
		t.Fatal("want feature-count error")
	}
}

func TestMaxDepthRespected(t *testing.T) {
	x, y := makeRegression(500, 3)
	for _, d := range []int{1, 2, 4} {
		tree, err := Train(x, y, Params{MaxDepth: d, MinSamplesLeaf: 1})
		if err != nil {
			t.Fatal(err)
		}
		if tree.Depth() > d {
			t.Fatalf("depth %d exceeds max %d", tree.Depth(), d)
		}
	}
}

func TestMinSamplesLeaf(t *testing.T) {
	x, y := makeRegression(200, 4)
	tree, err := Train(x, y, Params{MinSamplesLeaf: 50})
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumLeaves() > 4 {
		t.Fatalf("too many leaves (%d) for MinSamplesLeaf=50", tree.NumLeaves())
	}
}

func TestJSONRoundTrip(t *testing.T) {
	x, y := makeRegression(300, 5)
	tree, err := Train(x, y, Params{MaxDepth: 6})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(tree)
	if err != nil {
		t.Fatal(err)
	}
	var back Tree
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		p1, _ := tree.Predict(x[i])
		p2, _ := back.Predict(x[i])
		if p1 != p2 {
			t.Fatalf("prediction drift after serialization: %v vs %v", p1, p2)
		}
	}
	var bad Tree
	if err := json.Unmarshal([]byte(`{"numFeats":1}`), &bad); err == nil {
		t.Fatal("missing root must error")
	}
}

func TestDeterministic(t *testing.T) {
	x, y := makeRegression(400, 6)
	t1, err := Train(x, y, Params{})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := Train(x, y, Params{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		p1, _ := t1.Predict(x[i])
		p2, _ := t2.Predict(x[i])
		if p1 != p2 {
			t.Fatal("training is not deterministic")
		}
	}
}

// Property: predictions always lie within the training-target range.
func TestPredictionsWithinRangeQuick(t *testing.T) {
	x, y := makeRegression(500, 7)
	tree, err := Train(x, y, Params{})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := y[0], y[0]
	for _, v := range y {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	f := func(a, b, c float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(c) {
			return true
		}
		p, err := tree.Predict([]float64{a, b, c})
		if err != nil {
			return false
		}
		return p >= lo-1e-9 && p <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTrain(b *testing.B) {
	x, y := makeRegression(2000, 9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(x, y, Params{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredict(b *testing.B) {
	x, y := makeRegression(2000, 10)
	tree, err := Train(x, y, Params{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tree.Predict(x[i%len(x)]); err != nil {
			b.Fatal(err)
		}
	}
}
