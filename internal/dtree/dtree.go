// Package dtree implements a CART-style regression tree — the
// machine-learning model the paper uses to predict compression ratio,
// compression time, and PSNR from the extracted features (Section VI).
// Splits minimize within-node variance; training is deterministic.
package dtree

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
)

// Params controls tree growth.
type Params struct {
	// MaxDepth limits tree depth; ≤ 0 means 12.
	MaxDepth int `json:"maxDepth"`
	// MinSamplesLeaf is the minimum samples in any leaf; ≤ 0 means 2.
	MinSamplesLeaf int `json:"minSamplesLeaf"`
	// MinImpurityDecrease prunes splits that reduce variance by less than
	// this fraction of the parent impurity; < 0 means 1e-7.
	MinImpurityDecrease float64 `json:"minImpurityDecrease"`
}

func (p Params) withDefaults() Params {
	if p.MaxDepth <= 0 {
		p.MaxDepth = 12
	}
	if p.MinSamplesLeaf <= 0 {
		p.MinSamplesLeaf = 2
	}
	if p.MinImpurityDecrease < 0 {
		p.MinImpurityDecrease = 1e-7
	}
	return p
}

// node is one tree node; leaves have Feature == -1.
type node struct {
	Feature   int     `json:"f"`
	Threshold float64 `json:"t"`
	Value     float64 `json:"v"`
	Left      *node   `json:"l,omitempty"`
	Right     *node   `json:"r,omitempty"`
}

// Tree is a trained regression tree.
type Tree struct {
	Root     *node   `json:"root"`
	NumFeats int     `json:"numFeats"`
	MinY     float64 `json:"minY"`
	MaxY     float64 `json:"maxY"`
	params   Params
}

// ErrNoData indicates an empty training set.
var ErrNoData = errors.New("dtree: empty training set")

// Train fits a regression tree on X (samples × features) and targets y.
func Train(x [][]float64, y []float64, params Params) (*Tree, error) {
	if len(x) == 0 || len(y) == 0 {
		return nil, ErrNoData
	}
	if len(x) != len(y) {
		return nil, fmt.Errorf("dtree: %d samples vs %d targets", len(x), len(y))
	}
	nf := len(x[0])
	for i, row := range x {
		if len(row) != nf {
			return nil, fmt.Errorf("dtree: sample %d has %d features, want %d", i, len(row), nf)
		}
	}
	p := params.withDefaults()
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	minY, maxY := y[0], y[0]
	for _, v := range y {
		minY = math.Min(minY, v)
		maxY = math.Max(maxY, v)
	}
	t := &Tree{NumFeats: nf, MinY: minY, MaxY: maxY, params: p}
	t.Root = grow(x, y, idx, p, 0)
	return t, nil
}

func grow(x [][]float64, y []float64, idx []int, p Params, depth int) *node {
	mean, variance := meanVar(y, idx)
	n := &node{Feature: -1, Value: mean}
	if depth >= p.MaxDepth || len(idx) < 2*p.MinSamplesLeaf || variance <= 0 {
		return n
	}
	feat, thr, gain := bestSplit(x, y, idx, p)
	if feat < 0 || gain < p.MinImpurityDecrease*variance {
		return n
	}
	var left, right []int
	for _, i := range idx {
		if x[i][feat] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < p.MinSamplesLeaf || len(right) < p.MinSamplesLeaf {
		return n
	}
	n.Feature = feat
	n.Threshold = thr
	n.Left = grow(x, y, left, p, depth+1)
	n.Right = grow(x, y, right, p, depth+1)
	return n
}

func meanVar(y []float64, idx []int) (mean, variance float64) {
	if len(idx) == 0 {
		return 0, 0
	}
	var s, ss float64
	for _, i := range idx {
		s += y[i]
		ss += y[i] * y[i]
	}
	nf := float64(len(idx))
	mean = s / nf
	variance = ss/nf - mean*mean
	if variance < 0 {
		variance = 0
	}
	return mean, variance
}

// bestSplit scans every feature with a sorted prefix-sum sweep and returns
// the (feature, threshold) pair with the largest variance reduction.
func bestSplit(x [][]float64, y []float64, idx []int, p Params) (int, float64, float64) {
	bestFeat, bestThr, bestGain := -1, 0.0, 0.0
	n := len(idx)
	_, parentVar := meanVar(y, idx)
	parentSSE := parentVar * float64(n)

	order := make([]int, n)
	for f := 0; f < len(x[idx[0]]); f++ {
		copy(order, idx)
		sort.Slice(order, func(a, b int) bool { return x[order[a]][f] < x[order[b]][f] })
		var sumL, sseL float64
		var sumAll, ssAll float64
		for _, i := range order {
			sumAll += y[i]
			ssAll += y[i] * y[i]
		}
		var ssL float64
		for k := 0; k < n-1; k++ {
			yi := y[order[k]]
			sumL += yi
			ssL += yi * yi
			// Can't split between equal feature values.
			if x[order[k]][f] == x[order[k+1]][f] {
				continue
			}
			nl := float64(k + 1)
			nr := float64(n - k - 1)
			if int(nl) < p.MinSamplesLeaf || int(nr) < p.MinSamplesLeaf {
				continue
			}
			sseL = ssL - sumL*sumL/nl
			sumR := sumAll - sumL
			sseR := (ssAll - ssL) - sumR*sumR/nr
			gain := (parentSSE - sseL - sseR) / float64(n)
			if gain > bestGain {
				bestGain = gain
				bestFeat = f
				bestThr = (x[order[k]][f] + x[order[k+1]][f]) / 2
			}
		}
	}
	return bestFeat, bestThr, bestGain
}

// Predict returns the tree's estimate for one feature vector.
func (t *Tree) Predict(features []float64) (float64, error) {
	if len(features) != t.NumFeats {
		return 0, fmt.Errorf("dtree: got %d features, want %d", len(features), t.NumFeats)
	}
	n := t.Root
	for n.Feature >= 0 {
		if features[n.Feature] <= n.Threshold {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n.Value, nil
}

// Depth returns the tree depth (leaf-only tree has depth 0).
func (t *Tree) Depth() int { return depth(t.Root) }

func depth(n *node) int {
	if n == nil || n.Feature < 0 {
		return 0
	}
	l, r := depth(n.Left), depth(n.Right)
	if l > r {
		return l + 1
	}
	return r + 1
}

// NumLeaves counts the leaves.
func (t *Tree) NumLeaves() int { return leaves(t.Root) }

func leaves(n *node) int {
	if n == nil {
		return 0
	}
	if n.Feature < 0 {
		return 1
	}
	return leaves(n.Left) + leaves(n.Right)
}

// MarshalJSON / UnmarshalJSON give the tree a stable on-disk format.
type treeJSON struct {
	Root     *node   `json:"root"`
	NumFeats int     `json:"numFeats"`
	MinY     float64 `json:"minY"`
	MaxY     float64 `json:"maxY"`
}

// MarshalJSON implements json.Marshaler.
func (t *Tree) MarshalJSON() ([]byte, error) {
	return json.Marshal(treeJSON{Root: t.Root, NumFeats: t.NumFeats, MinY: t.MinY, MaxY: t.MaxY})
}

// UnmarshalJSON implements json.Unmarshaler.
func (t *Tree) UnmarshalJSON(b []byte) error {
	var tj treeJSON
	if err := json.Unmarshal(b, &tj); err != nil {
		return err
	}
	if tj.Root == nil {
		return errors.New("dtree: missing root")
	}
	t.Root = tj.Root
	t.NumFeats = tj.NumFeats
	t.MinY = tj.MinY
	t.MaxY = tj.MaxY
	return nil
}
