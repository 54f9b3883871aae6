package sz

// regressionBlockEdge is the regression block edge length. The stream
// header does not record it, so encoder and decoder must share this one
// constant: a stream encoded with any other edge would decode against the
// wrong block grid.
const regressionBlockEdge = 6

// regressionTraverse implements the SZ2-style per-block linear-regression
// predictor: the grid is split into blocks of side regressionBlockEdge; a
// hyperplane f(x) = β0 + Σ βa·xa is least-squares fitted to each block's
// original values, the coefficients are stored (rounded to float32 so both
// codec directions predict identically), and the residuals are quantized.
//
// coefs yields a block's nd+1 coefficients — fitted and recorded when
// encoding, read back when decoding — and point encodes or decodes one
// point against its prediction.
func regressionTraverse(dims []int, point func(i int, pred float64),
	coefs func(strides, lo, hi []int) ([]float64, error)) error {
	nd := len(dims)
	strides := rowMajorStrides(dims)
	nBlocks := make([]int, nd)
	for a, d := range dims {
		nBlocks[a] = (d + regressionBlockEdge - 1) / regressionBlockEdge
	}
	blockCoord := make([]int, nd)
	totalBlocks := 1
	for _, nb := range nBlocks {
		totalBlocks *= nb
	}
	lo := make([]int, nd)
	hi := make([]int, nd)
	for b := 0; b < totalBlocks; b++ {
		for a := 0; a < nd; a++ {
			lo[a] = blockCoord[a] * regressionBlockEdge
			hi[a] = lo[a] + regressionBlockEdge
			if hi[a] > dims[a] {
				hi[a] = dims[a]
			}
		}
		cf, err := coefs(strides, lo, hi)
		if err != nil {
			return err
		}
		predictBlock(cf, strides, lo, hi, point)
		for a := nd - 1; a >= 0; a-- {
			blockCoord[a]++
			if blockCoord[a] < nBlocks[a] {
				break
			}
			blockCoord[a] = 0
		}
	}
	return nil
}

// predictBlock visits the block's points row-major, predicting each from
// the hyperplane coefs.
func predictBlock(coefs []float64, strides, lo, hi []int, point func(i int, pred float64)) {
	nd := len(lo)
	coords := make([]int, nd)
	copy(coords, lo)
	for {
		idx := 0
		pred := coefs[0]
		for a := 0; a < nd; a++ {
			idx += coords[a] * strides[a]
			// float64(·) rounds the product before the sum: unconverted,
			// gc fuses the two on arm64 (make nofma).
			pred += float64(coefs[a+1] * float64(coords[a]-lo[a]))
		}
		point(idx, pred)
		adv := false
		for a := nd - 1; a >= 0; a-- {
			coords[a]++
			if coords[a] < hi[a] {
				adv = true
				break
			}
			coords[a] = lo[a]
		}
		if !adv {
			return
		}
	}
}

// fitBlock computes the least-squares hyperplane coefficients
// [β0, β1..βnd] for the block's original values using local coordinates.
func fitBlock(data []float64, strides, lo, hi []int) []float64 {
	nd := len(lo)
	dim := nd + 1
	// Normal equations: A·β = b with A = Σ φφᵀ, b = Σ φ·y, φ = (1, x0..).
	a := make([][]float64, dim)
	for i := range a {
		a[i] = make([]float64, dim)
	}
	bvec := make([]float64, dim)
	phi := make([]float64, dim)
	phi[0] = 1

	coords := make([]int, nd)
	copy(coords, lo)
	count := 0
	var sum float64
	for {
		idx := 0
		for axis := 0; axis < nd; axis++ {
			idx += coords[axis] * strides[axis]
			phi[axis+1] = float64(coords[axis] - lo[axis])
		}
		y := data[idx]
		sum += y
		count++
		for i := 0; i < dim; i++ {
			for j := i; j < dim; j++ {
				a[i][j] += float64(phi[i] * phi[j])
			}
			bvec[i] += float64(phi[i] * y)
		}
		adv := false
		for axis := nd - 1; axis >= 0; axis-- {
			coords[axis]++
			if coords[axis] < hi[axis] {
				adv = true
				break
			}
			coords[axis] = lo[axis]
		}
		if !adv {
			break
		}
	}
	// Mirror the symmetric matrix.
	for i := 0; i < dim; i++ {
		for j := 0; j < i; j++ {
			a[i][j] = a[j][i]
		}
	}
	coefs, ok := solveLinear(a, bvec)
	if !ok {
		// Degenerate block (e.g., single row/column): mean-only model.
		coefs = make([]float64, dim)
		if count > 0 {
			coefs[0] = sum / float64(count)
		}
	}
	return coefs
}

// solveLinear solves a small dense system via Gaussian elimination with
// partial pivoting. Returns ok=false for (near-)singular systems.
func solveLinear(a [][]float64, b []float64) ([]float64, bool) {
	n := len(b)
	// Work on copies.
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n+1)
		copy(m[i], a[i])
		m[i][n] = b[i]
	}
	for col := 0; col < n; col++ {
		// Pivot.
		piv := col
		for r := col + 1; r < n; r++ {
			if abs(m[r][col]) > abs(m[piv][col]) {
				piv = r
			}
		}
		if abs(m[piv][col]) < 1e-12 {
			return nil, false
		}
		m[col], m[piv] = m[piv], m[col]
		for r := col + 1; r < n; r++ {
			f := m[r][col] / m[col][col]
			for k := col; k <= n; k++ {
				m[r][k] -= float64(f * m[col][k])
			}
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := m[i][n]
		for k := i + 1; k < n; k++ {
			s -= float64(m[i][k] * x[k])
		}
		x[i] = s / m[i][i]
	}
	return x, true
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
