// Package datagen synthesizes the scientific datasets used by the paper's
// evaluation (Table IV): CESM climate fields, Miranda hydrodynamics, RTM
// seismic wavefields, Nyx cosmology, Hurricane ISABEL, QMCPACK orbitals, and
// HACC particle data. Real datasets are not redistributable, so each field
// is replaced by a seeded synthetic equivalent that matches the original's
// dimensionality, value range (paper Table I), smoothness and noise profile
// — the properties that drive prediction-based compression behaviour.
package datagen

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"ocelot/internal/simd"
)

// Field is one named variable of an application dataset.
type Field struct {
	App         string    // application name, e.g. "CESM"
	Name        string    // field name, e.g. "CLDHGH"
	Dims        []int     // row-major shape, dims[0] slowest
	Data        []float64 // values
	ElementSize int       // bytes/element in the original dataset (4 = float32)
}

// NumPoints returns the number of values in the field.
func (f *Field) NumPoints() int { return len(f.Data) }

// RawBytes returns the field's uncompressed size using the original
// dataset's element width.
func (f *Field) RawBytes() int { return len(f.Data) * f.ElementSize }

// ID returns "App/Name".
func (f *Field) ID() string { return f.App + "/" + f.Name }

// texture selects the structural generator for a field.
type texture uint8

const (
	texSmooth    texture = iota + 1 // multi-octave spectral field
	texClamped                      // smooth, clamped at zero (cloud fraction)
	texLogSmooth                    // log10 of a positive lognormal field
	texWave                         // expanding wavefront (RTM)
	texLognormal                    // exp(gaussian): cosmology density
	texVortex                       // rotating storm (ISABEL winds)
	texGaussian                     // white gaussian noise (HACC velocities)
	texUniform                      // white uniform noise (HACC positions)
	texOrbital                      // oscillatory orbital-like product field
)

// spec is the generation recipe for one field.
type spec struct {
	texture  texture
	alpha    float64 // spectral decay: higher = smoother
	noise    float64 // white-noise amplitude as a fraction of signal
	min, max float64 // target value range (paper Table I where known)
	param    float64 // texture-specific parameter
}

// baseDims holds each application's full-size shape (paper Table IV).
var baseDims = map[string][]int{
	"CESM":    {1800, 3600},
	"Miranda": {256, 384, 384},
	"RTM":     {235, 449, 449},
	"Nyx":     {512, 512, 512},
	"ISABEL":  {100, 500, 500},
	"QMCPACK": {288, 69, 69},
	"HACC":    {1 << 25},
}

// fieldSpecs registers every named field. RTM snapshots are handled
// dynamically (any "snap-NNNN" name is valid).
var fieldSpecs = map[string]map[string]spec{
	"CESM": {
		"CLDHGH":    {texture: texClamped, alpha: 2.2, noise: 0.02, min: 0.00, max: 0.92},
		"CLDMED":    {texture: texClamped, alpha: 2.0, noise: 0.05, min: 0.00, max: 0.99},
		"CLDLOW":    {texture: texClamped, alpha: 1.9, noise: 0.04, min: 0.00, max: 1.00},
		"FLDSC":     {texture: texSmooth, alpha: 2.4, noise: 0.01, min: 92.84, max: 418.24},
		"PCONVT":    {texture: texSmooth, alpha: 2.1, noise: 0.03, min: 39025.27, max: 103207.45},
		"TMQ":       {texture: texSmooth, alpha: 2.3, noise: 0.01, min: 0.31, max: 62.88},
		"TROP_Z":    {texture: texSmooth, alpha: 2.8, noise: 0.002, min: 5521.1, max: 17493.7},
		"ICEFRAC":   {texture: texClamped, alpha: 2.5, noise: 0.01, min: 0, max: 1},
		"PSL":       {texture: texSmooth, alpha: 2.7, noise: 0.004, min: 94987.3, max: 104719.8},
		"FLNSC":     {texture: texSmooth, alpha: 2.2, noise: 0.02, min: 23.4, max: 213.6},
		"ODV_ocar2": {texture: texLogSmooth, alpha: 1.8, noise: 0.05, min: 1.1e-12, max: 3.6e-8},
		"LHFLX":     {texture: texSmooth, alpha: 1.9, noise: 0.06, min: -41.5, max: 606.9},
		"TREFHT":    {texture: texSmooth, alpha: 2.6, noise: 0.005, min: 216.1, max: 316.2},
		"FSDTOA":    {texture: texSmooth, alpha: 3.0, noise: 0.001, min: 0, max: 1407.6},
		"SNOWHICE":  {texture: texClamped, alpha: 2.3, noise: 0.01, min: 0, max: 1.72},
	},
	"Miranda": {
		"density":     {texture: texSmooth, alpha: 2.6, noise: 0.002, min: 0.98, max: 3.03},
		"velocityx":   {texture: texSmooth, alpha: 2.2, noise: 0.01, min: -0.55, max: 0.56},
		"velocityy":   {texture: texSmooth, alpha: 2.2, noise: 0.01, min: -0.44, max: 0.47},
		"velocityz":   {texture: texSmooth, alpha: 2.2, noise: 0.01, min: -0.40, max: 0.42},
		"pressure":    {texture: texSmooth, alpha: 2.5, noise: 0.004, min: 0.72, max: 1.32},
		"viscosity":   {texture: texSmooth, alpha: 2.0, noise: 0.02, min: 0, max: 0.0016},
		"diffusivity": {texture: texSmooth, alpha: 2.0, noise: 0.02, min: 0, max: 0.0021},
		"energy":      {texture: texSmooth, alpha: 2.4, noise: 0.006, min: 1.9, max: 4.9},
	},
	"Nyx": {
		"baryon_density":      {texture: texLognormal, alpha: 1.6, noise: 0.08, min: 6.9e-2, max: 4.8e4, param: 2.2},
		"dark_matter_density": {texture: texLognormal, alpha: 1.5, noise: 0.10, min: 0, max: 1.2e4, param: 2.6},
		"temperature":         {texture: texLognormal, alpha: 1.8, noise: 0.05, min: 2.4e2, max: 4.7e6, param: 1.8},
		"velocity_x":          {texture: texSmooth, alpha: 1.9, noise: 0.05, min: -8.7e6, max: 8.9e6},
		"velocity_y":          {texture: texSmooth, alpha: 1.9, noise: 0.05, min: -8.5e6, max: 8.6e6},
		"velocity_z":          {texture: texSmooth, alpha: 1.9, noise: 0.05, min: -8.8e6, max: 8.4e6},
	},
	"ISABEL": {
		"QSNOWf48_log10":  {texture: texLogSmooth, alpha: 1.9, noise: 0.04, min: -8.8, max: -2.2},
		"PRECIPf48_log10": {texture: texLogSmooth, alpha: 1.8, noise: 0.05, min: -9.1, max: -1.9},
		"QVAPORf48":       {texture: texSmooth, alpha: 2.3, noise: 0.01, min: 0, max: 0.024},
		"CLOUDf48_log10":  {texture: texLogSmooth, alpha: 1.9, noise: 0.05, min: -9.5, max: -2.6},
		"Wf48":            {texture: texVortex, alpha: 1.8, noise: 0.06, min: -9.3, max: 28.8, param: 0.3},
		"Pf48":            {texture: texSmooth, alpha: 2.6, noise: 0.004, min: -5471.9, max: 3225.4},
		"TCf48":           {texture: texSmooth, alpha: 2.4, noise: 0.01, min: -83.1, max: 31.8},
		"Uf48":            {texture: texVortex, alpha: 2.0, noise: 0.03, min: -79.5, max: 85.1, param: 1.0},
		"Vf48":            {texture: texVortex, alpha: 2.0, noise: 0.03, min: -76.8, max: 82.8, param: -1.0},
		"QRAINf48_log10":  {texture: texLogSmooth, alpha: 1.8, noise: 0.05, min: -9.3, max: -2.1},
	},
	"QMCPACK": {
		"einspline": {texture: texOrbital, alpha: 2.0, noise: 0.002, min: -2.4, max: 2.6},
	},
	"HACC": {
		"vx": {texture: texGaussian, min: -3846.21, max: 4031.25},
		"vy": {texture: texGaussian, min: -3786.4, max: 3943.8},
		"vz": {texture: texGaussian, min: -3921.7, max: 3881.2},
		"xx": {texture: texUniform, min: 0, max: 256.00},
		"yy": {texture: texUniform, min: 0, max: 256.00},
		"zz": {texture: texUniform, min: 0, max: 256.00},
	},
}

// Apps lists the supported applications in stable order.
func Apps() []string {
	apps := make([]string, 0, len(baseDims))
	for a := range baseDims {
		apps = append(apps, a)
	}
	sort.Strings(apps)
	return apps
}

// Fields lists the named fields of an application in stable order. For RTM
// it returns a default set of snapshot names; any "snap-NNNN" is accepted
// by Generate.
func Fields(app string) []string {
	if app == "RTM" {
		return []string{
			"snap-0200", "snap-0594", "snap-1048", "snap-1400",
			"snap-1800", "snap-1982", "snap-2600", "snap-3200",
		}
	}
	specs, ok := fieldSpecs[app]
	if !ok {
		return nil
	}
	names := make([]string, 0, len(specs))
	for n := range specs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Generate synthesizes one field. shrink divides every base dimension
// (shrink ≤ 1 produces full paper-scale data — large!). The same
// (app, field, shrink, seed) always produces identical values.
func Generate(app, field string, shrink int, seed int64) (*Field, error) {
	dims0, ok := baseDims[app]
	if !ok {
		return nil, fmt.Errorf("datagen: unknown application %q", app)
	}
	if shrink < 1 {
		shrink = 1
	}
	dims := make([]int, len(dims0))
	for i, d := range dims0 {
		dims[i] = d / shrink
		if dims[i] < 4 {
			dims[i] = 4
		}
	}
	var sp spec
	if app == "RTM" {
		idx, err := rtmSnapshotIndex(field)
		if err != nil {
			return nil, err
		}
		sp = spec{texture: texWave, alpha: 2.0, noise: 0.01, min: -1.2e4, max: 1.3e4,
			param: float64(idx)}
	} else {
		sp, ok = fieldSpecs[app][field]
		if !ok {
			return nil, fmt.Errorf("datagen: unknown field %q of %q", field, app)
		}
	}
	rng := rand.New(rand.NewSource(seed ^ int64(fieldHash(app+"/"+field))))
	data := synthesize(sp, dims, rng)
	return &Field{
		App: app, Name: field, Dims: dims, Data: data, ElementSize: 4,
	}, nil
}

// GenerateFirst synthesizes the first n fields of an application, in
// Fields order; n ≤ 0 or beyond the field count means every field.
func GenerateFirst(app string, n, shrink int, seed int64) ([]*Field, error) {
	names := Fields(app)
	if names == nil {
		return nil, fmt.Errorf("datagen: unknown application %q", app)
	}
	if n > 0 && n < len(names) {
		names = names[:n]
	}
	fields := make([]*Field, 0, len(names))
	for _, name := range names {
		f, err := Generate(app, name, shrink, seed)
		if err != nil {
			return nil, err
		}
		fields = append(fields, f)
	}
	return fields, nil
}

func rtmSnapshotIndex(field string) (int, error) {
	s := strings.TrimPrefix(field, "snap-")
	idx, err := strconv.Atoi(s)
	if err != nil || idx < 0 || idx > 3600 {
		return 0, fmt.Errorf("datagen: RTM field must be snap-NNNN (0..3600), got %q", field)
	}
	return idx, nil
}

func fieldHash(s string) uint32 {
	h := fnv.New32a()
	_, _ = h.Write([]byte(s))
	return h.Sum32()
}

// synthesize builds the raw field then affinely maps it onto [min, max].
func synthesize(sp spec, dims []int, rng *rand.Rand) []float64 {
	n := 1
	for _, d := range dims {
		n *= d
	}
	data := make([]float64, n)
	switch sp.texture {
	case texGaussian:
		for i := range data {
			data[i] = rng.NormFloat64()
		}
	case texUniform:
		for i := range data {
			data[i] = rng.Float64()
		}
	case texWave:
		fillWave(data, dims, sp.param, rng)
	case texVortex:
		fillVortex(data, dims, sp.param, sp.alpha, rng)
	case texOrbital:
		fillOrbital(data, dims, rng)
	case texLognormal:
		fillSpectral(data, dims, sp.alpha, rng)
		s := sp.param
		if s <= 0 {
			s = 2
		}
		for i := range data {
			data[i] = math.Exp(data[i] * s)
		}
	case texLogSmooth:
		fillSpectral(data, dims, sp.alpha, rng)
		// log10 of a lognormal is just a gaussian-ish smooth field; keep the
		// spectral field but sharpen local contrast the way log-scaled
		// hydrometeor fields look.
		for i := range data {
			data[i] = data[i] + 0.4*math.Tanh(3*data[i])
		}
	default: // texSmooth / texClamped
		fillSpectral(data, dims, sp.alpha, rng)
	}
	if sp.noise > 0 {
		for i := range data {
			data[i] += sp.noise * rng.NormFloat64()
		}
	}
	if sp.texture == texClamped {
		for i := range data {
			if data[i] < 0 {
				data[i] = 0
			}
		}
	}
	mapToRange(data, sp.min, sp.max, sp.texture == texClamped)
	// Float32 storage granularity, as the originals are float32.
	for i := range data {
		data[i] = float64(float32(data[i]))
	}
	return data
}

// forEachRow calls fn once per row of a row-major field of shape dims —
// the values along the last axis — in order, with the row's coordinates
// on every other axis, stepped once a row.
func forEachRow(data []float64, dims []int, fn func(outer []int, row []float64)) {
	nd := len(dims)
	w := dims[nd-1]
	outer := make([]int, nd-1)
	for off := 0; off < len(data); off += w {
		fn(outer, data[off:off+w])
		for d := nd - 2; d >= 0; d-- {
			if outer[d]++; outer[d] < dims[d] {
				break
			}
			outer[d] = 0
		}
	}
}

// axisCoords returns float64(c)/float64(dim) − shift for each coordinate c
// of an axis of length dim.
func axisCoords(dim int, shift float64) []float64 {
	xs := make([]float64, dim)
	for c := range xs {
		xs[c] = float64(c)/float64(dim) - shift
	}
	return xs
}

// fillSpectral superposes random cosine modes with power-law amplitudes:
// amplitude(octave o) = 2^(−alpha·o), |k| ≈ 2^o. A point's value is the
// sum over the modes, in order, of amp·cos(phase + Σ_d k[d]·c[d]·(1/dim[d])),
// the axes' terms added to the phase in axis order. Each mode adds into a
// whole row at once: its phase plus the outer axes' terms, then the last
// axis's term of each point, through simd.AddCos.
func fillSpectral(data []float64, dims []int, alpha float64, rng *rand.Rand) {
	nd := len(dims)
	type mode struct {
		terms [][]float64 // terms[d][c] = k[d]·c·(1/dims[d])
		phase float64
		amp   float64
	}
	const octaves = 5
	const perOctave = 5
	inv := make([]float64, nd)
	for d, dim := range dims {
		inv[d] = 1 / float64(dim)
	}
	modes := make([]mode, 0, octaves*perOctave)
	for o := 0; o < octaves; o++ {
		base := math.Pow(2, float64(o))
		amp := math.Pow(2, -alpha*float64(o))
		for m := 0; m < perOctave; m++ {
			terms := make([][]float64, nd)
			for d := range terms {
				k := (rng.Float64()*1.2 + 0.4) * base * 2 * math.Pi
				if rng.Intn(2) == 0 {
					k = -k
				}
				terms[d] = make([]float64, dims[d])
				for c := range terms[d] {
					terms[d][c] = k * float64(c) * inv[d]
				}
			}
			modes = append(modes, mode{terms: terms, phase: rng.Float64() * 2 * math.Pi, amp: amp})
		}
	}
	forEachRow(data, dims, func(outer []int, row []float64) {
		clear(row)
		for _, m := range modes {
			b := m.phase
			for d, c := range outer {
				b += m.terms[d][c]
			}
			simd.AddCos(row, m.terms[nd-1], b, m.amp)
		}
	})
}

// fillWave synthesizes an RTM-style expanding wavefield: a source at the
// volume center radiates a band-limited pulse whose radius grows with the
// snapshot index; later snapshots add a reflected front.
func fillWave(data []float64, dims []int, snapshot float64, rng *rand.Rand) {
	nd := len(dims)
	// Wavefront radius in [0.05, 0.95] of the half-diagonal.
	t := snapshot / 3600
	front := 0.05 + 0.9*t
	lambda := 0.05 + 0.01*rng.Float64()
	sigma := 0.08
	phase := rng.Float64() * 2 * math.Pi
	xs := make([][]float64, nd)
	for d, dim := range dims {
		xs[d] = axisCoords(dim, 0.5)
	}
	forEachRow(data, dims, func(outer []int, row []float64) {
		// r2 sums x·x over the axes in order: the outer axes once a row.
		var r2Outer float64
		for d, c := range outer {
			x := xs[d][c]
			r2Outer += x * x
		}
		for i, x := range xs[nd-1] {
			r2 := r2Outer + x*x
			r := math.Sqrt(r2) / 0.866 // normalize by half-diagonal of unit cube
			d1 := r - front
			v := math.Sin(2*math.Pi*d1/lambda+phase) * math.Exp(-d1*d1/(2*sigma*sigma))
			if t > 0.4 {
				// Reflected front travelling back.
				d2 := r - (1.1 - front)
				v += 0.6 * math.Sin(2*math.Pi*d2/lambda) * math.Exp(-d2*d2/(2*sigma*sigma))
			}
			row[i] = v
		}
	})
}

// fillVortex synthesizes a hurricane-like rotating field component.
// sign selects U (+1) vs V (−1) style components; small sign values give
// vertical-velocity-like speckle.
func fillVortex(data []float64, dims []int, sign, alpha float64, rng *rand.Rand) {
	fillSpectral(data, dims, alpha, rng)
	nd := len(dims)
	cy := 0.45 + 0.1*rng.Float64()
	cx := 0.45 + 0.1*rng.Float64()
	ys, xs := axisCoords(dims[nd-2], cy), axisCoords(dims[nd-1], cx)
	forEachRow(data, dims, func(outer []int, row []float64) {
		// Use the last two axes as the horizontal plane.
		y := ys[outer[nd-2]]
		for i, x := range xs {
			r := math.Hypot(x, y) + 1e-3
			tangential := r * math.Exp(-r*r/0.02) * 40
			var swirl float64
			if sign >= 0 {
				swirl = -y / r * tangential * math.Abs(sign)
			} else {
				swirl = x / r * tangential * math.Abs(sign)
			}
			row[i] = 0.35*row[i] + swirl
		}
	})
}

// fillOrbital synthesizes QMCPACK einspline-like orbitals: products of
// oscillations across planes, smooth but highly oscillatory along one axis.
func fillOrbital(data []float64, dims []int, rng *rand.Rand) {
	nd := len(dims)
	kz := float64(rng.Intn(6) + 3)
	ky := float64(rng.Intn(4) + 2)
	kx := float64(rng.Intn(4) + 2)
	phase := rng.Float64() * 2 * math.Pi
	zs, ys, xs := axisCoords(dims[0], 0), axisCoords(dims[nd-2], 0), axisCoords(dims[nd-1], 0)
	forEachRow(data, dims, func(outer []int, row []float64) {
		z, y := zs[outer[0]], ys[outer[nd-2]]
		// The product runs left to right: its first two factors once a row.
		zy := math.Sin(2*math.Pi*kz*z+phase) * math.Cos(2*math.Pi*ky*y)
		for i, x := range xs {
			row[i] = zy * math.Cos(2*math.Pi*kx*x) *
				math.Exp(-((x-0.5)*(x-0.5)+(y-0.5)*(y-0.5))*2)
		}
	})
}

// mapToRange affinely maps data onto [lo, hi]. When keepZeroFloor is set
// (clamped fields), zeros are preserved so plateaus stay exactly at the
// minimum, like cloud-fraction fields.
func mapToRange(data []float64, lo, hi float64, keepZeroFloor bool) {
	curMin, curMax := math.Inf(1), math.Inf(-1)
	for _, v := range data {
		if v < curMin {
			curMin = v
		}
		if v > curMax {
			curMax = v
		}
	}
	if curMax <= curMin {
		for i := range data {
			data[i] = lo
		}
		return
	}
	if keepZeroFloor && curMin >= 0 {
		// Scale only, so the zero plateau maps exactly to lo (= 0 usually).
		scale := (hi - lo) / curMax
		for i := range data {
			data[i] = lo + data[i]*scale
		}
		return
	}
	scale := (hi - lo) / (curMax - curMin)
	for i := range data {
		data[i] = lo + (data[i]-curMin)*scale
	}
}
