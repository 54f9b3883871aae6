// Package d is boundres golden data: relative→absolute bound arithmetic
// in every spelling the repo has used, plus the one sanctioned site.
package d

// Config mimics sz.Config for the golden cases.
type Config struct {
	ErrorBound float64
	Mode       int
}

// BadPlain is the PR 2 shape verbatim.
func BadPlain(eb, rng float64) float64 {
	return eb * rng // want `ad-hoc relative-to-absolute bound arithmetic`
}

// BadNamed spells the operands the way the planner code did.
func BadNamed(relEB, valueRange float64) float64 {
	return relEB * valueRange // want `ad-hoc relative-to-absolute bound arithmetic`
}

// BadReversed has the range on the left.
func BadReversed(rng, eb float64) float64 {
	return rng * eb // want `ad-hoc relative-to-absolute bound arithmetic`
}

// BadField resolves from a config field instead of a local.
func BadField(c Config, rng float64) float64 {
	return c.ErrorBound * rng // want `ad-hoc relative-to-absolute bound arithmetic`
}

// RelativeBound is the sanctioned resolver: the same arithmetic here is
// the single source of truth, not a finding.
func RelativeBound(eb, rng float64) float64 {
	if rng <= 0 {
		rng = 1
	}
	return eb * rng
}

// AbsoluteBound resolves through RelativeBound, as sz.Config's does.
func (c Config) AbsoluteBound(data []float64) float64 {
	rng := 0.0
	if len(data) > 0 {
		lo, hi := data[0], data[0]
		for _, v := range data {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		rng = hi - lo
	}
	return RelativeBound(c.ErrorBound, rng)
}

// BadOldResolver is AbsoluteBound as it was before the resolution moved
// into RelativeBound: a second site of the arithmetic, now a finding.
func (c Config) BadOldResolver(rng float64) float64 {
	if rng <= 0 {
		rng = 1
	}
	return c.ErrorBound * rng // want `ad-hoc relative-to-absolute bound arithmetic`
}

// RelativeBound as a method is not the resolver: only the function is.
func (c Config) RelativeBound(rng float64) float64 {
	return c.ErrorBound * rng // want `ad-hoc relative-to-absolute bound arithmetic`
}

// OKUnrelated multiplies things that are not a bound and a range.
func OKUnrelated(scale, weight float64) float64 {
	return scale * weight
}

// OKDouble scales a bound by a constant, which is not range resolution.
func OKDouble(eb float64) float64 {
	return eb * 2
}
