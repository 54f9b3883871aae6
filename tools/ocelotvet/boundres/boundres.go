// Package boundres enforces the PR 2 lesson: relative error bounds are
// resolved to absolute ones in exactly one place, codec.RelativeBound, the
// range → bound step that sz.Config.AbsoluteBound and szx's relative entry
// both call.
// Ad-hoc `eb * valueRange` arithmetic scattered through callers is how the
// original divergence bug happened — two resolutions disagreeing on the
// degenerate-range fallback (NaN/Inf/zero-range fields) silently produce
// different quantizers for "the same" bound.
//
// The checker flags multiplications where one operand is named like a
// relative error bound (eb, relEB, ErrorBound, ...) and the other like a
// value range (rng, valueRange, ...), anywhere outside the RelativeBound
// resolver itself — a function, not a method, so a Config method of that
// name is no second resolver.
package boundres

import (
	"go/ast"
	"go/token"
	"regexp"

	"ocelot/tools/ocelotvet/internal/analysis"
)

// Analyzer is the boundres checker.
var Analyzer = &analysis.Analyzer{
	Name: "boundres",
	Doc:  "flags ad-hoc relative-to-absolute error-bound arithmetic outside codec.RelativeBound (the PR 2 divergence class)",
	Run:  run,
}

// ebRe matches operand names that denote a relative error bound.
var ebRe = regexp.MustCompile(`(?i)^(rel)?(eb|errbound|errorbound)$`)

// rngRe matches operand names that denote a value range.
var rngRe = regexp.MustCompile(`(?i)^(rng|range|valuerange|valrange|vrange|datarange)$`)

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// The resolver itself is the one legitimate site.
			if fd.Recv == nil && fd.Name.Name == "RelativeBound" {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				be, ok := n.(*ast.BinaryExpr)
				if !ok || be.Op != token.MUL {
					return true
				}
				xn, yn := operandName(be.X), operandName(be.Y)
				if (ebRe.MatchString(xn) && rngRe.MatchString(yn)) ||
					(ebRe.MatchString(yn) && rngRe.MatchString(xn)) {
					pass.Reportf(be.Pos(), "ad-hoc relative-to-absolute bound arithmetic (%s * %s); resolve through codec.RelativeBound (or sz.Config.AbsoluteBound) so degenerate ranges use one fallback", xn, yn)
				}
				return true
			})
		}
	}
	return nil
}

// operandName extracts the final identifier of an operand: the ident
// itself, the selected field (cfg.ErrorBound), or through parens and
// conversions.
func operandName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.ParenExpr:
		return operandName(e.X)
	case *ast.CallExpr:
		if len(e.Args) == 1 {
			// conversions like float64(rng)
			return operandName(e.Args[0])
		}
	}
	return ""
}
