// Package ctxflow enforces the cancellation discipline PR 6's re-entrant
// serve daemon depends on: blocking operations in the orchestration
// packages must observe a context, and new code must not mint root
// contexts outside package main.
//
// Flagged:
//
//   - time.Sleep — unconditionally; a sleeping goroutine outlives its
//     campaign's cancellation. Use a select on time.After and ctx.Done().
//   - Bare channel sends/receives outside a select — unless the channel
//     is a cancellation signal itself (a Done() call or a done/stop/quit
//     -named channel) whose close is the event being awaited.
//   - Selects with neither a default nor a cancellation case.
//   - Context-free HTTP entry points (http.Get/Post/..., client.Get,
//     http.NewRequest) — requests must carry the campaign's context.
//   - Context-free dials (net.Dial, net.DialTimeout, (*net.Dialer).Dial) —
//     a dial must be cancellable; use (*net.Dialer).DialContext.
//   - context.Background()/context.TODO() outside package main; library
//     code receives its context from the caller.
package ctxflow

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"

	"ocelot/tools/ocelotvet/internal/analysis"
)

// Analyzer is the ctxflow checker.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc:  "flags blocking operations (sleeps, bare channel ops, context-free HTTP calls and dials) that ignore cancellation, and root contexts minted outside main",
	Run:  run,
}

// doneChanRe matches channel names that are themselves cancellation
// signals; blocking on their close is how cancellation is observed.
var doneChanRe = regexp.MustCompile(`(?i)(done|stop|stopped|quit|closed|abort)`)

// httpNoCtx lists net/http package-level entry points that cannot carry a
// context, and *http.Client methods with the same flaw.
var httpNoCtx = map[string]bool{
	"net/http.Get": true, "net/http.Post": true, "net/http.PostForm": true,
	"net/http.Head": true, "net/http.NewRequest": true,
	"(*net/http.Client).Get": true, "(*net/http.Client).Post": true,
	"(*net/http.Client).PostForm": true, "(*net/http.Client).Head": true,
}

// dialNoCtx lists the net dial entry points that cannot carry a context.
var dialNoCtx = map[string]bool{
	"net.Dial": true, "net.DialTimeout": true, "(*net.Dialer).Dial": true,
}

func run(pass *analysis.Pass) error {
	isMain := pass.Pkg != nil && pass.Pkg.Name() == "main"
	for _, f := range pass.Files {
		checkFile(pass, f, isMain)
	}
	return nil
}

func checkFile(pass *analysis.Pass, f *ast.File, isMain bool) {
	var selectDepth int
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectStmt:
			if !selectObservesCancel(pass, n) {
				pass.Reportf(n.Pos(), "select has neither a default nor a cancellation case (add a ctx.Done() arm so this block is interruptible)")
			}
			selectDepth++
			for _, clause := range n.Body.List {
				ast.Inspect(clause, walk)
			}
			selectDepth--
			return false
		case *ast.SendStmt:
			if selectDepth == 0 && !cancelChan(pass, n.Chan) {
				pass.Reportf(n.Pos(), "bare channel send blocks without observing a context (wrap in a select with a ctx.Done() case)")
			}
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" && selectDepth == 0 && !cancelChan(pass, n.X) {
				pass.Reportf(n.Pos(), "bare channel receive blocks without observing a context (wrap in a select with a ctx.Done() case)")
			}
		case *ast.CallExpr:
			checkCall(pass, n, isMain)
		}
		return true
	}
	ast.Inspect(f, walk)
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr, isMain bool) {
	fn := calleeFunc(pass, call)
	if fn == nil {
		return
	}
	switch full := fullName(fn); {
	case full == "time.Sleep":
		pass.Reportf(call.Pos(), "time.Sleep ignores cancellation (select on time.After and ctx.Done() instead)")
	case full == "context.Background" || full == "context.TODO":
		if !isMain {
			pass.Reportf(call.Pos(), "%s mints a root context in library code (accept a context.Context from the caller)", full)
		}
	case httpNoCtx[full]:
		pass.Reportf(call.Pos(), "%s sends a request with no context (build it with http.NewRequestWithContext and use Do)", full)
	case dialNoCtx[full]:
		pass.Reportf(call.Pos(), "%s dials with no context (use (*net.Dialer).DialContext)", full)
	}
}

// selectObservesCancel reports whether sel can make progress under
// cancellation: a default case, or a comm on a cancellation channel.
func selectObservesCancel(pass *analysis.Pass, sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		if cc.Comm == nil { // default:
			return true
		}
		switch comm := cc.Comm.(type) {
		case *ast.ExprStmt:
			if u, ok := comm.X.(*ast.UnaryExpr); ok && cancelChan(pass, u.X) {
				return true
			}
		case *ast.AssignStmt:
			for _, r := range comm.Rhs {
				if u, ok := r.(*ast.UnaryExpr); ok && cancelChan(pass, u.X) {
					return true
				}
			}
		}
	}
	return false
}

// cancelChan reports whether ch is itself a cancellation signal: a call
// to a method named Done (ctx.Done(), handle.Done()) or a channel whose
// name marks it as a close-on-shutdown signal.
func cancelChan(pass *analysis.Pass, ch ast.Expr) bool {
	switch ch := ch.(type) {
	case *ast.ParenExpr:
		return cancelChan(pass, ch.X)
	case *ast.CallExpr:
		return calleeName(ch) == "Done"
	case *ast.Ident:
		return doneChanRe.MatchString(ch.Name)
	case *ast.SelectorExpr:
		if doneChanRe.MatchString(ch.Sel.Name) {
			return true
		}
		return cancelChan(pass, ch.X)
	}
	return false
}

func calleeName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}

func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch f := call.Fun.(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}

// fullName renders fn like types.Func.FullName but normalizes pointer
// receivers so table lookups are stable.
func fullName(fn *types.Func) string {
	full := fn.FullName()
	// FullName already yields "(*net/http.Client).Get" / "time.Sleep".
	return strings.TrimSpace(full)
}
