// Package poolsafe enforces the pool discipline PR 5 introduced: every
// pooled acquisition — sync.Pool.Get, the sz arena, huffman table pools —
// must be released on every return path, and a released buffer must never
// alias into a returned value (the next Get would scribble over data the
// caller still holds).
//
// The checker tracks, per function, each acquisition bound to a variable
// and every release of that variable (a Put/Release call, deferred or
// inline, or a call through a closure that wraps the release). An acquire
// that returns its release func (codec.Pooled's methods) is tracked by
// that func, and released by calling it. A return
// statement after an acquisition with no dominating release is flagged
// unless it transfers the resource (returns it as a direct result) or is
// an error-exit where the acquisition itself failed. A return that
// mentions the resource after its release is flagged as aliasing.
package poolsafe

import (
	"go/ast"
	"go/token"
	"go/types"

	"ocelot/tools/ocelotvet/internal/analysis"
)

// Analyzer is the poolsafe checker.
var Analyzer = &analysis.Analyzer{
	Name: "poolsafe",
	Doc:  "flags pooled resources (sync.Pool.Get, sz arena, huffman tables, codec.Pooled streams) not released on every return path, and released buffers aliasing into returned values",
	Run:  run,
}

// AcquirePairs maps fully qualified acquire functions to the method that
// releases their result. sync.Pool.Get/Put is built in; this table names
// the project's domain pools.
var AcquirePairs = map[string]string{
	"ocelot/internal/huffman.BuildTable": "Release",
	"ocelot/internal/sz.getArena":        "release",
	// A codec that lends its pooled scratch (codec.Pooled: szx's encoder
	// buffer) returns the stream with a func that gives it back.
	"(ocelot/internal/codec.Pooled).CompressPooled":   ReleaseFunc,
	"(ocelot/internal/codec.Pooled).CompressRelative": ReleaseFunc,
}

// ReleaseFunc marks an AcquirePairs entry whose call returns a release
// func among its results rather than a resource with a release method: the
// func is what is tracked, and calling it, or handing it to the caller,
// releases.
const ReleaseFunc = "()"

type acquire struct {
	obj      types.Object   // the variable holding the resource
	pos      token.Pos      // acquisition site
	release  string         // method name that releases it ("" = sync.Pool Put)
	siblings []types.Object // other variables bound by the same assignment (e.g. the error)
}

// relEvent is one release of a tracked resource; deferred releases run
// after the return value is computed, so they only alias when the
// resource itself is returned.
type relEvent struct {
	pos      token.Pos
	deferred bool
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				checkFunc(pass, fd)
			}
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	var acquires []*acquire
	releases := map[types.Object][]relEvent{}
	closureFor := map[types.Object]types.Object{} // closure var -> resource it releases
	nilGuard := map[types.Object][]*ast.IfStmt{}  // resource -> `if res == nil` branches
	errGuard := map[types.Object][]*ast.IfStmt{}  // resource -> branches testing its acquisition error

	// Pass 1: find acquisitions and release-wrapping closures.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			if lit, ok := rhs.(*ast.FuncLit); ok && i < len(as.Lhs) {
				if res := releasedInside(pass, lit, acquires); res != nil {
					if obj := defObj(pass, as.Lhs[i]); obj != nil {
						closureFor[obj] = res
					}
				}
				continue
			}
			call := unwrapCall(rhs)
			if call == nil {
				continue
			}
			rel, isAcq := acquireCall(pass, call)
			if !isAcq {
				continue
			}
			// Bind the first lhs as the resource — for a ReleaseFunc
			// acquire, the release func — and the rest as siblings
			// (multi-assign from one call, e.g. `t, err := BuildTable(..)`).
			var target types.Object
			var sibs []types.Object
			if len(as.Rhs) == 1 {
				at := 0
				if rel == ReleaseFunc {
					at = funcResult(pass, as.Lhs)
				}
				for j, lhs := range as.Lhs {
					o := defObj(pass, lhs)
					if j == at {
						target = o
					} else if o != nil {
						sibs = append(sibs, o)
					}
				}
			} else if i < len(as.Lhs) {
				target = defObj(pass, as.Lhs[i])
			}
			if target != nil {
				acquires = append(acquires, &acquire{obj: target, pos: call.Pos(), release: rel, siblings: sibs})
			}
		}
		return true
	})
	if len(acquires) == 0 {
		return
	}

	// Pass 2: releases, nil-guards, and return-path checks.
	var inDefer int
	var scan func(n ast.Node) bool
	scan = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			inDefer++
			ast.Inspect(n.Call, scan)
			inDefer--
			return false
		case *ast.IfStmt:
			for _, a := range acquires {
				if nilCompare(pass, n.Cond, a.obj) {
					nilGuard[a.obj] = append(nilGuard[a.obj], n)
				}
				if mentionsAny(pass, n.Cond, a.siblings) {
					errGuard[a.obj] = append(errGuard[a.obj], n)
				}
			}
		case *ast.CallExpr:
			for _, a := range acquires {
				if isRelease(pass, n, a) {
					releases[a.obj] = append(releases[a.obj], relEvent{pos: n.Pos(), deferred: inDefer > 0})
				}
			}
			// Calling a release-wrapping closure releases the resource.
			if id, ok := n.Fun.(*ast.Ident); ok {
				if res, ok := closureFor[useObj(pass, id)]; ok {
					releases[res] = append(releases[res], relEvent{pos: n.Pos(), deferred: inDefer > 0})
				}
			}
		}
		return true
	}
	ast.Inspect(fd.Body, scan)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, a := range acquires {
			if ret.Pos() < a.pos {
				continue
			}
			released := releasedBefore(releases[a.obj], ret.Pos())
			inline := inlineReleaseBefore(releases[a.obj], ret.Pos())
			mentions := mentionsObj(pass, ret, a.obj)
			switch {
			case transfersClosure(pass, ret, a.obj, closureFor):
				// the caller receives the release func and owns the buffer
				// until it calls it; earlier error-path releases don't count
			case inline && mentions,
				released && transfers(pass, ret, a.obj, closureFor):
				// An inline release before a return that still touches the
				// resource, or a deferred release under a return that hands
				// the resource itself out: either way the caller reads
				// memory the pool is free to reuse.
				pass.Reportf(ret.Pos(), "pooled %s is released before this return but aliases into the returned value (the next Get will overwrite it)", a.obj.Name())
			case released:
				// fine
			case transfers(pass, ret, a.obj, closureFor):
				// responsibility moves to the caller
			case mentionsAny(pass, ret, a.siblings):
				// error-exit from the acquiring assignment: resource invalid
			case insideGuard(errGuard[a.obj], ret):
				// inside `if err != nil { ... }` on the acquisition's own
				// error: the pool never handed out a live resource
			case insideGuard(nilGuard[a.obj], ret):
				// Get returned nothing to release
			default:
				pass.Reportf(ret.Pos(), "pooled %s (acquired at line %d) is not released on this return path (%s)", a.obj.Name(), pass.Fset.Position(a.pos).Line, releaseHint(a))
			}
		}
		return true
	})
}

func releaseHint(a *acquire) string {
	switch a.release {
	case "":
		return "defer the pool's Put"
	case ReleaseFunc:
		return "call " + a.obj.Name() + "() once the stream is copied"
	}
	return "defer " + a.obj.Name() + "." + a.release + "()"
}

// funcResult is the index of the first of lhs whose type is a func: the
// release func a ReleaseFunc acquire returns.
func funcResult(pass *analysis.Pass, lhs []ast.Expr) int {
	for j, e := range lhs {
		if o := defObj(pass, e); o != nil {
			if _, ok := o.Type().Underlying().(*types.Signature); ok {
				return j
			}
		}
	}
	return 0
}

// unwrapCall peels a type assertion off rhs (the `pool.Get().(*T)` idiom)
// and returns the underlying call, if any.
func unwrapCall(rhs ast.Expr) *ast.CallExpr {
	if ta, ok := rhs.(*ast.TypeAssertExpr); ok {
		rhs = ta.X
	}
	call, _ := rhs.(*ast.CallExpr)
	return call
}

// acquireCall reports whether call acquires a pooled resource, and the
// method name that releases it ("" means sync.Pool Put).
func acquireCall(pass *analysis.Pass, call *ast.CallExpr) (release string, ok bool) {
	fn := calleeFunc(pass, call)
	if fn == nil {
		return "", false
	}
	if fn.FullName() == "(*sync.Pool).Get" {
		return "", true
	}
	rel, ok := AcquirePairs[fn.FullName()]
	return rel, ok
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

// isRelease reports whether call releases a's resource: a Put passing it
// back to a sync.Pool, a defer of either, or the paired release method.
func isRelease(pass *analysis.Pass, call *ast.CallExpr, a *acquire) bool {
	if a.release == ReleaseFunc {
		id, ok := call.Fun.(*ast.Ident)
		return ok && useObj(pass, id) == a.obj
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if a.release == "" {
		fn := calleeFunc(pass, call)
		if fn == nil || fn.FullName() != "(*sync.Pool).Put" {
			return false
		}
		for _, arg := range call.Args {
			if mentionsObj(pass, arg, a.obj) {
				return true
			}
		}
		return false
	}
	if sel.Sel.Name != a.release {
		return false
	}
	if id, ok := sel.X.(*ast.Ident); ok {
		return useObj(pass, id) == a.obj
	}
	return false
}

// releasedInside reports which tracked resource (if any) lit releases —
// the `release := func() { pool.Put(buf) }` idiom.
func releasedInside(pass *analysis.Pass, lit *ast.FuncLit, acquires []*acquire) types.Object {
	var res types.Object
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, a := range acquires {
			if isRelease(pass, call, a) {
				res = a.obj
			}
		}
		return res == nil
	})
	return res
}

// transfers reports whether ret hands the resource (or a closure that
// releases it) to the caller as a direct result — not merely as an
// argument to a call, which consumes without retaining.
func transfers(pass *analysis.Pass, ret *ast.ReturnStmt, obj types.Object, closureFor map[types.Object]types.Object) bool {
	for _, r := range ret.Results {
		if directResult(pass, r, obj, closureFor) {
			return true
		}
	}
	return false
}

// transfersClosure reports whether ret returns a closure variable that
// releases obj — the `return buf.Bytes(), release, nil` idiom, where the
// caller owns the pooled buffer until it invokes release.
func transfersClosure(pass *analysis.Pass, ret *ast.ReturnStmt, obj types.Object, closureFor map[types.Object]types.Object) bool {
	for _, r := range ret.Results {
		if id, ok := r.(*ast.Ident); ok {
			if res, ok := closureFor[useObj(pass, id)]; ok && res == obj {
				return true
			}
		}
	}
	return false
}

func directResult(pass *analysis.Pass, e ast.Expr, obj types.Object, closureFor map[types.Object]types.Object) bool {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return directResult(pass, e.X, obj, closureFor)
	case *ast.Ident:
		o := useObj(pass, e)
		if o == obj {
			return true
		}
		res, ok := closureFor[o]
		return ok && res == obj
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return directResult(pass, e.X, obj, closureFor)
		}
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if directResult(pass, el, obj, closureFor) {
				return true
			}
		}
	case *ast.SliceExpr:
		return directResult(pass, e.X, obj, closureFor)
	case *ast.SelectorExpr:
		return directResult(pass, e.X, obj, closureFor)
	}
	return false
}

func releasedBefore(events []relEvent, pos token.Pos) bool {
	for _, e := range events {
		if e.pos < pos {
			return true
		}
	}
	return false
}

func inlineReleaseBefore(events []relEvent, pos token.Pos) bool {
	for _, e := range events {
		if e.pos < pos && !e.deferred {
			return true
		}
	}
	return false
}

func mentionsObj(pass *analysis.Pass, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && useObj(pass, id) == obj {
			found = true
		}
		return !found
	})
	return found
}

func mentionsAny(pass *analysis.Pass, n ast.Node, objs []types.Object) bool {
	for _, o := range objs {
		if mentionsObj(pass, n, o) {
			return true
		}
	}
	return false
}

// nilCompare reports whether cond compares obj against nil (the
// "Get may hand back a zero value" guard).
func nilCompare(pass *analysis.Pass, cond ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
			return true
		}
		xNil, yNil := isNil(pass, be.X), isNil(pass, be.Y)
		if xNil && mentionsObj(pass, be.Y, obj) || yNil && mentionsObj(pass, be.X, obj) {
			found = true
		}
		return !found
	})
	return found
}

func isNil(pass *analysis.Pass, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	_, isNilObj := pass.TypesInfo.Uses[id].(*types.Nil)
	return isNilObj || id.Name == "nil"
}

func insideGuard(guards []*ast.IfStmt, ret *ast.ReturnStmt) bool {
	for _, g := range guards {
		if g.Body.Pos() <= ret.Pos() && ret.End() <= g.Body.End() {
			return true
		}
	}
	return false
}

func defObj(pass *analysis.Pass, lhs ast.Expr) types.Object {
	id, ok := lhs.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if o := pass.TypesInfo.Defs[id]; o != nil {
		return o
	}
	return pass.TypesInfo.Uses[id]
}

func useObj(pass *analysis.Pass, id *ast.Ident) types.Object {
	return pass.TypesInfo.Uses[id]
}
