// Package alloccap flags allocations whose size flows from stream-parsed
// integers without a dominating bounds check against the payload — the
// exact class of the four PR 4 decoder crashers, where a crafted stream
// header demanded terabyte allocations before a single body byte decoded.
//
// Taint model (intra-procedural, with package-local call propagation):
//
//   - Sources: []byte parameters of exported functions (the attacker
//     boundary), values read out of tainted byte slices (indexing,
//     encoding/binary reads, any call fed a tainted argument), and
//     parameters of unexported functions that some call site feeds a
//     tainted, unchecked argument.
//   - Propagation: assignment and conversion alias the taint; arithmetic
//     derives a new tainted value carrying its operands' roots.
//   - Sanitizers: an if-condition comparing the tainted value against the
//     input's length (a len/cap expression or a *.Len()-style call) or
//     against a constant. A constant sanitizes an allocation only when
//     that many of its elements fit in 1<<28 bytes: the 1<<36/1<<40
//     overflow guards stop integer wrap, not memory exhaustion, and a
//     1<<24 count cap still admits a gigabyte of 64-byte structs.
//   - Sinks: make() size/capacity arguments, and append loops whose bound
//     is tainted (these must have some same-root check, since decoders
//     commonly bound a derived block count rather than the raw total).
//
// A finding means: a crafted stream can pick this allocation's size.
// Either bound it against the payload that must back it, or cap the
// pre-allocation and let append-growth pay for dishonest headers.
package alloccap

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"math"

	"ocelot/tools/ocelotvet/internal/analysis"
)

// maxConstBytes is the most memory a constant bound may admit and still
// count as a sanitizer: a check `n > C` bounds make([]T, n) only when
// C × sizeof(T) ≤ 1<<28 bytes — the repo's ceiling for header-trusted
// pre-allocation. Guards against larger constants prevent overflow, not
// out-of-memory, so they do not sanitize.
const maxConstBytes = 1 << 28

// sizes measures element types as the 64-bit gc toolchain lays them out.
var sizes = types.SizesFor("gc", "amd64")

// Analyzer is the alloccap checker.
var Analyzer = &analysis.Analyzer{
	Name: "alloccap",
	Doc:  "flags allocations sized by stream-parsed integers with no dominating payload-length bound (the PR 4 decoder-crasher class)",
	Run:  run,
}

// group is one taint equivalence class: aliases share a group; arithmetic
// derives fresh groups that keep their operands' roots.
type group struct {
	roots     map[int]bool
	sanitized []check // qualifying checks mentioning this group
}

// check is one sanitizing comparison: the source span [from, to) where
// it holds, and the constant it bounds the value by (-1 for a
// payload-length bound).
type check struct {
	from, to token.Pos
	limit    int64
}

// holdsAt reports whether the check holds at pos.
func (c check) holdsAt(pos token.Pos) bool { return c.from < pos && pos < c.to }

// sanitizedBefore reports whether a check holding at pos bounds an
// allocation of elemSize-byte elements sized by this group.
func (g *group) sanitizedBefore(pos token.Pos, elemSize int64) bool {
	for _, c := range g.sanitized {
		if c.holdsAt(pos) && (c.limit < 0 || c.limit*elemSize <= maxConstBytes) {
			return true
		}
	}
	return false
}

type funcState struct {
	pass    *analysis.Pass
	a       *analyzer
	tainted map[types.Object]*group
	closure map[types.Object]bool // local vars holding FuncLits with tainted returns
	// rootChecked maps taint roots to their checks; the append-loop rule
	// accepts a bound on any same-root derivative.
	rootChecked map[int][]check
	nextRoot    *int
}

type analyzer struct {
	pass  *analysis.Pass
	decls map[*types.Func]*ast.FuncDecl
	// paramTaint accumulates, per local function, the parameter objects
	// call sites feed tainted data; analysis iterates until it stops
	// growing.
	paramTaint map[*types.Func]map[int]bool
	reported   map[token.Pos]bool
}

func run(pass *analysis.Pass) error {
	a := &analyzer{
		pass:       pass,
		decls:      make(map[*types.Func]*ast.FuncDecl),
		paramTaint: make(map[*types.Func]map[int]bool),
		reported:   make(map[token.Pos]bool),
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					a.decls[obj] = fd
				}
			}
		}
	}

	// Iterate to a fixpoint over call-site parameter taint: each round
	// analyzes every function with its currently known tainted params;
	// rounds are bounded by the total parameter count.
	for changed, round := true, 0; changed && round < 10; round++ {
		changed = false
		for fn, fd := range a.decls {
			if a.analyzeFunc(fn, fd) {
				changed = true
			}
		}
	}
	// Final reporting pass with the stable param-taint assignment.
	a.reported = make(map[token.Pos]bool)
	for fn, fd := range a.decls {
		a.analyzeFuncReporting(fn, fd)
	}
	return nil
}

// byteSliceLike reports whether t is []byte, [][]byte, etc. — raw stream
// data at an API boundary.
func byteSliceLike(t types.Type) bool {
	for {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		if b, ok := s.Elem().Underlying().(*types.Basic); ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8) {
			return true
		}
		t = s.Elem()
	}
}

func (a *analyzer) analyzeFunc(fn *types.Func, fd *ast.FuncDecl) bool {
	st := a.newState(fn)
	return st.walk(fd.Body, false)
}

func (a *analyzer) analyzeFuncReporting(fn *types.Func, fd *ast.FuncDecl) {
	st := a.newState(fn)
	st.walk(fd.Body, true)
}

func (a *analyzer) newState(fn *types.Func) *funcState {
	root := 0
	st := &funcState{
		pass:        a.pass,
		a:           a,
		tainted:     make(map[types.Object]*group),
		closure:     make(map[types.Object]bool),
		rootChecked: make(map[int][]check),
		nextRoot:    &root,
	}
	a.seedTaintInto(fn, st)
	return st
}

func (a *analyzer) seedTaintInto(fn *types.Func, st *funcState) {
	sig := fn.Type().(*types.Signature)
	params := sig.Params()
	extra := a.paramTaint[fn]
	for i := 0; i < params.Len(); i++ {
		p := params.At(i)
		if (fn.Exported() && byteSliceLike(p.Type())) || extra[i] {
			st.taint(p, st.freshGroup())
		}
	}
}

func (st *funcState) freshGroup() *group {
	*st.nextRoot++
	return &group{roots: map[int]bool{*st.nextRoot: true}}
}

func (st *funcState) derivedGroup(parents ...*group) *group {
	g := &group{roots: map[int]bool{}}
	for _, p := range parents {
		if p == nil {
			continue
		}
		for r := range p.roots {
			g.roots[r] = true
		}
	}
	if len(g.roots) == 0 {
		*st.nextRoot++
		g.roots[*st.nextRoot] = true
	}
	return g
}

func (st *funcState) taint(obj types.Object, g *group) {
	if obj != nil {
		st.tainted[obj] = g
	}
}

// walk performs two source-order passes over body (the second catches
// loop-carried taint), flagging sinks on the final pass when report is
// true. It returns whether call-site propagation discovered new tainted
// params anywhere in the package.
func (st *funcState) walk(body *ast.BlockStmt, report bool) bool {
	grew := false
	for pass := 0; pass < 2; pass++ {
		final := pass == 1
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				st.handleAssign(n)
			case *ast.RangeStmt:
				// Ranging over a tainted container taints its element (and
				// key, for maps keyed by parsed values).
				if g := st.exprTaint(n.X); g != nil {
					for _, v := range []ast.Expr{n.Key, n.Value} {
						if v != nil {
							if obj := st.lhsObj(v); obj != nil {
								st.taint(obj, st.derivedGroup(g))
							}
						}
					}
				}
			case *ast.IfStmt:
				st.handleCond(n.Cond, n.Body.End(), n.End())
			case *ast.ForStmt:
				if n.Cond != nil && final && report {
					st.checkAppendLoop(n)
				}
			case *ast.CallExpr:
				if final {
					if st.propagateCall(n) {
						grew = true
					}
					if report {
						st.checkMake(n)
					}
				}
			}
			return true
		})
	}
	return grew
}

// handleAssign threads taint through assignments, including FuncLit
// bindings (closures whose returns are tainted act as sources at their
// call sites, e.g. the readU64/readF64 helpers in stream parsers).
func (st *funcState) handleAssign(n *ast.AssignStmt) {
	if len(n.Lhs) == len(n.Rhs) {
		for i, lhs := range n.Lhs {
			rhs := n.Rhs[i]
			if lit, ok := rhs.(*ast.FuncLit); ok {
				if obj := st.lhsObj(lhs); obj != nil && st.funcLitTainted(lit) {
					st.closure[obj] = true
				}
				continue
			}
			g := st.exprTaint(rhs)
			if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
				// Compound ops (+=, *=): lhs derives from both sides.
				g = st.combine(g, st.exprTaint(lhs))
			}
			if obj := st.lhsObj(lhs); obj != nil {
				if g != nil {
					st.taint(obj, g)
				}
			}
		}
		return
	}
	// Multi-value: x, y := call() — every lhs shares the call's taint.
	if len(n.Rhs) == 1 {
		g := st.exprTaint(n.Rhs[0])
		if g == nil {
			return
		}
		for _, lhs := range n.Lhs {
			if obj := st.lhsObj(lhs); obj != nil {
				st.taint(obj, st.derivedGroup(g))
			}
		}
	}
}

func (st *funcState) combine(a, b *group) *group {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return st.derivedGroup(a, b)
}

func (st *funcState) lhsObj(lhs ast.Expr) types.Object {
	switch lhs := lhs.(type) {
	case *ast.Ident:
		if obj := st.pass.TypesInfo.Defs[lhs]; obj != nil {
			return obj
		}
		return st.pass.TypesInfo.Uses[lhs]
	}
	return nil
}

// funcLitTainted reports whether any return expression of lit is tainted
// under the current (captured) environment.
func (st *funcState) funcLitTainted(lit *ast.FuncLit) bool {
	tainted := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if ret, ok := n.(*ast.ReturnStmt); ok {
			for _, e := range ret.Results {
				if st.exprTaint(e) != nil {
					tainted = true
				}
			}
		}
		return !tainted
	})
	return tainted
}

// exprTaint returns the taint group of e, or nil. Alias forms return the
// operand's group unchanged; derivations return a fresh group with the
// operands' roots.
func (st *funcState) exprTaint(e ast.Expr) *group {
	switch e := e.(type) {
	case *ast.Ident:
		if obj := st.pass.TypesInfo.Uses[e]; obj != nil {
			return st.tainted[obj]
		}
	case *ast.ParenExpr:
		return st.exprTaint(e.X)
	case *ast.UnaryExpr:
		return st.exprTaint(e.X)
	case *ast.StarExpr:
		return st.exprTaint(e.X)
	case *ast.TypeAssertExpr:
		return st.exprTaint(e.X)
	case *ast.SliceExpr:
		return st.exprTaint(e.X)
	case *ast.SelectorExpr:
		return st.exprTaint(e.X)
	case *ast.IndexExpr:
		if g := st.exprTaint(e.X); g != nil {
			return st.derivedGroup(g)
		}
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ,
			token.LAND, token.LOR:
			return nil
		}
		gx, gy := st.exprTaint(e.X), st.exprTaint(e.Y)
		if gx == nil && gy == nil {
			return nil
		}
		return st.derivedGroup(gx, gy)
	case *ast.CompositeLit:
		var parents []*group
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if g := st.exprTaint(el); g != nil {
				parents = append(parents, g)
			}
		}
		if len(parents) > 0 {
			return st.derivedGroup(parents...)
		}
	case *ast.CallExpr:
		return st.callTaint(e)
	}
	return nil
}

func (st *funcState) callTaint(call *ast.CallExpr) *group {
	// Conversions alias their operand.
	if tv, ok := st.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return st.exprTaint(call.Args[0])
	}
	// len/cap are memory truth: never tainted.
	if name := calleeName(call); name == "len" || name == "cap" {
		if isBuiltin(st.pass.TypesInfo, call.Fun) {
			return nil
		}
	}
	// Calls to tainted closures are sources.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if obj := st.pass.TypesInfo.Uses[id]; obj != nil && st.closure[obj] {
			return st.freshGroup()
		}
	}
	// Any call fed tainted data returns tainted data: binary.*Endian
	// reads, bitstream readers, package-local parsers.
	var parents []*group
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if g := st.exprTaint(sel.X); g != nil {
			parents = append(parents, g)
		}
	}
	for _, arg := range call.Args {
		if g := st.exprTaint(arg); g != nil {
			parents = append(parents, g)
		}
	}
	if len(parents) > 0 {
		return st.derivedGroup(parents...)
	}
	return nil
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

func isBuiltin(info *types.Info, fun ast.Expr) bool {
	id, ok := fun.(*ast.Ident)
	if !ok {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// handleCond records sanitizers: comparisons whose one side mentions a
// tainted value (outside len/cap) and whose other side is a qualifying
// bound — a len/cap/.Len()-style expression or a constant ≤ maxConstBytes.
//
// Branch direction matters. A comparison that bounds the tainted value
// when it is true — `tainted < bound`, `tainted == bound` — holds only in
// the if-body, from the condition to bodyEnd. One that bounds it when it
// is false — `tainted > bound`, `tainted != bound`, the reject idiom —
// holds only after the whole if statement (after): its body is exactly the
// branch where the bound is EXCEEDED (the reject — or, in
// `if cap(buf) < n { buf = make(..., n) }`, the allocation!). So a lower
// bound such as `if n <= 0 { return }` never sanitizes the code after it.
func (st *funcState) handleCond(cond ast.Expr, bodyEnd, after token.Pos) {
	ast.Inspect(cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		inBranch := check{from: be.Pos(), to: bodyEnd}
		afterIf := check{from: after, to: token.Pos(math.MaxInt)}
		switch be.Op {
		case token.LSS, token.LEQ:
			st.recordCheck(be.X, be.Y, inBranch) // checked < bound
			st.recordCheck(be.Y, be.X, afterIf)  // bound < checked
		case token.GTR, token.GEQ:
			st.recordCheck(be.X, be.Y, afterIf)
			st.recordCheck(be.Y, be.X, inBranch)
		case token.EQL:
			st.recordCheck(be.X, be.Y, inBranch)
			st.recordCheck(be.Y, be.X, inBranch)
		case token.NEQ:
			st.recordCheck(be.X, be.Y, afterIf)
			st.recordCheck(be.Y, be.X, afterIf)
		}
		return true
	})
}

// recordCheck records span as a sanitizer of every tainted value checked
// mentions, when bound qualifies.
func (st *funcState) recordCheck(checked, bound ast.Expr, span check) {
	limit, ok := qualifiesAsBound(st.pass.TypesInfo, bound)
	if !ok {
		return
	}
	span.limit = limit
	for _, g := range st.taintedMentions(checked) {
		g.sanitized = append(g.sanitized, span)
		for r := range g.roots {
			st.rootChecked[r] = append(st.rootChecked[r], span)
		}
	}
}

// taintedMentions collects the taint groups of identifiers mentioned in e,
// skipping subtrees inside len/cap calls (len(stream) measures memory, it
// does not check the tainted value).
func (st *funcState) taintedMentions(e ast.Expr) []*group {
	var out []*group
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if name := calleeName(call); (name == "len" || name == "cap") && isBuiltin(st.pass.TypesInfo, call.Fun) {
				return false
			}
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := st.pass.TypesInfo.Uses[id]; obj != nil {
				if g := st.tainted[obj]; g != nil {
					out = append(out, g)
				}
			}
		}
		return true
	})
	return out
}

// qualifiesAsBound reports whether bound can actually limit memory: it
// references the input's length (len/cap or a .Len()-style method; limit
// -1) or is a constant small enough to be an honest cap for byte-sized
// elements (limit is the constant; sinks scale it by their element size).
func qualifiesAsBound(info *types.Info, bound ast.Expr) (limit int64, ok bool) {
	if tv, ok := info.Types[bound]; ok && tv.Value != nil {
		if v, exact := constant.Int64Val(constant.ToInt(tv.Value)); exact && v >= 0 && v <= maxConstBytes {
			return v, true
		}
		return 0, false
	}
	found := false
	ast.Inspect(bound, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch name := calleeName(call); name {
		case "len", "cap":
			if isBuiltin(info, call.Fun) {
				found = true
			}
		case "Len", "Size", "Count":
			found = true
		}
		return !found
	})
	return -1, found
}

// checkMake flags make() calls whose size or capacity argument is tainted
// and unsanitized at the allocation.
func (st *funcState) checkMake(call *ast.CallExpr) {
	if calleeName(call) != "make" || !isBuiltin(st.pass.TypesInfo, call.Fun) {
		return
	}
	elemSize := int64(1)
	if s, ok := st.pass.TypesInfo.TypeOf(call.Args[0]).Underlying().(*types.Slice); ok {
		elemSize = max(1, sizes.Sizeof(s.Elem()))
	}
	for _, arg := range call.Args[1:] {
		g := st.exprTaint(arg)
		if g == nil || g.sanitizedBefore(call.Pos(), elemSize) {
			continue
		}
		if st.rootsCheckedBefore(g, call.Pos()) && st.onlyDerived(arg) {
			continue
		}
		if !st.a.reported[call.Pos()] {
			st.a.reported[call.Pos()] = true
			st.pass.Reportf(call.Pos(), "make size %s derives from stream-parsed bytes with no dominating bound against the payload length (cap it or validate against len of the input)", render(arg))
		}
	}
}

// onlyDerived reports whether arg is an arithmetic derivation rather than
// a direct tainted variable — direct variables demand their own check.
func (st *funcState) onlyDerived(arg ast.Expr) bool {
	switch arg.(type) {
	case *ast.Ident, *ast.SelectorExpr:
		return false
	}
	return true
}

// checkAppendLoop flags for-loops appending under a tainted bound whose
// taint family was never checked: decoders typically validate a derived
// block count, so any same-root check before the loop qualifies.
func (st *funcState) checkAppendLoop(n *ast.ForStmt) {
	be, ok := n.Cond.(*ast.BinaryExpr)
	if !ok {
		return
	}
	// Only the upper bound of the loop matters: `i < len(data)` iterates a
	// tainted cursor under an honest bound, while `len(out) < n` grows
	// memory until a stream-parsed count is satisfied.
	var upper ast.Expr
	switch be.Op {
	case token.LSS, token.LEQ:
		upper = be.Y
	case token.GTR, token.GEQ:
		upper = be.X
	default:
		return
	}
	var g *group
	for _, m := range st.taintedMentions(upper) {
		g = m
	}
	if g == nil || g.sanitizedBefore(n.Pos(), 1) || st.rootsCheckedBefore(g, n.Pos()) {
		return
	}
	hasAppend := false
	ast.Inspect(n.Body, func(inner ast.Node) bool {
		if call, ok := inner.(*ast.CallExpr); ok && calleeName(call) == "append" && isBuiltin(st.pass.TypesInfo, call.Fun) {
			hasAppend = true
		}
		return !hasAppend
	})
	if !hasAppend {
		return
	}
	if !st.a.reported[n.Pos()] {
		st.a.reported[n.Pos()] = true
		st.pass.Reportf(n.Pos(), "append loop bounded by a stream-parsed count with no bound against the payload length (validate the count against the bytes that must back it)")
	}
}

func (st *funcState) rootsCheckedBefore(g *group, pos token.Pos) bool {
	for r := range g.roots {
		for _, c := range st.rootChecked[r] {
			if c.holdsAt(pos) {
				return true
			}
		}
	}
	return false
}

// propagateCall marks callee parameters tainted when a call site passes
// tainted, unchecked data into a package-local function. Returns whether
// the package-wide param-taint assignment grew.
func (st *funcState) propagateCall(call *ast.CallExpr) bool {
	var obj types.Object
	switch f := call.Fun.(type) {
	case *ast.Ident:
		obj = st.pass.TypesInfo.Uses[f]
	case *ast.SelectorExpr:
		obj = st.pass.TypesInfo.Uses[f.Sel]
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	if _, local := st.a.decls[fn]; !local {
		return false
	}
	grew := false
	for i, arg := range call.Args {
		g := st.exprTaint(arg)
		if g == nil || g.sanitizedBefore(call.Pos(), 1) {
			continue
		}
		set := st.a.paramTaint[fn]
		if set == nil {
			set = make(map[int]bool)
			st.a.paramTaint[fn] = set
		}
		sig := fn.Type().(*types.Signature)
		idx := i
		if sig.Variadic() && idx >= sig.Params().Len() {
			idx = sig.Params().Len() - 1
		}
		if idx < sig.Params().Len() && !set[idx] {
			set[idx] = true
			grew = true
		}
	}
	return grew
}

func render(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return "'" + e.Name + "'"
	case *ast.SelectorExpr:
		if x, ok := e.X.(*ast.Ident); ok {
			return "'" + x.Name + "." + e.Sel.Name + "'"
		}
	}
	return "expression"
}
