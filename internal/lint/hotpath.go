package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the shared substrate behind the hot-path performance
// tier (allocloop, invhoist): per-function loop discovery with nesting
// depth, and sample-scaling inference — does this loop's trip count
// grow with the number of input samples? — built as a taint domain on
// the dataflow engine (dataflow.go).
//
// The receiver chain runs at sample rate: a 1.1-second recording at
// 96 kHz is ~10^5 samples, so any per-iteration heap allocation or
// redundant transcendental inside a sample-scaled
// loop is multiplied five orders of magnitude per decode. The tier
// cannot measure that (the profiler does); it guards the shape of the
// code so BENCH_decode.json cannot silently regress.
//
// Sample-scaling is a may-analysis: a slice parameter is assumed to be
// sample-sized (hot-package APIs take recordings, basebands and
// waveforms as slices), len/cap of a sample-sized value is a
// sample-scaled count, and arithmetic over a sample-scaled operand
// stays sample-scaled. A loop is sample-scaled when it ranges over a
// sample-sized value or its condition compares against a sample-scaled
// bound. Loops over small fixed literals ([]float64{1, -1}) are plain
// loops: the tier still reports allocations inside them (they sit on
// the decode path), but the message says "loop", not "sample-scaled
// loop", so the reader can triage.

// sampleVal is the sample-taint lattice: unknown ⊔ scaled = scaled.
type sampleVal uint8

const (
	sampleUnknown sampleVal = iota
	sampleScaled
)

// sampleDomain implements flowDomain over sampleVal.
type sampleDomain struct {
	info *types.Info
}

func (d *sampleDomain) Top() sampleVal { return sampleUnknown }

func (d *sampleDomain) Join(a, b sampleVal) sampleVal {
	if a == sampleScaled || b == sampleScaled {
		return sampleScaled
	}
	return sampleUnknown
}

// Seed marks slice- and array-typed parameters as sample-sized: the
// hot packages' public surfaces take recordings and basebands as
// slices, and a may-analysis would rather over-label a coefficient
// table than under-label a waveform.
func (d *sampleDomain) Seed(obj types.Object) (sampleVal, bool) {
	if obj == nil {
		return sampleUnknown, false
	}
	switch obj.Type().Underlying().(type) {
	case *types.Slice, *types.Array:
		return sampleScaled, true
	}
	return sampleUnknown, false
}

func (d *sampleDomain) Eval(e ast.Expr, get func(types.Object) sampleVal) sampleVal {
	switch x := e.(type) {
	case *ast.Ident:
		if obj := d.info.Uses[x]; obj != nil {
			return get(obj)
		}
		if obj := d.info.Defs[x]; obj != nil {
			return get(obj)
		}
	case *ast.ParenExpr:
		return d.Eval(x.X, get)
	case *ast.UnaryExpr:
		return d.Eval(x.X, get)
	case *ast.BinaryExpr:
		return d.Join(d.Eval(x.X, get), d.Eval(x.Y, get))
	case *ast.SliceExpr:
		return d.Eval(x.X, get)
	case *ast.IndexExpr:
		// An element of a sample-sized container is a value, not a
		// count; only the container itself stays tainted.
		return sampleUnknown
	case *ast.CallExpr:
		// len/cap of a sample-sized value is a sample-scaled count.
		if id, ok := x.Fun.(*ast.Ident); ok && len(x.Args) == 1 {
			if b, ok := d.info.Uses[id].(*types.Builtin); ok && (b.Name() == "len" || b.Name() == "cap") {
				return d.Eval(x.Args[0], get)
			}
		}
	}
	return sampleUnknown
}

func (d *sampleDomain) EvalOp(op token.Token, x, y sampleVal) sampleVal {
	return d.Join(x, y)
}

func (d *sampleDomain) EvalRange(x sampleVal) (key, val sampleVal) {
	// The index into a sample-sized container is sample-scaled; the
	// element is a value.
	return x, sampleUnknown
}

// hotLoop is one loop statement inside a hot-package function.
type hotLoop struct {
	// stmt is the *ast.ForStmt or *ast.RangeStmt.
	stmt ast.Stmt
	// body is the loop body.
	body *ast.BlockStmt
	// depth is the loop-nesting depth (1 = outermost loop).
	depth int
	// sampleScaled reports whether the trip count scales with the
	// sample count (see file comment).
	sampleScaled bool
	// assigned is the set of objects written anywhere inside the loop
	// (assignments, ++/--, range variables, the init variable of the
	// for clause) — the loop-variance oracle for invhoist.
	assigned map[types.Object]bool
}

// kindLabel names the loop for diagnostics: sample-scaled loops get
// the stronger label.
func (l *hotLoop) kindLabel() string {
	if l.sampleScaled {
		return "sample-scaled loop"
	}
	return "loop"
}

// hotFuncLoops computes every loop of fn, outermost first, with depth,
// sample-scaling and assigned-object sets. env is the solved sample
// taint for fn's locals.
func hotFuncLoops(info *types.Info, fn *ast.FuncDecl, env map[types.Object]sampleVal) []*hotLoop {
	if fn.Body == nil {
		return nil
	}
	dom := &sampleDomain{info: info}
	get := func(obj types.Object) sampleVal {
		if v, ok := env[obj]; ok {
			return v
		}
		if v, ok := dom.Seed(obj); ok {
			return v
		}
		return sampleUnknown
	}

	var loops []*hotLoop
	var walk func(n ast.Node, depth int)
	walk = func(n ast.Node, depth int) {
		ast.Inspect(n, func(m ast.Node) bool {
			if m == n {
				return true
			}
			var body *ast.BlockStmt
			scaled := false
			switch x := m.(type) {
			case *ast.ForStmt:
				body = x.Body
				if x.Cond != nil {
					ast.Inspect(x.Cond, func(c ast.Node) bool {
						if e, ok := c.(ast.Expr); ok && dom.Eval(e, get) == sampleScaled {
							scaled = true
							return false
						}
						return true
					})
				}
			case *ast.RangeStmt:
				body = x.Body
				scaled = dom.Eval(x.X, get) == sampleScaled
			default:
				return true
			}
			l := &hotLoop{
				stmt:         m.(ast.Stmt),
				body:         body,
				depth:        depth + 1,
				sampleScaled: scaled,
				assigned:     assignedObjects(info, m),
			}
			loops = append(loops, l)
			walk(body, depth+1)
			return false // children handled by the recursive walk
		})
	}
	walk(fn.Body, 0)
	return loops
}

// assignedObjects collects every object written inside stmt: LHS of
// assignments, ++/-- targets, and range key/value variables. The for
// clause's init/post writes count too (the stmt passed in includes
// them).
func assignedObjects(info *types.Info, stmt ast.Node) map[types.Object]bool {
	out := make(map[types.Object]bool)
	add := func(e ast.Expr) {
		if obj := lhsObject(info, e); obj != nil {
			out[obj] = true
		}
		// Writes through an element or dereference make the *root*
		// variable loop-variant for hoisting purposes.
		if root := rootIdent(e); root != nil {
			if obj := info.Uses[root]; obj != nil {
				out[obj] = true
			} else if obj := info.Defs[root]; obj != nil {
				out[obj] = true
			}
		}
	}
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lh := range x.Lhs {
				add(lh)
			}
		case *ast.IncDecStmt:
			add(x.X)
		case *ast.RangeStmt:
			if x.Key != nil {
				add(x.Key)
			}
			if x.Value != nil {
				add(x.Value)
			}
		case *ast.ValueSpec:
			for _, name := range x.Names {
				if obj := info.Defs[name]; obj != nil {
					out[obj] = true
				}
			}
		case *ast.UnaryExpr:
			// &x lets the callee write x: treat address-taken values
			// as loop-variant.
			if x.Op == token.AND {
				add(x.X)
			}
		}
		return true
	})
	return out
}

// loopInvariant reports whether e is invariant across iterations of
// loop: it references no object assigned inside the loop and contains
// no calls (other than len/cap of invariant operands — pure and
// allocation-free) and no channel receives or index loads from
// assigned containers.
func loopInvariant(info *types.Info, loop *hotLoop, e ast.Expr) bool {
	invariant := true
	ast.Inspect(e, func(n ast.Node) bool {
		if !invariant {
			return false
		}
		switch x := n.(type) {
		case *ast.Ident:
			obj := info.Uses[x]
			if obj == nil {
				obj = info.Defs[x]
			}
			if obj != nil && loop.assigned[obj] {
				invariant = false
			}
		case *ast.CallExpr:
			// Only len/cap are known pure; any other call may return a
			// fresh value each iteration.
			id, ok := x.Fun.(*ast.Ident)
			if !ok {
				invariant = false
				return false
			}
			if b, ok := info.Uses[id].(*types.Builtin); !ok || (b.Name() != "len" && b.Name() != "cap") {
				invariant = false
				return false
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				invariant = false
			}
		}
		return invariant
	})
	return invariant
}

// solveSampleEnv runs the dataflow engine with the sample domain over
// fn.
func solveSampleEnv(info *types.Info, fn *ast.FuncDecl) map[types.Object]sampleVal {
	return solveFlow[sampleVal](info, fn, &sampleDomain{info: info})
}

// forEachHotFunc drives a hot-tier analyzer: it visits every function
// declaration of the pass's package — when the package is in
// Config.HotPkgs — with its solved sample environment and loop set.
func forEachHotFunc(pass *Pass, visit func(fn *ast.FuncDecl, loops []*hotLoop)) {
	if !hasPath(pass.Cfg.HotPkgs, pass.Pkg.Path) {
		return
	}
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			env := solveSampleEnv(pass.Pkg.Info, fn)
			loops := hotFuncLoops(pass.Pkg.Info, fn, env)
			if len(loops) == 0 {
				continue
			}
			visit(fn, loops)
		}
	}
}

// innermostLoopFor returns the innermost loop whose body contains pos,
// or nil. loops must be the hotFuncLoops result (outermost first).
func innermostLoopFor(loops []*hotLoop, pos token.Pos) *hotLoop {
	var best *hotLoop
	for _, l := range loops {
		if l.body.Pos() <= pos && pos < l.body.End() {
			if best == nil || l.depth > best.depth {
				best = l
			}
		}
	}
	return best
}
