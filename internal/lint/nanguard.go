package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// NanGuardAnalyzer flags the arithmetic that silently manufactures
// NaN/Inf from unvalidated inputs: float division, math.Log*, and
// math.Sqrt applied to quantities that flow from *unguarded external
// inputs* — parameters of exported functions and exported struct
// fields, the values a caller outside the package controls.
//
// The taint lattice tracks (tainted, sign): a value is tainted when it
// flows from an external input without passing a guard, and carries a
// sign fact when the analysis can prove it (positive constants,
// structural squares x*x, math.Abs/Exp results, values bounded by a
// comparison). A division is flagged only when the divisor is tainted
// AND not provably nonzero; Log when the argument is tainted and not
// provably positive; Sqrt when tainted and possibly negative.
//
// Appearing anywhere inside a comparison in an if/for/switch condition
// counts as a guard — the author demonstrably considered the value's
// range — so validated constructors and early-return range checks
// silence the rule. Unexported functions and unexported fields are
// trusted (their values were produced or validated inside the
// package). Integer division is exempt: it panics loudly instead of
// quietly poisoning every downstream sample.
func NanGuardAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "nanguard",
		Doc:  "division/log/sqrt on unguarded external inputs can mint NaN/Inf that poisons whole simulations",
		Tier: TierFlow,
		Run:  runNanGuard,
	}
}

// Sign facts, ordered only by meaning: signPos implies signNonNeg and
// signNonZero.
const (
	signUnknown int8 = iota
	signNonNeg       // ≥ 0
	signPos          // > 0
	signNonZero      // ≠ 0
)

// taint is the abstract value: taint flag plus the strongest sign fact
// proven for the value.
type taint struct {
	t    bool
	sign int8
}

var (
	taintTop     = taint{}                        // untainted, sign unknown
	taintSafePos = taint{t: false, sign: signPos} // guarded values
)

func joinSign(a, b int8) int8 {
	if a == b {
		return a
	}
	switch {
	case a == signPos && b == signNonNeg, a == signNonNeg && b == signPos:
		return signNonNeg
	case a == signPos && b == signNonZero, a == signNonZero && b == signPos:
		return signNonZero
	}
	return signUnknown
}

// taintDomain is the dataflow engine's domain (dataflow.go) for one
// function: the guard set and tainted-parameter set are per-function.
type taintDomain struct {
	pkg     *Package
	info    *types.Info
	cfg     *Config
	guarded map[types.Object]bool
	params  map[types.Object]bool // tainted parameters (exported fn only)
}

func newTaintDomain(pass *Pass, fn *ast.FuncDecl) *taintDomain {
	d := &taintDomain{
		pkg:     pass.Pkg,
		info:    pass.Pkg.Info,
		cfg:     pass.Cfg,
		guarded: collectGuards(pass.Pkg.Info, fn),
		params:  make(map[types.Object]bool),
	}
	if fn.Name.IsExported() && fn.Type.Params != nil {
		for _, f := range fn.Type.Params.List {
			for _, name := range f.Names {
				if obj := pass.Pkg.Info.Defs[name]; obj != nil {
					d.params[obj] = true
				}
			}
		}
	}
	return d
}

// collectGuards returns every object mentioned inside a comparison in
// an if/for/switch condition. The net is deliberately wide: a value on
// either side of any comparison counts, so `if rs*gL <= 1` guards both
// rs and gL.
func collectGuards(info *types.Info, fn *ast.FuncDecl) map[types.Object]bool {
	g := make(map[types.Object]bool)
	if fn.Body == nil {
		return g
	}
	markCmp := func(cond ast.Expr) {
		ast.Inspect(cond, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || !isComparisonOp(be.Op) {
				return true
			}
			ast.Inspect(be, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if obj := info.ObjectOf(id); obj != nil {
						g[obj] = true
					}
				}
				return true
			})
			return true
		})
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.IfStmt:
			markCmp(x.Cond)
		case *ast.ForStmt:
			if x.Cond != nil {
				markCmp(x.Cond)
			}
		case *ast.SwitchStmt:
			if x.Tag != nil {
				// Tagged switch: every case arm is an implicit equality
				// test against the tag.
				ast.Inspect(x.Tag, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok {
						if obj := info.ObjectOf(id); obj != nil {
							g[obj] = true
						}
					}
					return true
				})
			} else {
				for _, stmt := range x.Body.List {
					if cc, ok := stmt.(*ast.CaseClause); ok {
						for _, e := range cc.List {
							markCmp(e)
						}
					}
				}
			}
		}
		return true
	})
	return g
}

func isComparisonOp(op token.Token) bool {
	switch op {
	case token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ:
		return true
	}
	return false
}

func (d *taintDomain) Join(a, b taint) taint {
	return taint{t: a.t || b.t, sign: joinSign(a.sign, b.sign)}
}

func (d *taintDomain) Seed(obj types.Object) (taint, bool) {
	if d.guarded[obj] {
		return taintSafePos, true
	}
	if d.params[obj] {
		return taint{t: true}, true
	}
	if v, ok := obj.(*types.Var); ok && v.IsField() && v.Exported() {
		return taint{t: true}, true
	}
	return taintTop, false
}

func (d *taintDomain) Eval(e ast.Expr, get func(types.Object) taint) taint {
	// Constant-fold first: the type checker knows the value of every
	// constant expression, signs included.
	if tv, ok := d.info.Types[e]; ok && tv.Value != nil {
		return taintFromConst(tv.Value)
	}
	switch x := e.(type) {
	case *ast.ParenExpr:
		return d.Eval(x.X, get)
	case *ast.Ident:
		obj := d.info.ObjectOf(x)
		if obj == nil {
			return taintTop
		}
		if d.guarded[obj] {
			return taintSafePos
		}
		return get(obj)
	case *ast.SelectorExpr:
		obj := d.info.Uses[x.Sel]
		if v, ok := obj.(*types.Var); ok && v.IsField() {
			if d.guarded[obj] {
				return taintSafePos
			}
			// A chain through an unexported field (t.design.MechanicalQ)
			// reads package-private storage: the value was put there by
			// code in this package (typically a validated constructor),
			// so it is trusted even when the leaf field is exported.
			if v.Exported() && chainThroughUnexported(d.info, x) {
				return taintTop
			}
			return get(obj)
		}
		return taintTop
	case *ast.UnaryExpr:
		v := d.Eval(x.X, get)
		if x.Op == token.SUB {
			s := signUnknown
			if v.sign == signPos || v.sign == signNonZero {
				s = signNonZero
			}
			return taint{v.t, s}
		}
		return v
	case *ast.BinaryExpr:
		if x.Op == token.MUL {
			return d.evalProduct(x, get)
		}
		return d.EvalOp(x.Op, d.Eval(x.X, get), d.Eval(x.Y, get))
	case *ast.CallExpr:
		return d.evalCall(x, get)
	case *ast.IndexExpr:
		v := d.Eval(x.X, get)
		return taint{v.t, signUnknown}
	case *ast.StarExpr:
		v := d.Eval(x.X, get)
		return taint{v.t, signUnknown}
	}
	return taintTop
}

// chainThroughUnexported reports whether the selector's base passes
// through an unexported struct field.
func chainThroughUnexported(info *types.Info, sel *ast.SelectorExpr) bool {
	e := sel.X
	for {
		switch b := e.(type) {
		case *ast.ParenExpr:
			e = b.X
		case *ast.StarExpr:
			e = b.X
		case *ast.IndexExpr:
			e = b.X
		case *ast.SelectorExpr:
			if v, ok := info.Uses[b.Sel].(*types.Var); ok && v.IsField() && !v.Exported() {
				return true
			}
			e = b.X
		default:
			return false
		}
	}
}

// evalProduct flattens a multiplication chain (Go parses q*q*x*x
// left-associatively, hiding the squares from a pairwise check) and
// pairs structurally identical factors: x·x ≥ 0 whatever x is, and
// > 0 when x is provably nonzero.
func (d *taintDomain) evalProduct(e *ast.BinaryExpr, get func(types.Object) taint) taint {
	var factors []ast.Expr
	var collect func(ast.Expr)
	collect = func(f ast.Expr) {
		switch b := f.(type) {
		case *ast.ParenExpr:
			collect(b.X)
		case *ast.BinaryExpr:
			if b.Op == token.MUL {
				collect(b.X)
				collect(b.Y)
				return
			}
			factors = append(factors, f)
		default:
			factors = append(factors, f)
		}
	}
	collect(e)

	groups := make(map[string]int)
	rep := make(map[string]ast.Expr)
	var keys []string
	for _, f := range factors {
		k := types.ExprString(f)
		if groups[k] == 0 {
			keys = append(keys, k)
			rep[k] = f
		}
		groups[k]++
	}
	tainted := false
	sign := signPos // multiplicative identity
	for _, k := range keys {
		v := d.Eval(rep[k], get)
		tainted = tainted || v.t
		n := groups[k]
		if n/2 > 0 {
			pair := signNonNeg
			if v.sign == signPos || v.sign == signNonZero {
				pair = signPos
			}
			sign = mulSign(sign, pair)
		}
		if n%2 == 1 {
			sign = mulSign(sign, v.sign)
		}
	}
	return taint{tainted, sign}
}

// mulSign is the (commutative, associative) sign algebra of products.
func mulSign(a, b int8) int8 {
	if a == signUnknown || b == signUnknown {
		return signUnknown
	}
	switch {
	case a == signPos && b == signPos:
		return signPos
	case (a == signPos || a == signNonZero) && (b == signPos || b == signNonZero):
		return signNonZero
	case (a == signPos || a == signNonNeg) && (b == signPos || b == signNonNeg):
		return signNonNeg
	}
	return signUnknown
}

func (d *taintDomain) EvalOp(op token.Token, x, y taint) taint {
	t := x.t || y.t
	switch op {
	case token.ADD:
		switch {
		case x.sign == signPos && (y.sign == signPos || y.sign == signNonNeg),
			y.sign == signPos && x.sign == signNonNeg:
			return taint{t, signPos}
		case x.sign == signNonNeg && y.sign == signNonNeg:
			return taint{t, signNonNeg}
		}
	case token.MUL:
		switch {
		case x.sign == signPos && y.sign == signPos:
			return taint{t, signPos}
		case (x.sign == signPos || x.sign == signNonNeg) &&
			(y.sign == signPos || y.sign == signNonNeg):
			return taint{t, signNonNeg}
		}
	case token.QUO:
		switch {
		case x.sign == signPos && y.sign == signPos:
			return taint{t, signPos}
		case x.sign == signNonNeg && y.sign == signPos:
			return taint{t, signNonNeg}
		}
	case token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ,
		token.LAND, token.LOR:
		return taintTop // boolean result
	}
	return taint{t, signUnknown}
}

func (d *taintDomain) EvalRange(x taint) (taint, taint) {
	// Range keys (indices) are safe; elements of a tainted collection
	// are tainted.
	return taintTop, taint{t: x.t, sign: signUnknown}
}

func (d *taintDomain) evalCall(call *ast.CallExpr, get func(types.Object) taint) taint {
	// Numeric conversion propagates the operand.
	if tv, ok := d.info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return d.Eval(call.Args[0], get)
		}
		return taintTop
	}
	// Builtins that forward their operand.
	if id, ok := call.Fun.(*ast.Ident); ok {
		switch id.Name {
		case "real", "imag":
			if len(call.Args) == 1 {
				v := d.Eval(call.Args[0], get)
				return taint{v.t, signUnknown}
			}
		case "complex":
			if len(call.Args) == 2 {
				a, b := d.Eval(call.Args[0], get), d.Eval(call.Args[1], get)
				// complex(re, im) is zero only when BOTH parts are zero.
				s := signUnknown
				if a.sign == signPos || a.sign == signNonZero ||
					b.sign == signPos || b.sign == signNonZero {
					s = signNonZero
				}
				return taint{a.t || b.t, s}
			}
		case "len", "cap":
			return taint{sign: signNonNeg}
		}
	}
	if path, name, ok := pkgFunc(d.pkg, call); ok {
		switch path {
		case "math":
			arg := func(i int) taint {
				if i < len(call.Args) {
					return d.Eval(call.Args[i], get)
				}
				return taintTop
			}
			switch name {
			case "Sqrt":
				v := arg(0)
				s := signNonNeg
				if v.sign == signPos {
					s = signPos // √x > 0 when x > 0
				}
				return taint{v.t, s}
			case "Abs":
				v := arg(0)
				s := signNonNeg
				if v.sign == signPos || v.sign == signNonZero {
					s = signPos
				}
				return taint{v.t, s}
			case "Exp", "Exp2":
				v := arg(0)
				return taint{v.t, signPos}
			case "Pow":
				b, e := arg(0), arg(1)
				t := b.t || e.t
				switch b.sign {
				case signPos:
					return taint{t, signPos}
				case signNonNeg:
					return taint{t, signNonNeg}
				}
				return taint{t, signUnknown}
			case "Max":
				a, b := arg(0), arg(1)
				t := a.t || b.t
				if a.sign == signPos || b.sign == signPos {
					return taint{t, signPos}
				}
				if a.sign == signNonNeg || b.sign == signNonNeg {
					return taint{t, signNonNeg}
				}
				return taint{t, signUnknown}
			case "Min":
				a, b := arg(0), arg(1)
				t := a.t || b.t
				if a.sign == signPos && b.sign == signPos {
					return taint{t, signPos}
				}
				if a.sign != signUnknown && b.sign != signUnknown &&
					a.sign != signNonZero && b.sign != signNonZero {
					return taint{t, signNonNeg}
				}
				return taint{t, signUnknown}
			case "Floor", "Ceil", "Round", "Trunc":
				v := arg(0)
				s := signUnknown
				if v.sign == signPos || v.sign == signNonNeg {
					s = signNonNeg
				}
				return taint{v.t, s}
			case "Hypot":
				a, b := arg(0), arg(1)
				return taint{a.t || b.t, signNonNeg}
			}
		case d.cfg.UnitsPkg:
			if name == "Clamp" && len(call.Args) == 3 {
				x := d.Eval(call.Args[0], get)
				lo := d.Eval(call.Args[1], get)
				s := signUnknown
				if lo.sign == signPos || lo.sign == signNonNeg {
					s = lo.sign
				}
				return taint{x.t, s}
			}
		}
	}
	// Results of other calls were produced inside the module — trusted.
	return taintTop
}

func taintFromConst(v constant.Value) taint {
	switch v.Kind() {
	case constant.Int, constant.Float:
		switch constant.Sign(v) {
		case 1:
			return taint{sign: signPos}
		case 0:
			return taint{sign: signNonNeg}
		default:
			return taint{sign: signNonZero}
		}
	}
	return taintTop
}

func runNanGuard(pass *Pass) {
	if !hasPath(pass.Cfg.FlowPkgs, pass.Pkg.Path) {
		return
	}
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			dom := newTaintDomain(pass, fn)
			get := solveFlow(pass.Pkg.Info, fn, dom)
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.BinaryExpr:
					if x.Op != token.QUO || !isFloatishExpr(pass, x) {
						return true
					}
					v := dom.Eval(x.Y, get)
					if v.t && v.sign != signPos && v.sign != signNonZero {
						pass.Reportf(x.OpPos,
							"possible NaN/Inf: division by %s, which flows from an unguarded external input; validate or clamp it before dividing",
							types.ExprString(x.Y))
					}
				case *ast.CallExpr:
					path, name, ok := pkgFunc(pass.Pkg, x)
					if !ok || path != "math" || len(x.Args) != 1 {
						return true
					}
					v := dom.Eval(x.Args[0], get)
					switch name {
					case "Log", "Log10", "Log2":
						if v.t && v.sign != signPos {
							pass.Reportf(x.Pos(),
								"possible NaN/Inf: math.%s of %s, which flows from an unguarded external input; guard non-positive values first",
								name, types.ExprString(x.Args[0]))
						}
					case "Sqrt":
						if v.t && v.sign != signPos && v.sign != signNonNeg {
							pass.Reportf(x.Pos(),
								"possible NaN: math.Sqrt of %s, which flows from an unguarded external input; guard negative values first",
								types.ExprString(x.Args[0]))
						}
					}
				}
				return true
			})
		}
	}
}

// isFloatishExpr reports whether e has float or complex type — the
// types whose division yields NaN/Inf instead of panicking.
func isFloatishExpr(pass *Pass, e ast.Expr) bool {
	t := pass.Pkg.Info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}
