package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// FloatCmpAnalyzer flags == and != between floating-point (or complex)
// operands. Exact float equality is almost never what the signal path
// means — a single ULP of drift in an FFT or filter would silently flip
// such a branch — so comparisons must go through an approved epsilon
// helper (units.ApproxEqual).
//
// Two idioms stay legal:
//
//   - comparison against an exact compile-time zero (x != 0): zero is
//     exactly representable and is this codebase's "feature off"
//     sentinel (drift PPM, gain overrides, …);
//   - both operands constant: the comparison folds at compile time.
//
// Bodies of the approved helpers themselves are exempt — someone has to
// implement the tolerance.
func FloatCmpAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "floatcmp",
		Doc:  "forbid raw ==/!= on floating-point operands outside approved epsilon helpers",
		Tier: TierSyntactic,
		Run:  runFloatCmp,
	}
}

func runFloatCmp(pass *Pass) {
	helpers := pass.Cfg.EpsilonHelpers[pass.Pkg.Path]
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if hasName(helpers, fn.Name.Name) {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				bin, ok := n.(*ast.BinaryExpr)
				if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
					return true
				}
				if !isFloatish(pass.Pkg.Info.TypeOf(bin.X)) && !isFloatish(pass.Pkg.Info.TypeOf(bin.Y)) {
					return true
				}
				xv := pass.Pkg.Info.Types[bin.X]
				yv := pass.Pkg.Info.Types[bin.Y]
				if xv.Value != nil && yv.Value != nil {
					return true // constant-folds at compile time
				}
				if isExactZero(xv) || isExactZero(yv) {
					return true // exact-zero sentinel check
				}
				pass.Reportf(bin.OpPos, "floating-point %s comparison: use an epsilon helper (units.ApproxEqual) or compare against an exact-zero sentinel", bin.Op)
				return true
			})
		}
	}
}

func hasName(names []string, name string) bool {
	for _, n := range names {
		if n == name {
			return true
		}
	}
	return false
}

// isFloatish reports whether t (possibly a named type like units.DB)
// has a floating-point or complex underlying type.
func isFloatish(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}

// isExactZero reports whether the expression is a compile-time numeric
// constant equal to zero.
func isExactZero(tv types.TypeAndValue) bool {
	if tv.Value == nil {
		return false
	}
	switch tv.Value.Kind() {
	case constant.Int, constant.Float:
		return constant.Sign(tv.Value) == 0
	case constant.Complex:
		return constant.Sign(constant.Real(tv.Value)) == 0 && constant.Sign(constant.Imag(tv.Value)) == 0
	}
	return false
}
