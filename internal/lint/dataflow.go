package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the intraprocedural dataflow engine behind nanguard. It
// computes, per function, a conservative taint × sign value (nanguard.go)
// for every local object (parameter, receiver, named result, local
// variable, assigned struct field) by iterating the function body to a
// fixpoint.
//
// The engine is deliberately flow-insensitive *within* a function body
// in the classic "join all assignments" sense: the environment maps
// each object to the join of every value ever assigned to it, seeded
// with the domain's initial value for parameters. That is sound for
// the property checked here (a value that MIGHT be tainted keeps that
// possibility), converges in a handful of passes because the lattice
// is shallow, and avoids needing a CFG — branches, loops and gotos all
// collapse into joins.
//
// The domain supplies the lattice (Join, Seed, with taintTop as the
// "unknown" element joins absorb into) and the transfer functions:
// Eval for expressions, EvalOp for binary operators (so the engine can
// model augmented assignments, x += e, without synthesising AST nodes
// that lack type info) and EvalRange for "for k, v := range x". Eval
// must be side-effect free: the engine re-evaluates expressions during
// iteration, so reporting happens in a separate pass over the solved
// environment.

// maxFlowIters bounds fixpoint iteration. The lattice has height ≤ 2
// (unknown / known / top-like collapses), so convergence normally
// takes 2–3 passes; the bound only guards pathological cases.
const maxFlowIters = 8

// solveFlow runs the fixpoint for one function body and returns the
// lookup over the final environment. Absent objects are ⊥ — reads of
// them fall back to dom.Seed, then taintTop.
func solveFlow(info *types.Info, fn *ast.FuncDecl, dom *taintDomain) func(types.Object) taint {
	env := make(map[types.Object]taint)
	get := func(obj types.Object) taint {
		if v, ok := env[obj]; ok {
			return v
		}
		if v, ok := dom.Seed(obj); ok {
			return v
		}
		return taintTop
	}
	if fn.Body == nil {
		return get
	}

	// Parameters, receiver and named results hold their seed at entry;
	// later writes join into it (a write on one branch may not execute).
	seedField := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				obj := info.Defs[name]
				if obj == nil {
					continue
				}
				env[obj] = get(obj)
			}
		}
	}
	seedField(fn.Recv)
	seedField(fn.Type.Params)
	seedField(fn.Type.Results)

	update := func(obj types.Object, v taint) bool {
		if obj == nil {
			return false
		}
		old, ok := env[obj]
		if !ok {
			env[obj] = v
			return true
		}
		next := dom.Join(old, v)
		if next == old {
			return false
		}
		env[obj] = next
		return true
	}

	for iter := 0; iter < maxFlowIters; iter++ {
		changed := false
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				switch {
				case len(x.Rhs) == 1 && len(x.Lhs) > 1:
					// Tuple assignment (multi-return, map/chan comma-ok):
					// component values are opaque to the domain.
					for _, lh := range x.Lhs {
						if update(lhsObject(info, lh), taintTop) {
							changed = true
						}
					}
				case len(x.Lhs) == len(x.Rhs):
					for i := range x.Lhs {
						obj := lhsObject(info, x.Lhs[i])
						if obj == nil {
							continue
						}
						var v taint
						if op, aug := augBinOp(x.Tok); aug {
							v = dom.EvalOp(op, dom.Eval(x.Lhs[i], get), dom.Eval(x.Rhs[i], get))
						} else {
							v = dom.Eval(x.Rhs[i], get)
						}
						if update(obj, v) {
							changed = true
						}
					}
				}
			case *ast.ValueSpec:
				// var x T = e (inside a DeclStmt).
				for i, name := range x.Names {
					obj := info.Defs[name]
					if obj == nil {
						continue
					}
					v := taintTop
					if i < len(x.Values) {
						v = dom.Eval(x.Values[i], get)
					}
					if update(obj, v) {
						changed = true
					}
				}
			case *ast.RangeStmt:
				kv, vv := dom.EvalRange(dom.Eval(x.X, get))
				if update(lhsObject(info, x.Key), kv) {
					changed = true
				}
				if update(lhsObject(info, x.Value), vv) {
					changed = true
				}
			}
			return true
		})
		if !changed {
			break
		}
	}
	return get
}

// lhsObject resolves an assignable expression to the object it writes:
// a plain identifier (local, param) or the field object of a selector
// (t.c1 = …). Index and dereference targets have no stable object and
// return nil, as does the blank identifier.
func lhsObject(info *types.Info, e ast.Expr) types.Object {
	switch x := e.(type) {
	case nil:
		return nil
	case *ast.ParenExpr:
		return lhsObject(info, x.X)
	case *ast.Ident:
		if x.Name == "_" {
			return nil
		}
		if obj := info.Defs[x]; obj != nil {
			return obj
		}
		return info.Uses[x]
	case *ast.SelectorExpr:
		return info.Uses[x.Sel]
	default:
		return nil
	}
}

// augBinOp maps an augmented-assignment token (+=, *=, …) to the
// underlying binary operator. aug is false for = and :=.
func augBinOp(tok token.Token) (token.Token, bool) {
	switch tok {
	case token.ADD_ASSIGN:
		return token.ADD, true
	case token.SUB_ASSIGN:
		return token.SUB, true
	case token.MUL_ASSIGN:
		return token.MUL, true
	case token.QUO_ASSIGN:
		return token.QUO, true
	case token.REM_ASSIGN:
		return token.REM, true
	case token.AND_ASSIGN:
		return token.AND, true
	case token.OR_ASSIGN:
		return token.OR, true
	case token.XOR_ASSIGN:
		return token.XOR, true
	case token.SHL_ASSIGN:
		return token.SHL, true
	case token.SHR_ASSIGN:
		return token.SHR, true
	case token.AND_NOT_ASSIGN:
		return token.AND_NOT, true
	}
	return token.ILLEGAL, false
}
