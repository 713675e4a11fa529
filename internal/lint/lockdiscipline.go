package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockDisciplineAnalyzer flags defer-less unlock ladders: a function
// with two or more manual Unlock() (or RUnlock()) calls for one mutex
// and no deferred unlock of it. That is the shape where the next early
// return someone adds leaks the lock. The fix is a defer, or a
// defer-scoped locked helper the function calls.
//
// Guard discipline itself (which fields a mutex protects) is not
// inferred statically: data races are caught at runtime by
// `go test -race`. See DESIGN.md §15.
func LockDisciplineAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "lockdiscipline",
		Doc:  "defer-less unlock ladders: two or more manual Unlock paths for one mutex and no deferred unlock",
		Tier: TierConcurrency,
		Run:  reportDeferless,
	}
}

// reportDeferless runs deferlessFunc over every function declaration
// of the package.
func reportDeferless(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			deferlessFunc(pass, fd)
		}
	}
}

// deferlessFunc reports each mutex (write and read side separately)
// that fd locks and unlocks manually on two or more paths with no
// deferred unlock. Function literals are separate bodies and are not
// descended into.
func deferlessFunc(pass *Pass, fd *ast.FuncDecl) {
	type key struct {
		mu   types.Object
		read bool // RLock/RUnlock family
	}
	locks := make(map[key][]token.Pos)
	unlocks := make(map[key]int)
	deferred := make(map[key]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false // separate function body
		case *ast.DeferStmt:
			if mu, op, ok := lockCall(pass.Pkg, x.Call); ok {
				switch op {
				case lockOpUnlock:
					deferred[key{mu, false}] = true
				case lockOpRUnlock:
					deferred[key{mu, true}] = true
				}
			}
			return false
		case *ast.CallExpr:
			if mu, op, ok := lockCall(pass.Pkg, x); ok {
				switch op {
				case lockOpLock:
					locks[key{mu, false}] = append(locks[key{mu, false}], x.Pos())
				case lockOpRLock:
					locks[key{mu, true}] = append(locks[key{mu, true}], x.Pos())
				case lockOpUnlock:
					unlocks[key{mu, false}]++
				case lockOpRUnlock:
					unlocks[key{mu, true}]++
				}
			}
		}
		return true
	})
	for k, count := range unlocks {
		if count < 2 || deferred[k] || len(locks[k]) == 0 {
			continue
		}
		verb := "Unlock"
		if k.read {
			verb = "RUnlock"
		}
		pass.Reportf(locks[k][0],
			"%d manual %s paths for %s with no defer; a new early return leaks the lock — use defer or extract a locked helper",
			count, verb, mutexObjDisplay(pass.Pkg, k.mu))
	}
}

// mutexObjDisplay renders a mutex object as Type.field or pkg var
// name, scanning the package scope for the owning struct.
func mutexObjDisplay(pkg *Package, mu types.Object) string {
	v, ok := mu.(*types.Var)
	if !ok || !v.IsField() {
		return mu.Name()
	}
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, okTn := scope.Lookup(name).(*types.TypeName)
		if !okTn {
			continue
		}
		st, okSt := tn.Type().Underlying().(*types.Struct)
		if !okSt {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == v {
				return tn.Name() + "." + v.Name()
			}
		}
	}
	return mu.Name()
}

// isMutexType reports whether t (possibly behind a pointer) is
// sync.Mutex or sync.RWMutex.
func isMutexType(t types.Type) bool {
	if p, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// lockOp classifies a mutex method name.
type lockOp int

const (
	lockOpNone lockOp = iota
	lockOpLock
	lockOpRLock
	lockOpUnlock
	lockOpRUnlock
)

func classifyLockOp(name string) lockOp {
	switch name {
	case "Lock":
		return lockOpLock
	case "RLock":
		return lockOpRLock
	case "Unlock":
		return lockOpUnlock
	case "RUnlock":
		return lockOpRUnlock
	}
	return lockOpNone
}

// lockCall resolves a call expression to a mutex operation; mu is the
// mutex's defining object (a struct field *types.Var, a local or a
// package-level var).
func lockCall(pkg *Package, call *ast.CallExpr) (mu types.Object, op lockOp, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, lockOpNone, false
	}
	op = classifyLockOp(sel.Sel.Name)
	if op == lockOpNone {
		return nil, lockOpNone, false
	}
	// The method must belong to sync.Mutex/sync.RWMutex.
	s, okSel := pkg.Info.Selections[sel]
	if !okSel {
		return nil, lockOpNone, false
	}
	if fn, okFn := s.Obj().(*types.Func); !okFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, lockOpNone, false
	}
	mu, ok = resolveMutexExpr(pkg, sel.X)
	if !ok {
		return nil, lockOpNone, false
	}
	return mu, op, true
}

// resolveMutexExpr maps an expression denoting a mutex (s.mu, mu,
// &s.mu) to the mutex's defining object. A field selector must be
// rooted at a resolvable identifier.
func resolveMutexExpr(pkg *Package, e ast.Expr) (mu types.Object, ok bool) {
	switch x := e.(type) {
	case *ast.SelectorExpr:
		fieldObj := pkg.Info.Uses[x.Sel]
		if fieldObj == nil || !isMutexType(fieldObj.Type()) {
			return nil, false
		}
		r := rootIdent(x.X)
		if r == nil || (pkg.Info.Uses[r] == nil && pkg.Info.Defs[r] == nil) {
			return nil, false
		}
		return fieldObj, true
	case *ast.Ident:
		obj := pkg.Info.Uses[x]
		if obj == nil || !isMutexType(obj.Type()) {
			return nil, false
		}
		return obj, true
	case *ast.ParenExpr:
		return resolveMutexExpr(pkg, x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return resolveMutexExpr(pkg, x.X)
		}
	}
	return nil, false
}
