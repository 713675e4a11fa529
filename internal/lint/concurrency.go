package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the syntactic/abstract-interpretation substrate behind
// the lockdiscipline analyzer: mutex-expression resolution, a must-hold
// lock-region walker, loop-break analysis, and static callee
// resolution.
//
// The walker threads a *must-hold* set of mutexes through a function
// body in syntactic order: Lock() adds, Unlock() removes, `defer
// mu.Unlock()` keeps the mutex held to the end of the function, and
// joins at branches intersect (a mutex counts as held only when it is
// held on every path). Must-hold under-approximates, which is the
// right direction for both uses: an access reported as unguarded might
// still be guarded (false positive risk), but an access accepted as
// guarded really is on every path.
//
// Closures follow the synchronous-helper policy of this codebase:
//   - an IIFE (func(){...}()) runs inline — its body sees the current
//     held set;
//   - a closure passed to a *module-internal* function is assumed to
//     run synchronously (the walLogLocked/prof.Do shape) and also sees
//     the current held set;
//   - a closure passed to an external function (time.AfterFunc,
//     expvar.Func, mux.HandleFunc) or assigned to a variable runs at
//     an unknown time and is walked with an empty held set;
//   - a `go func(){...}` body is a new goroutine: empty held set;
//   - a deferred closure runs during unwinding where the held state is
//     ambiguous: its body is skipped entirely.

// lockKind distinguishes a write lock from an RWMutex read lock.
type lockKind int

const (
	lockWrite lockKind = iota + 1
	lockRead
)

// heldSet maps a mutex object (struct field or package-level var of
// type sync.Mutex/sync.RWMutex) to how it is currently held.
type heldSet map[types.Object]lockKind

func copyHeld(h heldSet) heldSet {
	out := make(heldSet, len(h))
	for k, v := range h {
		out[k] = v
	}
	return out
}

// intersectHeld reduces dst to the mutexes held in both sets, keeping
// the weaker kind (read < write) at disagreements.
func intersectHeld(dst, other heldSet) {
	for k, v := range dst {
		ov, ok := other[k]
		if !ok {
			delete(dst, k)
			continue
		}
		if v == lockWrite && ov == lockRead {
			dst[k] = lockRead
		}
	}
}

// isMutexType reports whether t (possibly behind a pointer) is
// sync.Mutex or sync.RWMutex; rw distinguishes the two.
func isMutexType(t types.Type) (rw, ok bool) {
	if p, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return false, false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false, false
	}
	switch obj.Name() {
	case "Mutex":
		return false, true
	case "RWMutex":
		return true, true
	}
	return false, false
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

// lockCall resolves a call expression to a mutex operation: mu is the
// mutex's defining object (a struct field *types.Var or a
// package-level var), root is the object the selector is rooted at
// (the receiver/local for s.mu.Lock(), nil for a package-level mutex).
func lockCall(pkg *Package, call *ast.CallExpr) (mu, root types.Object, op lockOp, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, nil, lockOpNone, false
	}
	op = classifyLockOp(sel.Sel.Name)
	if op == lockOpNone {
		return nil, nil, lockOpNone, false
	}
	// The method must belong to sync.Mutex/sync.RWMutex.
	if s, okSel := pkg.Info.Selections[sel]; okSel {
		fn, okFn := s.Obj().(*types.Func)
		if !okFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
			return nil, nil, lockOpNone, false
		}
	} else {
		return nil, nil, lockOpNone, false
	}
	mu, root, ok = resolveMutexExpr(pkg, sel.X)
	if !ok {
		return nil, nil, lockOpNone, false
	}
	return mu, root, op, true
}

// resolveMutexExpr maps an expression denoting a mutex (s.mu, mu,
// s.embedded-Mutex) to (mutex object, root object).
func resolveMutexExpr(pkg *Package, e ast.Expr) (mu, root types.Object, ok bool) {
	switch x := e.(type) {
	case *ast.SelectorExpr:
		fieldObj := pkg.Info.Uses[x.Sel]
		if fieldObj == nil {
			return nil, nil, false
		}
		if _, isMu := isMutexType(fieldObj.Type()); !isMu {
			return nil, nil, false
		}
		r := rootIdent(x.X)
		if r == nil {
			return nil, nil, false
		}
		ro := pkg.Info.Uses[r]
		if ro == nil {
			ro = pkg.Info.Defs[r]
		}
		return fieldObj, ro, ro != nil
	case *ast.Ident:
		obj := pkg.Info.Uses[x]
		if obj == nil {
			return nil, nil, false
		}
		if _, isMu := isMutexType(obj.Type()); !isMu {
			return nil, nil, false
		}
		if v, isVar := obj.(*types.Var); isVar && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			// Package-level mutex: the var itself is the identity.
			return obj, nil, true
		}
		// A local mutex (or embedded receiver shorthand): identity is
		// the object itself, rooted at itself.
		return obj, obj, true
	case *ast.ParenExpr:
		return resolveMutexExpr(pkg, x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return resolveMutexExpr(pkg, x.X)
		}
	}
	return nil, nil, false
}

// lockWalker threads a must-hold set through one function body.
type lockWalker struct {
	pkg *Package
	// isModulePath reports whether an import path belongs to the module
	// (closure-inlining policy).
	isModulePath func(string) bool
	// visit is called for every expression/statement node reached, with
	// the must-hold set current at that node. The set is shared and
	// mutated as the walk proceeds — snapshot it if kept.
	visit func(n ast.Node, held heldSet)
}

// walkBody walks a function body with the given entry held set.
func (w *lockWalker) walkBody(body *ast.BlockStmt, entry heldSet) {
	if body == nil {
		return
	}
	held := copyHeld(entry)
	w.stmts(body.List, held)
}

// stmts walks a statement list, stopping at the first terminated path.
func (w *lockWalker) stmts(list []ast.Stmt, held heldSet) (terminated bool) {
	for _, s := range list {
		if w.stmt(s, held) {
			return true
		}
	}
	return false
}

// stmt walks one statement, mutating held and reporting whether the
// path terminates (return / break / continue / infinite loop).
func (w *lockWalker) stmt(s ast.Stmt, held heldSet) (terminated bool) {
	if s == nil {
		return false
	}
	switch x := s.(type) {
	case *ast.BlockStmt:
		return w.stmts(x.List, held)
	case *ast.ExprStmt:
		w.expr(x.X, held)
		w.applyLock(x.X, held)
	case *ast.DeferStmt:
		w.visit(x, held)
		if _, _, op, ok := lockCall(w.pkg, x.Call); ok && (op == lockOpUnlock || op == lockOpRUnlock) {
			// defer mu.Unlock(): released at exit — held to the end.
			return false
		}
		// Deferred closures run during unwinding and deferred calls run
		// at exit, where the held state is ambiguous: walk only the
		// argument expressions (evaluated now), not the call itself.
		if lit, isLit := x.Call.Fun.(*ast.FuncLit); isLit {
			_ = lit // body skipped
		}
		for _, a := range x.Call.Args {
			if _, isLit := a.(*ast.FuncLit); isLit {
				continue
			}
			w.expr(a, held)
		}
	case *ast.GoStmt:
		w.visit(x, held)
		if lit, isLit := x.Call.Fun.(*ast.FuncLit); isLit {
			w.walkBody(lit.Body, nil) // new goroutine: nothing held
		} else {
			w.expr(x.Call.Fun, held)
		}
		for _, a := range x.Call.Args {
			w.expr(a, held)
		}
	case *ast.AssignStmt:
		w.visit(x, held)
		for _, e := range x.Rhs {
			w.expr(e, held)
		}
		for _, e := range x.Lhs {
			w.expr(e, held)
		}
	case *ast.IncDecStmt:
		w.visit(x, held)
		w.expr(x.X, held)
	case *ast.SendStmt:
		w.visit(x, held)
		w.expr(x.Chan, held)
		w.expr(x.Value, held)
	case *ast.DeclStmt:
		w.visit(x, held)
		if gd, okGd := x.Decl.(*ast.GenDecl); okGd {
			for _, spec := range gd.Specs {
				if vs, okVs := spec.(*ast.ValueSpec); okVs {
					for _, v := range vs.Values {
						w.expr(v, held)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		w.visit(x, held)
		for _, e := range x.Results {
			w.expr(e, held)
		}
		return true
	case *ast.BranchStmt:
		w.visit(x, held)
		return true
	case *ast.IfStmt:
		if x.Init != nil {
			w.stmt(x.Init, held)
		}
		w.expr(x.Cond, held)
		thenHeld := copyHeld(held)
		tTerm := w.stmt(x.Body, thenHeld)
		if x.Else != nil {
			elseHeld := copyHeld(held)
			eTerm := w.stmt(x.Else, elseHeld)
			switch {
			case tTerm && eTerm:
				return true
			case tTerm:
				replaceHeld(held, elseHeld)
			case eTerm:
				replaceHeld(held, thenHeld)
			default:
				intersectHeld(thenHeld, elseHeld)
				replaceHeld(held, thenHeld)
			}
		} else if !tTerm {
			intersectHeld(held, thenHeld)
		}
	case *ast.ForStmt:
		if x.Init != nil {
			w.stmt(x.Init, held)
		}
		if x.Cond != nil {
			w.expr(x.Cond, held)
		}
		bodyHeld := copyHeld(held)
		w.stmt(x.Body, bodyHeld)
		if x.Post != nil {
			w.stmt(x.Post, bodyHeld)
		}
		// After the loop the entry state stands (zero iterations). A
		// condition-less loop with no break never falls through.
		if x.Cond == nil && !loopHasBreak(x.Body) {
			return true
		}
	case *ast.RangeStmt:
		w.expr(x.X, held)
		bodyHeld := copyHeld(held)
		w.stmt(x.Body, bodyHeld)
	case *ast.SwitchStmt:
		if x.Init != nil {
			w.stmt(x.Init, held)
		}
		if x.Tag != nil {
			w.expr(x.Tag, held)
		}
		w.caseClauses(x.Body, held)
	case *ast.TypeSwitchStmt:
		if x.Init != nil {
			w.stmt(x.Init, held)
		}
		w.stmt(x.Assign, held)
		w.caseClauses(x.Body, held)
	case *ast.SelectStmt:
		w.visit(x, held)
		for _, c := range x.Body.List {
			cc, okCc := c.(*ast.CommClause)
			if !okCc {
				continue
			}
			caseHeld := copyHeld(held)
			if cc.Comm != nil {
				w.stmt(cc.Comm, caseHeld)
			}
			w.stmts(cc.Body, caseHeld)
		}
		// Joining the comm cases precisely buys little; keep entry.
	case *ast.LabeledStmt:
		return w.stmt(x.Stmt, held)
	case *ast.EmptyStmt:
	default:
		w.visit(x, held)
	}
	return false
}

// caseClauses walks switch/type-switch cases, each with a copy of the
// entry set; the post-switch state conservatively stays the entry set.
func (w *lockWalker) caseClauses(body *ast.BlockStmt, held heldSet) {
	for _, c := range body.List {
		cc, okCc := c.(*ast.CaseClause)
		if !okCc {
			continue
		}
		caseHeld := copyHeld(held)
		for _, e := range cc.List {
			w.expr(e, caseHeld)
		}
		w.stmts(cc.Body, caseHeld)
	}
}

func replaceHeld(dst, src heldSet) {
	for k := range dst {
		delete(dst, k)
	}
	for k, v := range src {
		dst[k] = v
	}
}

// applyLock updates held for a statement-level mutex call.
func (w *lockWalker) applyLock(e ast.Expr, held heldSet) {
	call, okCall := e.(*ast.CallExpr)
	if !okCall {
		return
	}
	mu, _, op, ok := lockCall(w.pkg, call)
	if !ok {
		return
	}
	switch op {
	case lockOpLock:
		held[mu] = lockWrite
	case lockOpRLock:
		held[mu] = lockRead
	case lockOpUnlock, lockOpRUnlock:
		delete(held, mu)
	}
}

// expr walks an expression tree, dispatching closures per the policy
// documented at the top of the file.
func (w *lockWalker) expr(e ast.Expr, held heldSet) {
	if e == nil {
		return
	}
	switch x := e.(type) {
	case *ast.FuncLit:
		// Assigned or returned closure: unknown execution context.
		w.walkBody(x.Body, nil)
		return
	case *ast.CallExpr:
		w.visit(x, held)
		if lit, isLit := x.Fun.(*ast.FuncLit); isLit {
			// IIFE: runs right here, sees the current holds.
			for _, a := range x.Args {
				w.expr(a, held)
			}
			w.walkBody(lit.Body, held)
			return
		}
		w.expr(x.Fun, held)
		inline := w.moduleCallee(x)
		for _, a := range x.Args {
			if lit, isLit := a.(*ast.FuncLit); isLit {
				if inline {
					w.walkBody(lit.Body, held)
				} else {
					w.walkBody(lit.Body, nil)
				}
				continue
			}
			w.expr(a, held)
		}
		return
	}
	w.visit(e, held)
	// Generic recursion over children, stopping at nested closures and
	// calls (handled above).
	for _, child := range exprChildren(e) {
		w.expr(child, held)
	}
}

// moduleCallee reports whether the call's static callee is a
// module-internal function (synchronous-helper closure policy).
func (w *lockWalker) moduleCallee(call *ast.CallExpr) bool {
	callee := staticCallee(w.pkg, call)
	if callee == nil || callee.Pkg() == nil {
		return false
	}
	return w.isModulePath != nil && w.isModulePath(callee.Pkg().Path())
}

// exprChildren enumerates the direct sub-expressions of e.
func exprChildren(e ast.Expr) []ast.Expr {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return []ast.Expr{x.X}
	case *ast.SelectorExpr:
		return []ast.Expr{x.X}
	case *ast.IndexExpr:
		return []ast.Expr{x.X, x.Index}
	case *ast.IndexListExpr:
		return append([]ast.Expr{x.X}, x.Indices...)
	case *ast.SliceExpr:
		return []ast.Expr{x.X, x.Low, x.High, x.Max}
	case *ast.TypeAssertExpr:
		return []ast.Expr{x.X}
	case *ast.StarExpr:
		return []ast.Expr{x.X}
	case *ast.UnaryExpr:
		return []ast.Expr{x.X}
	case *ast.BinaryExpr:
		return []ast.Expr{x.X, x.Y}
	case *ast.KeyValueExpr:
		return []ast.Expr{x.Key, x.Value}
	case *ast.CompositeLit:
		return x.Elts
	}
	return nil
}

// inspectSyncCode visits the nodes of body that execute synchronously
// within the enclosing function, honouring the closure policy at the
// top of this file: go-spawned, deferred, var-assigned and
// external-callee-argument closures run at another time (or on another
// goroutine) and are skipped; IIFEs and closures passed to
// module-internal helpers run inline and are descended into.
func inspectSyncCode(pkg *Package, isModulePath func(string) bool, body *ast.BlockStmt, visit func(ast.Node)) {
	var walk func(n ast.Node)
	walkArgs := func(args []ast.Expr) {
		for _, a := range args {
			if _, isLit := a.(*ast.FuncLit); !isLit {
				walk(a)
			}
		}
	}
	walk = func(n ast.Node) {
		if n == nil {
			return
		}
		switch x := n.(type) {
		case *ast.GoStmt:
			walkArgs(x.Call.Args) // evaluated now; the body runs elsewhere
			return
		case *ast.DeferStmt:
			walkArgs(x.Call.Args)
			return
		case *ast.FuncLit:
			return // assigned/returned closure: runs at an unknown time
		case *ast.CallExpr:
			visit(x)
			if lit, isLit := x.Fun.(*ast.FuncLit); isLit {
				walkArgs(x.Args)
				walk(lit.Body) // IIFE runs right here
				return
			}
			walk(x.Fun)
			inline := false
			if callee := staticCallee(pkg, x); callee != nil && callee.Pkg() != nil &&
				isModulePath != nil && isModulePath(callee.Pkg().Path()) {
				inline = true
			}
			for _, a := range x.Args {
				if lit, isLit := a.(*ast.FuncLit); isLit {
					if inline {
						walk(lit.Body)
					}
					continue
				}
				walk(a)
			}
			return
		}
		visit(n)
		ast.Inspect(n, func(m ast.Node) bool {
			if m == n {
				return true
			}
			walk(m)
			return false
		})
	}
	walk(body)
}

// loopHasBreak reports whether body contains a break that exits the
// enclosing loop (an unlabeled break not captured by a nested
// for/switch/select, or any labeled break/goto).
func loopHasBreak(body ast.Stmt) bool {
	found := false
	var walk func(n ast.Node, breakable bool)
	walk = func(n ast.Node, breakable bool) {
		if n == nil || found {
			return
		}
		switch x := n.(type) {
		case *ast.BranchStmt:
			if x.Tok == token.GOTO {
				found = true
				return
			}
			if x.Tok == token.BREAK && (x.Label != nil || !breakable) {
				found = true
			}
			return
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			ast.Inspect(n, func(m ast.Node) bool {
				if m == n {
					return true
				}
				walk(m, true)
				return false
			})
			return
		case *ast.FuncLit:
			return // breaks inside a closure don't exit our loop
		}
		ast.Inspect(n, func(m ast.Node) bool {
			if m == n {
				return true
			}
			walk(m, breakable)
			return false
		})
	}
	walk(body, false)
	return found
}

// funcDisplayName renders pkg.Func or pkg.Type.Method.
func funcDisplayName(fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() != nil {
		name = fn.Pkg().Name() + "." + name
	}
	return name
}

// staticCallee resolves a call expression to its statically known
// callee: a package-level function (local or imported) or a concrete
// method. Interface methods and func-typed values return nil — those
// are dynamic, and deliberately invisible so dependency injection
// works.
func staticCallee(pkg *Package, call *ast.CallExpr) *types.Func {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[f].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[f]; ok {
			fn, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				if types.IsInterface(sig.Recv().Type()) {
					return nil
				}
			}
			return fn
		}
		// Package-qualified: pkg.Fn.
		if fn, ok := pkg.Info.Uses[f.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}
