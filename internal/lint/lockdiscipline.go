package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockDisciplineAnalyzer checks the mutex conventions the service
// layer (sim scheduler, WAL, telemetry registry) is built on. Five
// sub-rules share one must-hold walk (concurrency.go):
//
//  1. Guard-set inference: a struct field written while holding one of
//     its struct's mutexes is inferred to be guarded by that mutex;
//     every other access (read or write) through a variable of that
//     type must then hold it too. Inference is write-based — fields
//     only ever read, or only written in constructors on fresh
//     objects, infer no guard and stay silent. The repo's
//     `*Locked`-suffix convention (caller holds the receiver mutex)
//     seeds the inference, and unexported helpers whose every observed
//     call site holds the mutex inherit an entry-held state, so
//     createActive-style helpers called from both locked methods and
//     constructors don't misfire.
//  2. Locked-convention calls: calling a `*Locked` method without
//     holding the receiver's mutex on every path.
//  3. Blocking while locked: channel sends/receives, default-less
//     selects, time.Sleep and WaitGroup.Wait while a mutex is held.
//     cond.Wait on the condition's own mutex (sync.NewCond(&s.mu)) is
//     the one legal blocking wait and is recognised. File I/O under a
//     mutex is deliberately not flagged — the WAL serialises writes by
//     design.
//  4. Defer-less unlock ladders: a function with two or more manual
//     Unlock() paths for the same mutex and no deferred unlock — the
//     shape where the next early return leaks the lock.
//  5. Lock-order graph: a module-wide transitive lock-acquisition
//     graph with witness chains; cycles are reported as
//     potential lock-order inversions, self-edges as potential
//     recursive acquisition (self-deadlock). Mutex identity is per
//     field (type-keyed), not per instance, so two instances of one
//     type can in principle false-positive — suppress with a reasoned
//     pablint:ignore if that pattern ever appears.
func LockDisciplineAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "lockdiscipline",
		Doc:  "inferred guard sets, *Locked call convention, no blocking while locked, defer-less unlock ladders, lock-order inversions",
		Tier: TierConcurrency,
		Run:  runLockDiscipline,
	}
}

func runLockDiscipline(pass *Pass) {
	if !hasPath(pass.Cfg.ConcurrencyPkgs, pass.Pkg.Path) {
		return
	}
	a := newLockAnalysis(pass)
	if len(a.fieldOwner) > 0 || len(a.mutexFields) > 0 {
		a.inferEntries()
		a.reportGuards()
	}
	a.reportDeferless()
	reportLockOrder(pass)
}

// ---------------------------------------------------------------------------
// Per-package guard analysis (sub-rules 1–4)
// ---------------------------------------------------------------------------

// fieldAccess is one read or write of a candidate guarded field.
type fieldAccess struct {
	field *types.Var
	owner *types.Named
	pos   token.Pos
	write bool
	held  heldSet // snapshot at the access, restricted to owner's mutexes
}

// methodSite is one static call to a method of a mutex-bearing type.
type methodSite struct {
	callee *types.Func
	owner  *types.Named
	pos    token.Pos
	held   heldSet
}

// blockSite is one potentially blocking operation under a held mutex.
type blockSite struct {
	desc string
	pos  token.Pos
	held heldSet
}

type lockAnalysis struct {
	pass *Pass
	pkg  *Package

	// mutexFields lists each package struct type's mutex fields.
	mutexFields map[*types.Named][]*types.Var
	// fieldOwner maps candidate guarded fields (non-mutex, non-sync
	// fields of mutex-bearing structs) to their owning type.
	fieldOwner map[*types.Var]*types.Named
	// condMutex maps a *sync.Cond field to the mutex it was built over
	// (sync.NewCond(&s.mu)).
	condMutex map[types.Object]types.Object
	// entryHeld is the per-function entry lock state: Locked-suffix
	// convention plus inferred unexported helpers.
	entryHeld map[*types.Func]heldSet

	accesses []fieldAccess
	sites    []methodSite
	blocks   []blockSite

	// walk-scoped state, reset per function:
	writePos   map[token.Pos]bool // selector positions already recorded as writes
	selectComm map[ast.Node]bool  // nodes that are select comm ops (not separately blocking)
	fresh      map[types.Object]bool
}

func newLockAnalysis(pass *Pass) *lockAnalysis {
	a := &lockAnalysis{
		pass:        pass,
		pkg:         pass.Pkg,
		mutexFields: make(map[*types.Named][]*types.Var),
		fieldOwner:  make(map[*types.Var]*types.Named),
		condMutex:   make(map[types.Object]types.Object),
		entryHeld:   make(map[*types.Func]heldSet),
	}
	a.collectTypes()
	a.collectCondAssocs()
	return a
}

// collectTypes finds the package's mutex-bearing struct types and
// their candidate guarded fields.
func (a *lockAnalysis) collectTypes() {
	scope := a.pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		var mus, fields []*types.Var
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if _, isMu := isMutexType(f.Type()); isMu {
				mus = append(mus, f)
				continue
			}
			if isSyncType(f.Type()) {
				continue // WaitGroup/Once/Cond coordinate themselves
			}
			fields = append(fields, f)
		}
		if len(mus) == 0 {
			continue
		}
		a.mutexFields[named] = mus
		for _, f := range fields {
			a.fieldOwner[f] = named
		}
	}
}

// isSyncType reports whether t (or *t) is any sync package type.
func isSyncType(t types.Type) bool {
	if p, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync"
}

// collectCondAssocs records which mutex each sync.Cond was built over:
// `s.cond = sync.NewCond(&s.mu)` or `cond: sync.NewCond(&s.mu)`.
func (a *lockAnalysis) collectCondAssocs() {
	for _, f := range a.pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var lhs ast.Expr
			var rhs ast.Expr
			switch x := n.(type) {
			case *ast.AssignStmt:
				if len(x.Lhs) == 1 && len(x.Rhs) == 1 {
					lhs, rhs = x.Lhs[0], x.Rhs[0]
				}
			case *ast.KeyValueExpr:
				lhs, rhs = x.Key, x.Value
			}
			if lhs == nil {
				return true
			}
			call, ok := rhs.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			if path, name, okFn := pkgFunc(a.pkg, call); !okFn || path != "sync" || name != "NewCond" {
				return true
			}
			mu, _, okMu := resolveMutexExpr(a.pkg, call.Args[0])
			if !okMu {
				return true
			}
			var condObj types.Object
			switch l := lhs.(type) {
			case *ast.SelectorExpr:
				condObj = a.pkg.Info.Uses[l.Sel]
			case *ast.Ident:
				condObj = a.pkg.Info.Uses[l]
				if condObj == nil {
					condObj = a.pkg.Info.Defs[l]
				}
			}
			if condObj != nil {
				a.condMutex[condObj] = mu
			}
			return true
		})
	}
}

// entryFor returns the lock state a function's body starts with: the
// *Locked suffix convention holds every receiver mutex; otherwise the
// inferred entry (nil for most functions).
func (a *lockAnalysis) entryFor(fn *types.Func) heldSet {
	if fn == nil {
		return nil
	}
	if e, ok := a.entryHeld[fn]; ok {
		return e
	}
	if owner := recvNamed(fn); owner != nil && strings.HasSuffix(fn.Name(), "Locked") {
		if mus := a.mutexFields[owner]; len(mus) > 0 {
			e := make(heldSet, len(mus))
			for _, mu := range mus {
				e[mu] = lockWrite
			}
			a.entryHeld[fn] = e
			return e
		}
	}
	return nil
}

// recvNamed returns the receiver's named type (behind a pointer), or
// nil for plain functions.
func recvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// inferEntries runs the interprocedural entry-held fixpoint: an
// unexported, non-Locked-suffix method whose every observed receiver
// call site holds a mutex inherits that mutex as entry-held. Exported
// methods are public API and must stay callable lock-free, so they are
// never inferred. The loop is monotone (entry sets only grow, so held
// sets at call sites only grow, so intersections only grow) and
// converges within the call-chain depth.
func (a *lockAnalysis) inferEntries() {
	for round := 0; round < 5; round++ {
		a.walkAll()
		byCallee := make(map[*types.Func][]heldSet)
		for _, s := range a.sites {
			byCallee[s.callee] = append(byCallee[s.callee], s.held)
		}
		changed := false
		for callee, helds := range byCallee {
			if callee.Exported() || strings.HasSuffix(callee.Name(), "Locked") {
				continue
			}
			owner := recvNamed(callee)
			if owner == nil || len(a.mutexFields[owner]) == 0 {
				continue
			}
			inter := copyHeld(helds[0])
			for _, h := range helds[1:] {
				intersectHeld(inter, h)
			}
			if len(inter) == 0 {
				continue
			}
			cur := a.entryHeld[callee]
			grew := false
			for mu, kind := range inter {
				if cur[mu] == 0 || (cur[mu] == lockRead && kind == lockWrite) {
					grew = true
				}
			}
			if grew {
				a.entryHeld[callee] = inter
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	a.walkAll() // final collection with settled entries
}

// walkAll re-collects accesses, call sites and blocking ops over every
// function declaration with the current entry states.
func (a *lockAnalysis) walkAll() {
	a.accesses = a.accesses[:0]
	a.sites = a.sites[:0]
	a.blocks = a.blocks[:0]
	for _, f := range a.pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := a.pkg.Info.Defs[fd.Name].(*types.Func)
			a.walkFunc(fd, fn)
		}
	}
}

func (a *lockAnalysis) walkFunc(fd *ast.FuncDecl, fn *types.Func) {
	a.writePos = make(map[token.Pos]bool)
	a.selectComm = commOps(fd.Body)
	a.fresh = freshLocals(a.pkg, fd.Body)
	w := &lockWalker{
		pkg:          a.pkg,
		isModulePath: a.pass.Prog.Loader.isModulePath,
		visit:        a.visitNode,
	}
	w.walkBody(fd.Body, a.entryFor(fn))
}

// commOps indexes the nodes that are a select statement's comm
// operations (and their receive expressions) — blocking there is the
// select's job to report, not the individual op's.
func commOps(body *ast.BlockStmt) map[ast.Node]bool {
	out := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, c := range sel.Body.List {
			cc, okCc := c.(*ast.CommClause)
			if !okCc || cc.Comm == nil {
				continue
			}
			out[cc.Comm] = true
			ast.Inspect(cc.Comm, func(m ast.Node) bool {
				if u, okU := m.(*ast.UnaryExpr); okU && u.Op == token.ARROW {
					out[u] = true
				}
				if s, okS := m.(*ast.SendStmt); okS {
					out[s] = true
				}
				return true
			})
		}
		return true
	})
	return out
}

// freshLocals finds locals bound to an object allocated in this very
// function (`s := &Scheduler{...}`, `l := new(Log)`): accesses through
// them are constructor initialisation, not shared-state access.
func freshLocals(pkg *Package, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, okId := lhs.(*ast.Ident)
			if !okId {
				continue
			}
			if !isFreshAlloc(as.Rhs[i]) {
				continue
			}
			if obj := pkg.Info.Defs[id]; obj != nil {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

func isFreshAlloc(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			_, isLit := x.X.(*ast.CompositeLit)
			return isLit
		}
	case *ast.CallExpr:
		if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "new" {
			return true
		}
	}
	return false
}

// visitNode is the walker callback dispatching to the sub-rules.
func (a *lockAnalysis) visitNode(n ast.Node, held heldSet) {
	switch x := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range x.Lhs {
			a.recordWrite(lhs, held)
		}
	case *ast.IncDecStmt:
		a.recordWrite(x.X, held)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			a.recordWrite(x.X, held)
		} else if x.Op == token.ARROW && !a.selectComm[x] {
			a.recordBlock("channel receive", x.Pos(), held)
		}
	case *ast.SendStmt:
		if !a.selectComm[x] {
			a.recordBlock("channel send", x.Pos(), held)
		}
	case *ast.SelectStmt:
		if !selectHasDefault(x) {
			a.recordBlock("select", x.Pos(), held)
		}
	case *ast.SelectorExpr:
		a.recordRead(x, held)
	case *ast.CallExpr:
		a.visitCall(x, held)
	}
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

func (a *lockAnalysis) visitCall(call *ast.CallExpr, held heldSet) {
	// delete(s.f, k) mutates the map field.
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "delete" && len(call.Args) == 2 {
		if a.pkg.Info.Uses[id] == nil { // builtin
			a.recordWrite(call.Args[0], held)
		}
	}
	if path, name, ok := pkgFunc(a.pkg, call); ok && path == "time" && name == "Sleep" {
		a.recordBlock("time.Sleep", call.Pos(), held)
		return
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
		if s, okSel := a.pkg.Info.Selections[sel]; okSel {
			if fn, okFn := s.Obj().(*types.Func); okFn && fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
				recvName := recvTypeName(fn)
				switch recvName {
				case "WaitGroup":
					a.recordBlock("sync.WaitGroup.Wait", call.Pos(), held)
				case "Cond":
					a.checkCondWait(sel, call.Pos(), held)
				}
				return
			}
		}
	}
	callee := staticCallee(a.pkg, call)
	if callee == nil {
		return
	}
	owner := recvNamed(callee)
	if owner == nil || len(a.mutexFields[owner]) == 0 || callee.Pkg() != a.pkg.Types {
		return
	}
	// A call on a freshly allocated local is constructor wiring — the
	// object isn't shared yet, so the site must not poison entry-held
	// inference (Open calling createActive without the lock).
	if sel, okSel := call.Fun.(*ast.SelectorExpr); okSel {
		if root := rootIdent(sel.X); root != nil {
			rObj := a.pkg.Info.Uses[root]
			if rObj == nil {
				rObj = a.pkg.Info.Defs[root]
			}
			if rObj != nil && a.fresh[rObj] {
				return
			}
		}
	}
	a.sites = append(a.sites, methodSite{
		callee: callee,
		owner:  owner,
		pos:    call.Pos(),
		held:   restrictHeld(held, a.mutexFields[owner]),
	})
}

func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	if named, okN := t.(*types.Named); okN {
		return named.Obj().Name()
	}
	return ""
}

// checkCondWait allows cond.Wait on the condition's own mutex — the
// one legal blocking wait under a lock — and flags everything else.
func (a *lockAnalysis) checkCondWait(sel *ast.SelectorExpr, pos token.Pos, held heldSet) {
	if len(held) == 0 {
		return
	}
	var condObj types.Object
	switch x := sel.X.(type) {
	case *ast.SelectorExpr:
		condObj = a.pkg.Info.Uses[x.Sel]
	case *ast.Ident:
		condObj = a.pkg.Info.Uses[x]
	}
	if condObj != nil {
		if mu, ok := a.condMutex[condObj]; ok {
			others := copyHeld(held)
			delete(others, mu)
			if len(others) == 0 {
				return // waiting on exactly the cond's mutex: legal
			}
			held = others
		}
	}
	a.recordBlock("sync.Cond.Wait", pos, held)
}

func (a *lockAnalysis) recordBlock(desc string, pos token.Pos, held heldSet) {
	if len(held) == 0 {
		return
	}
	a.blocks = append(a.blocks, blockSite{desc: desc, pos: pos, held: copyHeld(held)})
}

// recordWrite classifies an lvalue as a write to a candidate field:
// direct (s.f = v), through an index (s.f[k] = v), or by address
// (&s.f).
func (a *lockAnalysis) recordWrite(lhs ast.Expr, held heldSet) {
	for {
		switch x := lhs.(type) {
		case *ast.ParenExpr:
			lhs = x.X
			continue
		case *ast.IndexExpr:
			lhs = x.X
			continue
		case *ast.StarExpr:
			lhs = x.X
			continue
		}
		break
	}
	sel, ok := lhs.(*ast.SelectorExpr)
	if !ok {
		return
	}
	a.recordAccess(sel, held, true)
}

func (a *lockAnalysis) recordRead(sel *ast.SelectorExpr, held heldSet) {
	if a.writePos[sel.Pos()] {
		return
	}
	a.recordAccess(sel, held, false)
}

func (a *lockAnalysis) recordAccess(sel *ast.SelectorExpr, held heldSet, write bool) {
	field, okF := a.pkg.Info.Uses[sel.Sel].(*types.Var)
	if !okF || !field.IsField() {
		return
	}
	owner, okO := a.fieldOwner[field]
	if !okO {
		return
	}
	root := rootIdent(sel.X)
	if root == nil {
		return
	}
	rootObj := a.pkg.Info.Uses[root]
	if rootObj == nil {
		rootObj = a.pkg.Info.Defs[root]
	}
	if rootObj == nil || a.fresh[rootObj] {
		return
	}
	// The root must be a variable of the owning type (receiver, param
	// or local), not a nested struct detour.
	rt := rootObj.Type()
	if p, isPtr := rt.(*types.Pointer); isPtr {
		rt = p.Elem()
	}
	if rt != owner.Obj().Type() {
		return
	}
	if write {
		a.writePos[sel.Pos()] = true
	}
	a.accesses = append(a.accesses, fieldAccess{
		field: field,
		owner: owner,
		pos:   sel.Sel.Pos(),
		write: write,
		held:  restrictHeld(held, a.mutexFields[owner]),
	})
}

// restrictHeld snapshots held down to the given mutex fields.
func restrictHeld(held heldSet, mus []*types.Var) heldSet {
	out := make(heldSet)
	for _, mu := range mus {
		if k, ok := held[mu]; ok {
			out[mu] = k
		}
	}
	return out
}

// reportGuards runs guard inference over the collected accesses and
// reports rule 1 (unguarded access, write-under-read-lock), rule 2
// (Locked call without the lock) and rule 3 (blocking while locked).
func (a *lockAnalysis) reportGuards() {
	type guardInfo struct {
		mus     map[*types.Var]token.Pos // guard -> witness write position
		lockedW int                      // writes observed under a write lock
		writes  int
	}
	guards := make(map[*types.Var]*guardInfo)
	for _, acc := range a.accesses {
		if !acc.write {
			continue
		}
		gi := guards[acc.field]
		if gi == nil {
			gi = &guardInfo{mus: make(map[*types.Var]token.Pos)}
			guards[acc.field] = gi
		}
		gi.writes++
		for mu, kind := range acc.held {
			if kind != lockWrite {
				continue
			}
			mv, okMv := mu.(*types.Var)
			if !okMv {
				continue
			}
			gi.lockedW++
			if _, seen := gi.mus[mv]; !seen {
				gi.mus[mv] = acc.pos
			}
		}
	}

	for _, acc := range a.accesses {
		gi := guards[acc.field]
		if gi == nil || len(gi.mus) == 0 {
			continue
		}
		var heldGuard *types.Var
		var heldKind lockKind
		for mu := range gi.mus {
			if k, ok := acc.held[mu]; ok {
				heldGuard, heldKind = mu, k
				break
			}
		}
		fieldName := acc.owner.Obj().Name() + "." + acc.field.Name()
		if heldGuard == nil {
			verb := "read of"
			if acc.write {
				verb = "write to"
			}
			mu, witness := firstGuard(gi.mus)
			a.pass.Reportf(acc.pos,
				"%s %s without holding %s (guarded: written under the lock at %s)",
				verb, fieldName, a.mutexDisplay(acc.owner, mu),
				a.pass.Fset().Position(witness))
			continue
		}
		if acc.write && heldKind == lockRead {
			a.pass.Reportf(acc.pos,
				"write to %s under RLock of %s; writes need the write lock",
				fieldName, a.mutexDisplay(acc.owner, heldGuard))
		}
	}

	// Rule 2: Locked-suffix calls must hold the receiver mutexes.
	for _, s := range a.sites {
		if !strings.HasSuffix(s.callee.Name(), "Locked") {
			continue
		}
		for _, mu := range a.mutexFields[s.owner] {
			if _, ok := s.held[mu]; !ok {
				a.pass.Reportf(s.pos,
					"call to %s requires %s held (the *Locked suffix convention)",
					funcDisplayName(s.callee), a.mutexDisplay(s.owner, mu))
				break
			}
		}
	}

	// Rule 3: blocking operations under any held mutex.
	for _, b := range a.blocks {
		a.pass.Reportf(b.pos,
			"%s while holding %s can deadlock or convoy waiters; release the lock first",
			b.desc, a.heldDisplay(b.held))
	}
}

func firstGuard(mus map[*types.Var]token.Pos) (*types.Var, token.Pos) {
	var best *types.Var
	var bestPos token.Pos
	for mu, pos := range mus {
		if best == nil || mu.Name() < best.Name() {
			best, bestPos = mu, pos
		}
	}
	return best, bestPos
}

func (a *lockAnalysis) mutexDisplay(owner *types.Named, mu *types.Var) string {
	if owner != nil {
		return owner.Obj().Name() + "." + mu.Name()
	}
	return mu.Name()
}

func (a *lockAnalysis) heldDisplay(held heldSet) string {
	var names []string
	for mu := range held {
		names = append(names, mutexObjDisplay(a.pkg, mu))
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
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

// ---------------------------------------------------------------------------
// Sub-rule 4: defer-less unlock ladders
// ---------------------------------------------------------------------------

// reportDeferless flags functions with ≥2 manual Unlock paths for one
// mutex and no deferred unlock of it: every new early return in such a
// function is a lock leak waiting to happen.
func (a *lockAnalysis) reportDeferless() {
	for _, f := range a.pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			a.deferlessFunc(fd)
		}
	}
}

func (a *lockAnalysis) deferlessFunc(fd *ast.FuncDecl) {
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
			if mu, _, op, ok := lockCall(a.pkg, x.Call); ok {
				switch op {
				case lockOpUnlock:
					deferred[key{mu, false}] = true
				case lockOpRUnlock:
					deferred[key{mu, true}] = true
				}
			}
			return false
		case *ast.CallExpr:
			if mu, _, op, ok := lockCall(a.pkg, x); ok {
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
		a.pass.Reportf(locks[k][0],
			"%d manual %s paths for %s with no defer; a new early return leaks the lock — use defer or extract a locked helper",
			count, verb, mutexObjDisplay(a.pkg, k.mu))
	}
}

// ---------------------------------------------------------------------------
// Sub-rule 5: module-wide lock-order graph
// ---------------------------------------------------------------------------

// lockAcquire is one mutex a function (transitively) acquires, with
// the witness chain from that function down to the Lock call.
type lockAcquire struct {
	mu      types.Object
	display string
	chain   []string // callee path; empty = locks directly
}

// lockOrderEdge records "from held while to acquired" with its first
// witness site.
type lockOrderEdge struct {
	from, to types.Object
	fromName string
	toName   string
	pos      token.Pos
	pkgPath  string
	fn       string
	chain    []string
}

type lockOrderGraph struct {
	edges map[[2]types.Object]*lockOrderEdge
	// inCycle marks edges participating in an acquisition-order cycle
	// (including self-edges: recursive acquisition).
	inCycle map[[2]types.Object]bool
}

// lockOrder returns the program's lock-order graph, building it on
// first use (Program.lockOnce).
func lockOrder(pass *Pass) *lockOrderGraph {
	prog := pass.Prog
	prog.lockOnce.Do(func() {
		prog.lockGraph = buildLockOrder(prog)
	})
	return prog.lockGraph
}

func buildLockOrder(prog *Program) *lockOrderGraph {
	g := &lockOrderGraph{
		edges:   make(map[[2]types.Object]*lockOrderEdge),
		inCycle: make(map[[2]types.Object]bool),
	}

	// Module package set: requested packages plus module-internal
	// imports, breadth-first, deterministically ordered.
	byPath := make(map[string]*Package)
	var queue []string
	add := func(pkg *Package) {
		if pkg == nil || byPath[pkg.Path] != nil {
			return
		}
		byPath[pkg.Path] = pkg
		queue = append(queue, pkg.Path)
	}
	for _, pkg := range prog.Pkgs {
		add(pkg)
	}
	for len(queue) > 0 {
		path := queue[0]
		queue = queue[1:]
		for _, imp := range byPath[path].Types.Imports() {
			if !prog.Loader.isModulePath(imp.Path()) {
				continue
			}
			if dep, err := prog.Loader.Load(imp.Path()); err == nil {
				add(dep)
			}
		}
	}
	paths := make([]string, 0, len(byPath))
	for p := range byPath {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	// Direct acquires and call edges per function.
	type fnInfo struct {
		fn       *types.Func
		decl     *ast.FuncDecl
		pkg      *Package
		acquires map[types.Object]*lockAcquire
		calls    []*types.Func
	}
	infos := make(map[*types.Func]*fnInfo)
	var order []*fnInfo
	for _, path := range paths {
		pkg := byPath[path]
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				info := &fnInfo{fn: fn, decl: fd, pkg: pkg, acquires: make(map[types.Object]*lockAcquire)}
				infos[fn] = info
				order = append(order, info)
				// Only synchronously executed code counts: a lock taken
				// by a time.AfterFunc callback or a spawned goroutine is
				// not acquired while this function's caller holds its
				// locks.
				inspectSyncCode(pkg, prog.Loader.isModulePath, fd.Body, func(n ast.Node) {
					call, okCall := n.(*ast.CallExpr)
					if !okCall {
						return
					}
					if mu, _, op, okMu := lockCall(pkg, call); okMu && (op == lockOpLock || op == lockOpRLock) {
						if _, seen := info.acquires[mu]; !seen {
							info.acquires[mu] = &lockAcquire{
								mu:      mu,
								display: mutexObjDisplay(pkg, mu),
							}
						}
						return
					}
					if callee := staticCallee(pkg, call); callee != nil &&
						callee.Pkg() != nil && prog.Loader.isModulePath(callee.Pkg().Path()) {
						info.calls = append(info.calls, callee)
					}
				})
			}
		}
	}

	// Propagate acquire sets callee→caller to a fixpoint, carrying
	// witness chains (capped at four names).
	callers := make(map[*types.Func][]*fnInfo)
	for _, info := range order {
		for _, callee := range info.calls {
			callers[callee] = append(callers[callee], info)
		}
	}
	work := append([]*fnInfo(nil), order...)
	for len(work) > 0 {
		info := work[0]
		work = work[1:]
		for _, caller := range callers[info.fn] {
			changed := false
			for mu, acq := range info.acquires {
				if _, ok := caller.acquires[mu]; ok {
					continue
				}
				chain := append([]string{funcDisplayName(info.fn)}, acq.chain...)
				if len(chain) > 4 {
					chain = append(chain[:3], chain[len(chain)-1])
				}
				caller.acquires[mu] = &lockAcquire{mu: mu, display: acq.display, chain: chain}
				changed = true
			}
			if changed {
				work = append(work, caller)
			}
		}
	}

	// Edge emission: walk each function with the must-hold tracker;
	// while holding h, a direct Lock of m or a call into a function
	// that transitively acquires m yields edge h→m.
	for _, info := range order {
		info := info
		entry := lockedEntry(info.fn, info.pkg)
		w := &lockWalker{
			pkg:          info.pkg,
			isModulePath: prog.Loader.isModulePath,
			visit: func(n ast.Node, held heldSet) {
				if len(held) == 0 {
					return
				}
				call, okCall := n.(*ast.CallExpr)
				if !okCall {
					return
				}
				if mu, _, op, okMu := lockCall(info.pkg, call); okMu && (op == lockOpLock || op == lockOpRLock) {
					for h := range held {
						g.addEdge(h, mu,
							mutexObjDisplay(info.pkg, h), mutexObjDisplay(info.pkg, mu),
							call.Pos(), info.pkg.Path, funcDisplayName(info.fn), nil)
					}
					return
				}
				callee := staticCallee(info.pkg, call)
				if callee == nil {
					return
				}
				ci := infos[callee]
				if ci == nil {
					return
				}
				for h := range held {
					for mu, acq := range ci.acquires {
						chain := append([]string{funcDisplayName(callee)}, acq.chain...)
						g.addEdge(h, mu,
							mutexObjDisplay(info.pkg, h), acq.display,
							call.Pos(), info.pkg.Path, funcDisplayName(info.fn), chain)
					}
				}
			},
		}
		w.walkBody(info.decl.Body, entry)
	}

	// Cycle detection over the acquisition digraph: any edge whose
	// endpoints share a strongly connected component (or a self-edge)
	// is part of a potential deadlock cycle.
	adj := make(map[types.Object][]types.Object)
	for k := range g.edges {
		adj[k[0]] = append(adj[k[0]], k[1])
	}
	comp := sccComponents(adj)
	for k := range g.edges {
		if k[0] == k[1] || (comp[k[0]] != 0 && comp[k[0]] == comp[k[1]] && sccSize(comp, comp[k[0]]) > 1) {
			g.inCycle[k] = true
		}
	}
	return g
}

// addEdge records the first witness for "to acquired while from held".
func (g *lockOrderGraph) addEdge(from, to types.Object, fromName, toName string, pos token.Pos, pkgPath, fn string, chain []string) {
	k := [2]types.Object{from, to}
	if _, ok := g.edges[k]; ok {
		return
	}
	if len(chain) > 4 {
		chain = append(chain[:3], chain[len(chain)-1])
	}
	g.edges[k] = &lockOrderEdge{
		from: from, to: to,
		fromName: fromName, toName: toName,
		pos: pos, pkgPath: pkgPath, fn: fn, chain: chain,
	}
}

// lockedEntry seeds the walk for *Locked-convention methods: their
// receiver mutexes are held on entry.
func lockedEntry(fn *types.Func, pkg *Package) heldSet {
	if fn == nil || !strings.HasSuffix(fn.Name(), "Locked") {
		return nil
	}
	owner := recvNamed(fn)
	if owner == nil {
		return nil
	}
	st, ok := owner.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	var entry heldSet
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if _, isMu := isMutexType(f.Type()); isMu {
			if entry == nil {
				entry = make(heldSet)
			}
			entry[f] = lockWrite
		}
	}
	return entry
}

// sccComponents runs Tarjan's algorithm, returning a nonzero component
// id per node.
func sccComponents(adj map[types.Object][]types.Object) map[types.Object]int {
	index := make(map[types.Object]int)
	low := make(map[types.Object]int)
	onStack := make(map[types.Object]bool)
	comp := make(map[types.Object]int)
	var stack []types.Object
	next, compID := 1, 0

	var strongconnect func(v types.Object)
	strongconnect = func(v types.Object) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, wNode := range adj[v] {
			if index[wNode] == 0 {
				strongconnect(wNode)
				if low[wNode] < low[v] {
					low[v] = low[wNode]
				}
			} else if onStack[wNode] && index[wNode] < low[v] {
				low[v] = index[wNode]
			}
		}
		if low[v] == index[v] {
			compID++
			for {
				wNode := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[wNode] = false
				comp[wNode] = compID
				if wNode == v {
					break
				}
			}
		}
	}
	nodes := make([]types.Object, 0, len(adj))
	for v := range adj {
		nodes = append(nodes, v)
		for _, wNode := range adj[v] {
			if _, ok := index[wNode]; !ok {
				nodes = append(nodes, wNode)
			}
		}
	}
	for _, v := range nodes {
		if index[v] == 0 {
			strongconnect(v)
		}
	}
	return comp
}

func sccSize(comp map[types.Object]int, id int) int {
	n := 0
	for _, c := range comp {
		if c == id {
			n++
		}
	}
	return n
}

// reportLockOrder reports, in the current package only, the edges of
// the module lock-order graph that participate in a cycle.
func reportLockOrder(pass *Pass) {
	g := lockOrder(pass)
	var keys [][2]types.Object
	for k := range g.inCycle {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return g.edges[keys[i]].pos < g.edges[keys[j]].pos
	})
	for _, k := range keys {
		e := g.edges[k]
		if e.pkgPath != pass.Pkg.Path {
			continue
		}
		via := ""
		if len(e.chain) > 0 {
			via = fmt.Sprintf(" (via %s)", strings.Join(e.chain, " → "))
		}
		if e.from == e.to {
			pass.Reportf(e.pos,
				"%s may be acquired again while already held in %s%s: recursive locking deadlocks",
				e.fromName, e.fn, via)
			continue
		}
		rev := g.edges[[2]types.Object{k[1], k[0]}]
		revAt := ""
		if rev != nil {
			revAt = fmt.Sprintf("; the opposite order is taken in %s at %s", rev.fn, pass.Fset().Position(rev.pos))
		}
		pass.Reportf(e.pos,
			"lock-order inversion: %s acquired while holding %s in %s%s%s",
			e.toName, e.fromName, e.fn, via, revAt)
	}
}
