// Package sim is the lockdiscipline fixture: defer-less unlock ladders
// on a Mutex and an RWMutex, with their deferred twins and a reasoned
// suppression.
package sim

import (
	"sync"
)

// Pool holds a plain mutex.
type Pool struct {
	mu     sync.Mutex
	active int
}

// Bump is the negative case: one Lock with a deferred Unlock.
func (p *Pool) Bump() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.active++
}

// Toggle unlocks manually on two return paths with no defer.
func (p *Pool) Toggle(on bool) bool {
	p.mu.Lock() // want "2 manual Unlock paths"
	if on {
		p.active++
		p.mu.Unlock()
		return true
	}
	p.mu.Unlock()
	return false
}

// Flip is the same shape with a reviewed, reasoned suppression.
func (p *Pool) Flip() bool {
	//pablint:ignore lockdiscipline fixture: documents the reviewed manual-unlock escape hatch
	p.mu.Lock()
	if p.active > 0 {
		p.mu.Unlock()
		return true
	}
	p.mu.Unlock()
	return false
}

// Status holds a read-write mutex.
type Status struct {
	statmu sync.RWMutex
	stat   string
}

// Check releases the read lock manually on two return paths.
func (st *Status) Check(want string) bool {
	st.statmu.RLock() // want "2 manual RUnlock paths"
	if st.stat == want {
		st.statmu.RUnlock()
		return true
	}
	st.statmu.RUnlock()
	return false
}

// Stat is the read-side negative case: a deferred RUnlock.
func (st *Status) Stat() string {
	st.statmu.RLock()
	defer st.statmu.RUnlock()
	return st.stat
}
