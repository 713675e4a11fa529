// Package testutil holds shared test harness helpers. The goroutine
// leak checker here proves, at runtime, that every goroutine a test
// started has exited by the time the test returns.
package testutil

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// defaultAllow matches goroutines that are part of the test harness or
// runtime rather than the code under test.
var defaultAllow = []string{
	"testing.",   // testing.Main, tRunner, benchmark driver
	"runtime.",   // GC workers, finalizer goroutine
	"os/signal.", // signal.Notify watcher
	"net/http.(*Server)",
	"net/http/httptest.", // httptest.Server keep-alive accept loop
}

// CheckGoroutines snapshots the running goroutines and returns a
// function for t.Cleanup/defer that fails the test if goroutines
// created during the test are still running when it ends. Lingering
// goroutines get a grace period (they may be mid-teardown), so the
// check retries for about a second before failing.
//
// Usage:
//
//	defer testutil.CheckGoroutines(t)()
//
// allowPatterns are extra substrings matched against each goroutine's
// stack; a match exempts that goroutine (use for known-benign pollers).
func CheckGoroutines(t *testing.T, allowPatterns ...string) func() {
	t.Helper()
	before := goroutineStacks()
	return func() {
		t.Helper()
		allow := append(append([]string{}, defaultAllow...), allowPatterns...)
		var leaked []string
		deadline := time.Now().Add(time.Second)
		for {
			leaked = leaked[:0]
			for id, stack := range goroutineStacks() {
				if _, existed := before[id]; existed {
					continue
				}
				if allowed(stack, allow) {
					continue
				}
				leaked = append(leaked, stack)
			}
			if len(leaked) == 0 {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		for _, stack := range leaked {
			t.Errorf("leaked goroutine:\n%s", stack)
		}
	}
}

// goroutineStacks returns the current goroutines keyed by their header
// line ("goroutine N [state]:"), value the full stack text.
func goroutineStacks() map[string]string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := make(map[string]string)
	for _, g := range strings.Split(string(buf), "\n\n") {
		header, _, ok := strings.Cut(g, "\n")
		if !ok || !strings.HasPrefix(header, "goroutine ") {
			continue
		}
		// The state inside [] can change between snapshots; key by the
		// goroutine number alone.
		id := header
		if i := strings.IndexByte(header, '['); i > 0 {
			id = strings.TrimSpace(header[:i])
		}
		out[id] = g
	}
	return out
}

// allowed reports whether any pattern appears in the stack text.
func allowed(stack string, patterns []string) bool {
	for _, p := range patterns {
		if p != "" && strings.Contains(stack, p) {
			return true
		}
	}
	// The snapshotting goroutine itself shows up as running in
	// goroutineStacks; never report it.
	return strings.Contains(stack, "testutil.goroutineStacks")
}
