// Package fault is a determinism-rule fixture: the real package
// promises that two same-seed runs are bit-identical, so wall clocks,
// the global math/rand stream and map-order-dependent results are all
// forbidden here.
package fault

import (
	"math/rand"
	"sort"
	"time"
)

// Stamp leaks the wall clock into a deterministic package.
func Stamp() int64 {
	return time.Now().Unix() // want "time.Now in deterministic package"
}

// Draw uses the process-global rand stream.
func Draw() float64 {
	return rand.Float64() // want "global math/rand.Float64"
}

// DrawSeeded is the approved pattern: an explicitly seeded generator.
func DrawSeeded(seed int64) float64 {
	r := rand.New(rand.NewSource(seed))
	return r.Float64()
}

// First returns whichever entry map iteration happens to visit first.
func First(m map[string]int) int {
	for _, v := range m { // want "map iteration order flows into returned values"
		return v
	}
	return 0
}

// SumFloats accumulates floats in map order; float addition does not
// commute bitwise, so the sum depends on iteration order.
func SumFloats(m map[string]float64) float64 {
	sum := 0.0
	for _, v := range m { // want "map iteration order flows into returned values"
		sum += v
	}
	return sum
}

// Keys is the approved collect-then-sort idiom: the append happens in
// map order but the sort erases it.
func Keys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Invert writes into a map keyed by the loop variable: the resulting
// map is identical for any iteration order.
func Invert(m map[string]int) map[int]string {
	out := make(map[int]string, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}

// Total accumulates an integer: exact, commutative, order-free.
func Total(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}
