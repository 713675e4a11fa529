// Package telemetry is a fixture mirror of the real metrics registry:
// the Name type plus the registered-constant namespace the
// telemetryhygiene rule checks against.
package telemetry

// Name is a registered metric name.
type Name string

// The registered namespace: every metric name the fixture tree may use.
const (
	MGoodTotal  Name = "good_total"
	MBytesTotal Name = "bytes_total"
)

var counters = map[Name]int64{}

// Inc bumps a counter by one.
func Inc(name Name) { counters[name]++ }

// Add bumps a counter by d.
func Add(name Name, d int64) { counters[name] += d }

// Registry is a named metric sink, mirroring the real API shape.
type Registry struct{ counts map[Name]int64 }

// Inc bumps a counter in this registry.
func (r *Registry) Inc(name Name) {
	if r.counts == nil {
		r.counts = make(map[Name]int64)
	}
	r.counts[name]++
}
