// Package reg is the golden registry: declared metric names, a prefix,
// and span kinds, read by spanmetric through the types scope. Only the
// format rule applies here.
package reg

// Declared metric names and one prefix. The format rule holds in the
// registry too: a declared name must still follow the convention.
const (
	MGood   = "spectra.good.total"
	MOther  = "spectra.other.seconds"
	MPrefix = "spectra.dyn."

	MBadCase = "spectra.golden.BadSegment" // want `violates the spectra\.-prefixed dotted-lowercase convention`
)

// Declared span kinds (recognized by the Span name prefix, not value).
const (
	SpanWork  = "work"
	SpanFlush = "flush"
)

// Registry mirrors the obs metric-handle surface.
type Registry struct{}

// Counter returns a metric handle.
func (r *Registry) Counter(name string) int { return 0 }

// Gauge returns a metric handle.
func (r *Registry) Gauge(name string) int { return 0 }

// Histogram returns a metric handle.
func (r *Registry) Histogram(name string, bounds []float64) int { return 0 }

// SpanRecorder mirrors the obs span surface.
type SpanRecorder struct{}

// Start opens a span of the given kind.
func (r *SpanRecorder) Start(kind string, parent int) int { return 0 }
