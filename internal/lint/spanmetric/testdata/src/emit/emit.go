// Package emit exercises spanmetric's format rule and its three
// declaration rules against the reg package's declarations, resolved
// through the types scope.
package emit

import "spectra/internal/lint/spanmetric/testdata/src/reg"

// Metrics covers rule 1: registration-site names.
func Metrics(r *reg.Registry, suffix string) {
	r.Counter(reg.MGood)                      // declared constant
	r.Counter("spectra.good.total")           // inline but declared value
	r.Gauge("spectra.dyn.live")               // extends a declared prefix
	r.Histogram(reg.MOther, nil)              // declared constant
	r.Counter(reg.MPrefix + suffix)           // dynamic: unverifiable, skipped
	r.Counter("spectra.unknown.total")        // want `metric name "spectra\.unknown\.total" is not declared`
	r.Histogram("spectra.wrong.seconds", nil) // want `metric name "spectra\.wrong\.seconds" is not declared`
}

// Spans covers rule 2: span kinds at Start.
func Spans(rec *reg.SpanRecorder, kind string) {
	rec.Start(reg.SpanWork, -1) // declared constant
	rec.Start("flush", -1)      // inline but matches a Span* value
	rec.Start(kind, -1)         // dynamic: unverifiable, skipped
	rec.Start("wrok", -1)       // want `span kind "wrok" does not match any Span\* constant`
}

// Literals covers rule 3: stray metric-shaped strings.
func Literals(dial func(string)) {
	dial("spectra.test.svc")       // exempted service name
	_ = "spectra.stray.total"      // want `string "spectra\.stray\.total" looks like a metric name but is not declared`
	_ = "spectra stray prose"      // not name-shaped; ignored
	_ = "spectra.dyn.anything.yet" // extends a declared prefix
}

// Allowed suppresses a deliberate undeclared emission.
func Allowed(r *reg.Registry) {
	//lint:allow spanmetric scratch metric for a one-off experiment
	r.Counter("spectra.scratch.total")
}

// registry is a package-level handle, so registrations can also sit in
// variable declarations.
var registry = &reg.Registry{}

// localName is well-formed but declared here, not in the registry
// package — exactly how a renamed metric drifts off the dashboards. Rule 3
// flags the declaration and rule 1 the registration below.
const localName = "spectra.golden.local.total" // want `string "spectra\.golden\.local\.total" looks like a metric name but is not declared`

var (
	e = registry.Counter("spectra.golden.unknown.total") // want `metric name "spectra\.golden\.unknown\.total" is not declared`
	f = registry.Counter(localName)                      // want `metric name "spectra\.golden\.local\.total" is not declared`

	// A malformed literal reports once, by the format rule.
	h = registry.Counter("spectra.golden.Bad_Arg") // want `metric name "spectra\.golden\.Bad_Arg" violates the spectra\.-prefixed dotted-lowercase convention`

	//lint:allow spanmetric golden test of the suppression path
	g = registry.Counter("spectra.golden.adhoc.total")
)

// malformed violates the format rule regardless of registration, and is
// not also reported as undeclared.
const malformed = "spectra.golden.Mixed_Case" // want `violates the spectra\.-prefixed dotted-lowercase convention`

// prose is spectra.-prefixed but not name-shaped: error strings and log
// messages are none of the analyzer's business.
const prose = "spectra.golden: something went wrong"
