// Package plain does not import the registry: the declaration rules have
// nothing to resolve against, but the format rule still holds.
package plain

// Undeclared is well-formed; with no registry in sight it is not checked.
const Undeclared = "spectra.plain.total"

// Malformed breaks the convention.
const Malformed = "spectra.plain.Total" // want `violates the spectra\.-prefixed dotted-lowercase convention`
