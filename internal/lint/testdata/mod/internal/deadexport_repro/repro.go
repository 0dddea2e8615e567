// Package deadexport_repro is a serving package whose exports reproduction
// code calls: a use from internal/repro alone does not keep one alive.
package deadexport_repro

// ReproOnly is called only from internal/repro/x: a finding.
func ReproOnly() {}

// Shared is called from internal/repro/x and from deadexport_use.
func Shared() {}
