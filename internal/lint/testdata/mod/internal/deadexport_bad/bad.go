// Package deadexport_bad declares exported identifiers that no non-test file
// of the program references: each one is a deadexport finding.
package deadexport_bad

// Unused is called only by this package's test.
func Unused() {}

// Recurse calls only itself, which does not count.
func Recurse(n int) int {
	if n == 0 {
		return 0
	}
	return Recurse(n - 1)
}

// Orphan is named only by its own method.
type Orphan struct{ n int }

// Grow is a method on an exported type with no caller.
func (o *Orphan) Grow() { o.n++ }

// Stale is a package-level var nobody reads.
var Stale = 3
