// Package deadexport_clean declares exported identifiers the deadexport
// analyzer must accept: each has a non-test caller somewhere in the program
// (another package, or the nested module) or one of the exemptions.
package deadexport_clean

// Used is called from another package.
func Used() int { return 1 }

// OnlyBench is called only by the nested module under bench/.
func OnlyBench() {}

// Widget is named by another package.
type Widget struct{}

// Spin is called from another package.
func (Widget) Spin() {}

// String satisfies fmt.Stringer: exempt.
func (Widget) String() string { return "widget" }

// Config is re-exported by the module's root package.
type Config struct{}

// Validate is public API through the root package's alias: exempt.
func (Config) Validate() error { return nil }

type hidden struct{}

// Exported is a method on an unexported type: exempt.
func (hidden) Exported() {}

// Limit is a constant: never reported.
const Limit = 3

// Fake is what tests in other packages substitute.
//
//arbd:test-api fixture: tests elsewhere construct it
func Fake() {}
