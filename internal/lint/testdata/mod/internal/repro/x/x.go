// Package x stands in for paper-reproduction code: it may import anything,
// and its uses keep alive only what internal/repro declares.
package x

import "fixture/internal/deadexport_repro"

// Run is called from the allowed importers and from boundary_bad.
func Run() {
	deadexport_repro.ReproOnly()
	deadexport_repro.Shared()
}
