// Package boundary_bad is a serving package that imports paper
// reproduction: a boundary finding.
package boundary_bad

import "fixture/internal/repro/x"

func serve() { x.Run() }
