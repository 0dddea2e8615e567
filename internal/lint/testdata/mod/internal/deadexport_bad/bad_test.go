package deadexport_bad

import "testing"

// A test is not a caller.
func TestUnused(t *testing.T) { Unused() }
