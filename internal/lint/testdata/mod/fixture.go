// Package fixture is the fixture module's root package: its aliases are the
// public API the deadexport analyzer exempts.
package fixture

import "fixture/internal/deadexport_clean"

// Config re-exports deadexport_clean.Config.
type Config = deadexport_clean.Config
