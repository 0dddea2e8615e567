// Command bench is a nested module under the fixture module: the deadexport
// analyzer counts its calls.
package main

import "fixture/internal/deadexport_clean"

func main() { deadexport_clean.OnlyBench() }
