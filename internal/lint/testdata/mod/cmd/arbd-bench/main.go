// Command arbd-bench is one of the allowed importers of internal/repro.
package main

import "fixture/internal/repro/x"

func main() { x.Run() }
