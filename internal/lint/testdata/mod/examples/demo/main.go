// Command demo is an example: examples may import internal/repro.
package main

import "fixture/internal/repro/x"

func main() { x.Run() }
