// Package deadexport_use is the non-test caller deadexport_clean and
// deadexport_repro rely on.
package deadexport_use

import (
	"fmt"

	"fixture/internal/deadexport_clean"
	"fixture/internal/deadexport_repro"
)

// Run calls into deadexport_clean and deadexport_repro.
func Run() {
	deadexport_repro.Shared()
	var w deadexport_clean.Widget
	w.Spin()
	fmt.Println(w, deadexport_clean.Used())
}
