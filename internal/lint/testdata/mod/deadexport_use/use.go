// Package deadexport_use is the non-test caller deadexport_clean relies on.
package deadexport_use

import (
	"fmt"

	"fixture/internal/deadexport_clean"
)

// Run calls into deadexport_clean.
func Run() {
	var w deadexport_clean.Widget
	w.Spin()
	fmt.Println(w, deadexport_clean.Used())
}
