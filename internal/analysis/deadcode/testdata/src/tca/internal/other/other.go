package other

import (
	"errors"
	"fmt"

	"tca/internal/lib"
	"tca/internal/units"
)

// Run exercises lib from another package.
func Run() {
	lib.UsedCross()
	_ = lib.Drive()
	lib.Drain(&lib.Box{})
	fmt.Fprint(lib.Discard(), "x")
	_ = errors.Unwrap(lib.Wrap(errors.New("x")))
	_ = lib.Map([]int{1}, func(v int) int { return v })
	var s lib.Stack[string]
	s.Push("a")
	_ = units.Use(0)
}
