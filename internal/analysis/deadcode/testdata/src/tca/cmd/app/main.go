// Command app is a main package: its package-level names are checked like
// any other, except main and init, which the runtime calls.
package main

import "tca/internal/other"

// Exported has no caller; a main package exports to nobody.
func Exported() {} // want "func Exported has no non-test reference"

// unused has no caller.
func unused() {} // want "func unused has no non-test reference"

func init() {}

func main() { other.Run() }
