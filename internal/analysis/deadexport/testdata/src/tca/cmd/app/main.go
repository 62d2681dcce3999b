// Command app is a main package: its exports are never checked.
package main

import "tca/internal/other"

// Exported has no caller, but main packages are out of scope.
func Exported() {}

func main() { other.Run() }
