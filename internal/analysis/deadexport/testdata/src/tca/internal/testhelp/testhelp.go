// Package testhelp is imported only by tests, so it is out of scope.
package testhelp

import "testing"

// Assert fails the test when ok is false.
func Assert(t *testing.T, ok bool) {
	if !ok {
		t.Fatal("assertion failed")
	}
}

// Unused is never called at all.
func Unused() {}
