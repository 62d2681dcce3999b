package lib

import (
	"testing"

	"tca/internal/testhelp"
)

func TestOnlyCaller(t *testing.T) {
	TestOnly()
	testOnly()
	Dead()
	testhelp.Assert(t, DeadVar == 1)
}
