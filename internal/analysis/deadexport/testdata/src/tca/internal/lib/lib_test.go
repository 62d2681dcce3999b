package lib

import (
	"testing"

	"tca/internal/testhelp"
)

func TestOnlyCaller(t *testing.T) {
	TestOnly()
	Dead()
	testhelp.Assert(t, DeadVar == 1)
}
