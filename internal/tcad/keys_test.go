package tcad

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"tca/internal/scenariogen"
	"tca/internal/tcanet"
)

// TestResultKeysPinned pins the result-cache keys. A cached result, a
// checkpoint and the committed benchmark digests all name jobs by these
// keys, so they change only with a deliberate defaultParamsFP bump or a
// result-schema version change.
func TestResultKeysPinned(t *testing.T) {
	if got, want := scenarioKey(scenariogen.Format(scenariogen.Generate(1))), "964eb3f2822aaab3998a66d80007c19a"; got != want {
		t.Errorf("scenario key of Generate(1) = %s, want %s", got, want)
	}
	if got, want := sweepKey("cable"), "87e87187ad960ee8a63b54292aff1a64"; got != want {
		t.Errorf("sweep key of cable = %s, want %s", got, want)
	}
}

// TestDefaultParamsPinned trips on every change to the default simulation
// parameters, so none slips past the frozen defaultParamsFP unnoticed.
func TestDefaultParamsPinned(t *testing.T) {
	const want = "4cd0f3562b86e0730074ea9dbc666388d69c0a383d45a812dd8ca17649a6892e"
	h := sha256.Sum256([]byte(fmt.Sprintf("%+v", tcanet.DefaultParams)))
	if got := hex.EncodeToString(h[:]); got != want {
		t.Errorf("sha256 of %%+v of tcanet.DefaultParams = %s, want %s.\n"+
			"If the change moves any simulated result, bump defaultParamsFP (job.go) so no "+
			"cached result is served under the new defaults, then update this hash. If it "+
			"moves none (a rename, a dead field, a String method), update this hash only.", got, want)
	}
}
