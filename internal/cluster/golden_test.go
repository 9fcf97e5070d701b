package cluster

import (
	"testing"

	"repro/internal/wire/wiretest"
)

// TestGoldenFrames holds the frame this package encodes — a membership
// record with a tombstone — to testdata/frames.golden, the encoder's
// output from before the codec moved onto internal/wire: not a byte
// moved, and the golden frame decodes to its fixture.
func TestGoldenFrames(t *testing.T) {
	g := wiretest.Golden(t, "testdata/frames.golden")

	rec := sampleMembershipRecord()
	enc, err := AppendMembership(nil, &rec)
	if err != nil {
		t.Fatal(err)
	}
	wiretest.Frame(t, g, "clsm-tombstone", rec, enc, wiretest.Into(DecodeMembership))
}
