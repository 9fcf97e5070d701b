package cluster

import (
	"testing"

	"repro/internal/wire/wiretest"
)

// TestGoldenFrames holds one frame of each kind this package encodes —
// the roll-up, and a membership record with a tombstone — to
// testdata/frames.golden, the encoders' output from before the codecs
// moved onto internal/wire: not a byte moved, and each golden frame
// decodes to its fixture.
func TestGoldenFrames(t *testing.T) {
	g := wiretest.Golden(t, "testdata/frames.golden")

	roll := testFrame()
	wiretest.Frame(t, g, "cls1", roll, AppendClusterFrame(nil, &roll), wiretest.Into(DecodeClusterFrame))

	rec := sampleMembershipRecord()
	enc, err := AppendMembership(nil, &rec)
	if err != nil {
		t.Fatal(err)
	}
	wiretest.Frame(t, g, "clsm-tombstone", rec, enc, wiretest.Into(DecodeMembership))
}
