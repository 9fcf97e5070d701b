package cluster

import (
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func testEndpoints(n int) []ShardEndpoint {
	eps := make([]ShardEndpoint, n)
	for i := range eps {
		eps[i] = ShardEndpoint{ID: i, Network: "unix", Addr: "/tmp/shard-" + string(rune('a'+i)) + ".sock"}
	}
	return eps
}

// TestMembershipLifecycle walks one member through the whole life
// cycle — join, activate, drain, complete, decommission — checking the
// state at each step, that every transition bumps the epoch, and that
// the tombstone preserves the incarnation for the next life.
func TestMembershipLifecycle(t *testing.T) {
	now := time.Duration(0)
	m, err := NewMembership(testEndpoints(2), func() time.Duration { return now })
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Epoch(); got != 1 {
		t.Fatalf("seed epoch = %d, want 1", got)
	}

	ep := ShardEndpoint{ID: 7, Network: "unix", Addr: "/tmp/shard-7.sock"}
	now = 5 * time.Millisecond
	if err := m.Join(ep); err != nil {
		t.Fatal(err)
	}
	mb, ok := m.Get(7)
	if !ok || mb.State != MemberJoining || mb.Incarnation != 1 {
		t.Fatalf("after join: %+v ok=%v, want Joining inc 1", mb, ok)
	}
	if mb.AdmittedAt != 5*time.Millisecond {
		t.Fatalf("AdmittedAt = %v, want 5ms", mb.AdmittedAt)
	}
	if err := m.Join(ep); err == nil {
		t.Fatal("joining an in-fleet ID must error")
	}

	epoch := m.Epoch()
	m.Activate(7)
	if mb, _ := m.Get(7); mb.State != MemberActive {
		t.Fatalf("after activate: %s, want active", mb.State)
	}
	if m.Epoch() <= epoch {
		t.Fatal("activate must bump the epoch")
	}
	m.Activate(7) // no-op on a non-Joining member
	if mb, _ := m.Get(7); mb.State != MemberActive {
		t.Fatal("double activate changed state")
	}

	if err := m.Drain(7); err != nil {
		t.Fatal(err)
	}
	if mb, _ := m.Get(7); mb.State != MemberDraining {
		t.Fatalf("after drain: %s, want draining", mb.State)
	}
	if err := m.Drain(7); err == nil {
		t.Fatal("double drain must error")
	}
	m.CompleteDrain(7)
	if mb, _ := m.Get(7); mb.State != MemberDrained {
		t.Fatalf("after complete: %s, want drained", mb.State)
	}
	// Drained still occupies a fleet slot: its floor stays budgeted.
	if got := len(m.Members()); got != 3 {
		t.Fatalf("fleet size = %d, want 3 (drained member still in fleet)", got)
	}

	if err := m.Decommission(7); err != nil {
		t.Fatal(err)
	}
	if got := len(m.Members()); got != 2 {
		t.Fatalf("fleet size = %d after decommission, want 2", got)
	}
	if err := m.Decommission(7); err == nil {
		t.Fatal("decommissioning a Left member must error")
	}

	// Re-join over the tombstone: fresh incarnation, nothing carried over.
	if err := m.Join(ep); err != nil {
		t.Fatal(err)
	}
	if mb, _ := m.Get(7); mb.Incarnation != 2 || mb.State != MemberJoining {
		t.Fatalf("re-join: inc=%d state=%s, want inc 2 joining", mb.Incarnation, mb.State)
	}
}

// TestMembershipRecordAdopt: Record→Adopt round-trips the registry
// content (tombstones included, preserving incarnation high-water), the
// adopted epoch never regresses, and an adopted Joining member's
// warm-up grace restarts from the adopting replica's clock.
func TestMembershipRecordAdopt(t *testing.T) {
	now := time.Duration(0)
	src, err := NewMembership(testEndpoints(3), func() time.Duration { return now })
	if err != nil {
		t.Fatal(err)
	}
	// Build history: decommission 2 (tombstone at inc 1), re-join it
	// (inc 2, Joining), drain 1.
	if err := src.Decommission(2); err != nil {
		t.Fatal(err)
	}
	if err := src.Join(ShardEndpoint{ID: 2, Network: "unix", Addr: "/tmp/shard-2b.sock"}); err != nil {
		t.Fatal(err)
	}
	if err := src.Drain(1); err != nil {
		t.Fatal(err)
	}
	rec := src.Record()
	if rec.Epoch != src.Epoch() {
		t.Fatalf("record epoch %d, registry %d", rec.Epoch, src.Epoch())
	}

	dstNow := 30 * time.Millisecond
	dst, err := NewMembership(nil, func() time.Duration { return dstNow })
	if err != nil {
		t.Fatal(err)
	}
	dst.Adopt(rec)
	if got := dst.Epoch(); got <= rec.Epoch {
		t.Fatalf("adopted epoch %d must move past the record's %d", got, rec.Epoch)
	}
	mems := dst.Members()
	if len(mems) != 3 {
		t.Fatalf("adopted fleet size %d, want 3", len(mems))
	}
	mb, _ := dst.Get(2)
	if mb.Incarnation != 2 || mb.State != MemberJoining {
		t.Fatalf("adopted member 2: %+v, want inc 2 joining", mb)
	}
	if mb.AdmittedAt != dstNow {
		t.Fatalf("adopted joiner's grace restarts at %v, got %v", dstNow, mb.AdmittedAt)
	}
	if mb, _ := dst.Get(1); mb.State != MemberDraining {
		t.Fatalf("adopted member 1: %s, want draining", mb.State)
	}

	// A re-join on the adopting side continues the tombstone's lineage.
	if err := dst.Decommission(2); err != nil {
		t.Fatal(err)
	}
	if err := dst.Join(ShardEndpoint{ID: 2, Network: "unix", Addr: "/tmp/shard-2c.sock"}); err != nil {
		t.Fatal(err)
	}
	if mb, _ := dst.Get(2); mb.Incarnation != 3 {
		t.Fatalf("post-adopt re-join incarnation %d, want 3", mb.Incarnation)
	}
}

// TestMembershipInstrumentJournal: the cluster_member_* instruments and
// member_* journal kinds fire on the corresponding transitions.
func TestMembershipInstrumentJournal(t *testing.T) {
	reg := telemetry.NewRegistry()
	jnl := telemetry.NewJournal(64, 1)
	m, err := NewMembership(testEndpoints(2), func() time.Duration { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	m.Instrument(reg)
	m.Journal(jnl)

	if err := m.Join(ShardEndpoint{ID: 5, Network: "unix", Addr: "/tmp/s5.sock"}); err != nil {
		t.Fatal(err)
	}
	m.Activate(5)
	if err := m.Drain(5); err != nil {
		t.Fatal(err)
	}
	m.CompleteDrain(5)
	if err := m.Decommission(5); err != nil {
		t.Fatal(err)
	}

	for name, want := range map[string]uint64{
		"cluster_member_joins_total":         1,
		"cluster_member_drains_total":        1,
		"cluster_member_decommissions_total": 1,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := reg.Gauge("cluster_members").Value(); got != 2 {
		t.Errorf("cluster_members = %v, want 2", got)
	}

	kinds := map[string]int{}
	for _, d := range jnl.Entries() {
		kinds[d.Kind]++
	}
	for _, k := range []string{
		telemetry.KindMemberJoined,
		telemetry.KindMemberActivated,
		telemetry.KindMemberDrained,
		telemetry.KindMemberDecommissioned,
	} {
		if kinds[k] == 0 {
			t.Errorf("journal kind %s never recorded (saw %v)", k, kinds)
		}
	}
	// The drain path records both the request and the completion.
	if kinds[telemetry.KindMemberDrained] != 2 {
		t.Errorf("member_drained recorded %d times, want 2 (request + floor ack)", kinds[telemetry.KindMemberDrained])
	}
	var decomDetail string
	for _, d := range jnl.Entries() {
		if d.Kind == telemetry.KindMemberDecommissioned {
			decomDetail = d.Detail
		}
	}
	if !strings.Contains(decomDetail, "member 5") {
		t.Errorf("decommission detail %q does not name the member", decomDetail)
	}
}
