package cluster

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/wire/wiretest"
)

func sampleMembershipRecord() MembershipRecord {
	return MembershipRecord{
		Now:   1234 * time.Millisecond,
		Epoch: 17,
		Members: []MemberRecord{
			{ID: 0, Incarnation: 1, State: MemberActive, Network: "unix", Addr: "/tmp/s0.sock"},
			{ID: 1, Incarnation: 3, State: MemberDraining, Network: "tcp", Addr: "10.0.0.2:7410"},
			{ID: 4, Incarnation: 2, State: MemberLeft, Network: "unix", Addr: "/tmp/s4.sock"},
			{ID: 9, Incarnation: 1, State: MemberJoining, Network: "unix", Addr: "/tmp/s9.sock"},
		},
	}
}

// TestMembershipWireRoundTrip: encode→decode→re-encode is the identity
// on both the record and the bytes.
func TestMembershipWireRoundTrip(t *testing.T) {
	rec := sampleMembershipRecord()
	frame, err := AppendMembership(nil, &rec)
	if err != nil {
		t.Fatal(err)
	}
	var got MembershipRecord
	if err := DecodeMembership(frame, &got); err != nil {
		t.Fatal(err)
	}
	if got.Epoch != rec.Epoch || got.Now != rec.Now || len(got.Members) != len(rec.Members) {
		t.Fatalf("decoded %+v, want %+v", got, rec)
	}
	for i, m := range got.Members {
		if m != rec.Members[i] {
			t.Fatalf("member %d decoded %+v, want %+v", i, m, rec.Members[i])
		}
	}
	again, err := AppendMembership(nil, &got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame, again) {
		t.Fatal("re-encode is not canonical")
	}
}

// TestMembershipWireRejects: the strict decoder refuses every class of
// malformed frame, and the encoder refuses to produce them.
func TestMembershipWireRejects(t *testing.T) {
	good := sampleMembershipRecord()
	base, err := AppendMembership(nil, &good)
	if err != nil {
		t.Fatal(err)
	}
	var rec MembershipRecord
	cases := map[string][]byte{
		"empty":      {},
		"bad magic":  append([]byte("CLSX"), base[4:]...),
		"truncated":  base[:len(base)-3],
		"trailing":   append(append([]byte(nil), base...), 0),
		"zero epoch": func() []byte { b := append([]byte(nil), base...); copy(b[12:20], make([]byte, 8)); return b }(),
	}
	for name, frame := range cases {
		if err := DecodeMembership(frame, &rec); err == nil {
			t.Errorf("%s: decode accepted a malformed frame", name)
		}
	}

	for name, bad := range map[string]MembershipRecord{
		"zero epoch": {Epoch: 0},
		"unsorted ids": {Epoch: 1, Members: []MemberRecord{
			{ID: 2, Incarnation: 1, Network: "unix", Addr: "a"},
			{ID: 1, Incarnation: 1, Network: "unix", Addr: "b"},
		}},
		"zero incarnation": {Epoch: 1, Members: []MemberRecord{
			{ID: 0, Incarnation: 0, Network: "unix", Addr: "a"},
		}},
		"unknown state": {Epoch: 1, Members: []MemberRecord{
			{ID: 0, Incarnation: 1, State: NumMemberStates, Network: "unix", Addr: "a"},
		}},
		"bad network": {Epoch: 1, Members: []MemberRecord{
			{ID: 0, Incarnation: 1, Network: "carrier-pigeon", Addr: "a"},
		}},
		"unprintable addr": {Epoch: 1, Members: []MemberRecord{
			{ID: 0, Incarnation: 1, Network: "unix", Addr: "a\x01b"},
		}},
	} {
		if _, err := AppendMembership(nil, &bad); err == nil {
			t.Errorf("%s: encode accepted an invalid record", name)
		}
	}
}

// FuzzDecodeMembership holds the CLSM decoder to the canonical-codec
// property on arbitrary bytes.
func FuzzDecodeMembership(f *testing.F) {
	rec := sampleMembershipRecord()
	seed, err := AppendMembership(nil, &rec)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	warm := seed
	empty := MembershipRecord{Epoch: 1}
	if seed, err = AppendMembership(nil, &empty); err == nil {
		f.Add(seed)
	}
	f.Add([]byte("CLSM"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// The record is still warm from a seed, as a receiver's is from
		// the frame before.
		var dec MembershipRecord
		if err := DecodeMembership(warm, &dec); err != nil {
			t.Fatal(err)
		}
		wiretest.Canonical(t, data, func(b []byte) ([]byte, error) {
			if err := DecodeMembership(b, &dec); err != nil {
				return nil, err
			}
			out, err := AppendMembership(nil, &dec)
			if err != nil {
				t.Fatalf("decoded frame failed to re-encode: %v", err)
			}
			return out, nil
		})
	})
}
