package rcr

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// snapshotOf copies bb into a fresh Snapshot, as SnapshotInto's callers
// do with their first scratch.
func snapshotOf(bb *Blackboard, now time.Duration) Snapshot {
	var s Snapshot
	bb.SnapshotInto(&s, now)
	return s
}

func TestNewBlackboardTopology(t *testing.T) {
	bb, err := NewBlackboard(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if bb.Sockets() != 2 || bb.Cores() != 16 {
		t.Errorf("topology = %d/%d, want 2/16", bb.Sockets(), bb.Cores())
	}
	for _, bad := range [][2]int{{0, 8}, {2, 0}, {-1, 2}} {
		if _, err := NewBlackboard(bad[0], bad[1]); err == nil {
			t.Errorf("NewBlackboard(%d, %d) succeeded", bad[0], bad[1])
		}
	}
}

func TestBlackboardReadWrite(t *testing.T) {
	bb, err := NewBlackboard(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	bb.SetSystem(MeterPower, 140, time.Second)
	bb.SetSocket(1, MeterEnergy, 1234, 2*time.Second)
	bb.SetCore(3, MeterDutyCycle, 0.5, 3*time.Second)

	if m, ok := bb.System(MeterPower); !ok || m.Value != 140 || m.Updated != time.Second {
		t.Errorf("System(power) = %+v, %v", m, ok)
	}
	if m, ok := bb.Socket(1, MeterEnergy); !ok || m.Value != 1234 {
		t.Errorf("Socket(1, energy) = %+v, %v", m, ok)
	}
	// Missing meters and out-of-range domains report !ok.
	if _, ok := bb.System("nope"); ok {
		t.Error("System(nope) reported ok")
	}
	if _, ok := bb.Socket(9, MeterEnergy); ok {
		t.Error("Socket(9) reported ok")
	}
}

func TestBlackboardOverwrite(t *testing.T) {
	bb, _ := NewBlackboard(1, 1)
	bb.SetSystem(MeterPower, 100, time.Second)
	bb.SetSystem(MeterPower, 120, 2*time.Second)
	m, _ := bb.System(MeterPower)
	if m.Value != 120 || m.Updated != 2*time.Second {
		t.Errorf("overwritten meter = %+v", m)
	}
}

func TestSnapshotSortedAndDeep(t *testing.T) {
	bb, _ := NewBlackboard(1, 2)
	bb.SetSystem("zeta", 1, 0)
	bb.SetSystem("alpha", 2, 0)
	bb.SetSocket(0, MeterPower, 70, time.Second)
	bb.SetCore(1, MeterDutyCycle, 0.25, time.Second)

	s := snapshotOf(bb, 5*time.Second)
	if s.Now != 5*time.Second {
		t.Errorf("snapshot Now = %v", s.Now)
	}
	if len(s.System) != 2 || s.System[0].Name != "alpha" || s.System[1].Name != "zeta" {
		t.Errorf("system meters not sorted: %+v", s.System)
	}
	if len(s.Sockets) != 1 || len(s.Sockets[0].Cores) != 2 {
		t.Fatalf("snapshot shape wrong: %+v", s)
	}
	if s.Sockets[0].Cores[1][0].Name != MeterDutyCycle {
		t.Errorf("core meter missing: %+v", s.Sockets[0].Cores[1])
	}
	// Mutating the blackboard afterwards must not affect the snapshot.
	bb.SetSystem("alpha", 99, time.Minute)
	if s.System[0].Value != 2 {
		t.Error("snapshot not deep: later write visible")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	bb, _ := NewBlackboard(2, 4)
	bb.SetSystem(MeterEnergy, 2500.5, 3*time.Second)
	bb.SetSystem(MeterPower, 141.25, 3*time.Second)
	for sck := 0; sck < 2; sck++ {
		bb.SetSocket(sck, MeterEnergy, float64(1000+sck), 3*time.Second)
		bb.SetSocket(sck, MeterTemperature, 68.5, 3*time.Second)
	}
	for c := 0; c < 8; c++ {
		bb.SetCore(c, MeterDutyCycle, 1.0/32, 3*time.Second)
	}
	s := snapshotOf(bb, 3*time.Second)
	got, err := DecodeSnapshot(AppendSnapshot(nil, s))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Errorf("round trip mismatch:\ngot  %+v\nwant %+v", got, s)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		[]byte("XYZ!"),
		[]byte("RCR1"), // truncated after magic
		append([]byte("RCR1"), make([]byte, 7)...), // truncated now
	}
	for i, data := range cases {
		if _, err := DecodeSnapshot(data); err == nil {
			t.Errorf("case %d: DecodeSnapshot accepted garbage", i)
		}
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	bb, _ := NewBlackboard(1, 1)
	data := AppendSnapshot(nil, snapshotOf(bb, 0))
	data = append(data, 0xFF)
	if _, err := DecodeSnapshot(data); err == nil {
		t.Error("DecodeSnapshot accepted trailing bytes")
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	bb, _ := NewBlackboard(2, 4)
	bb.SetSystem(MeterEnergy, 1, 0)
	data := AppendSnapshot(nil, snapshotOf(bb, time.Second))
	for cut := 1; cut < len(data); cut += 3 {
		if _, err := DecodeSnapshot(data[:cut]); err == nil {
			t.Errorf("DecodeSnapshot accepted truncation at %d", cut)
		}
	}
}

// TestEncodeDecodeProperty round-trips randomized snapshots.
func TestEncodeDecodeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bb, _ := NewBlackboard(1+rng.Intn(3), 1+rng.Intn(6))
		names := []string{MeterEnergy, MeterPower, MeterMemBandwidth, MeterMemConcurrency, MeterTemperature, "custom-x"}
		for i := 0; i < rng.Intn(20); i++ {
			name := names[rng.Intn(len(names))]
			v := rng.NormFloat64() * 100
			ts := time.Duration(rng.Int63n(1e12))
			switch rng.Intn(3) {
			case 0:
				bb.SetSystem(name, v, ts)
			case 1:
				bb.SetSocket(rng.Intn(bb.Sockets()), name, v, ts)
			default:
				bb.SetCore(rng.Intn(bb.Cores()), name, v, ts)
			}
		}
		s := snapshotOf(bb, time.Duration(rng.Int63n(1e12)))
		got, err := DecodeSnapshot(AppendSnapshot(nil, s))
		if err != nil {
			t.Logf("decode error: %v", err)
			return false
		}
		return reflect.DeepEqual(got, s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestWriteJSON(t *testing.T) {
	bb, _ := NewBlackboard(1, 2)
	bb.SetSystem(MeterPower, 141.7, 3*time.Second)
	bb.SetSocket(0, MeterEnergy, 6860, 3*time.Second)
	var buf bytes.Buffer
	if err := snapshotOf(bb, 3*time.Second).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, snapshotOf(bb, 3*time.Second)) {
		t.Errorf("JSON round trip mismatch:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), `"power"`) {
		t.Errorf("JSON missing meter name: %s", buf.String())
	}
}
