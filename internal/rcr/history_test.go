package rcr

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistoryRecordsSeries(t *testing.T) {
	m, s := startSimStack(t)
	h, err := StartHistory(m, s.bb)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Stop()

	burn(t, m, []int{0, 1, 2, 3}, 200*time.Millisecond)

	pts := h.Points()
	if len(pts) < 15 {
		t.Fatalf("recorded %d points over 200 ms at 10 ms, want ~20", len(pts))
	}
	if h.Len() != len(pts) {
		t.Errorf("Len() = %d, Points() = %d", h.Len(), len(pts))
	}
	// Monotone time, plausible power during the burn.
	var sawLoad bool
	for i := 1; i < len(pts); i++ {
		if pts[i].Time <= pts[i-1].Time {
			t.Fatalf("time not monotone at %d", i)
		}
		if pts[i].NodePower > 60 {
			sawLoad = true
		}
	}
	if !sawLoad {
		t.Error("history never saw the load's power")
	}
	if len(pts[0].SocketPower) != 2 || len(pts[0].Concurrency) != 2 || len(pts[0].Temperature) != 2 {
		t.Errorf("point shape wrong: %+v", pts[0])
	}
}

func TestHistoryRingWraps(t *testing.T) {
	m, s := startSimStack(t)
	h, err := StartHistory(m, s.bb)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Stop()
	// A small ring; the clock is parked, so nothing records before burn.
	h.points = make([]HistoryPoint, 8)
	burn(t, m, []int{0}, 300*time.Millisecond) // ~30 samples into 8 slots
	pts := h.Points()
	if len(pts) != 8 {
		t.Fatalf("ring holds %d points, want 8", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Time <= pts[i-1].Time {
			t.Fatalf("wrapped ring out of order at %d", i)
		}
	}
	// Oldest retained point must be from near the end of the run.
	if pts[0].Time < 200*time.Millisecond {
		t.Errorf("ring kept stale point at %v", pts[0].Time)
	}
}

func TestHistoryWriteCSV(t *testing.T) {
	m, s := startSimStack(t)
	h, err := StartHistory(m, s.bb)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Stop()
	burn(t, m, []int{0, 1}, 100*time.Millisecond)

	var buf bytes.Buffer
	if err := h.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != h.Len()+1 {
		t.Errorf("CSV has %d lines, want %d", len(lines), h.Len()+1)
	}
	if !strings.HasPrefix(lines[0], "t_seconds,node_watts,pkg0_watts") {
		t.Errorf("CSV header = %q", lines[0])
	}
}

// TestHistoryRecordAllocs: once every ring slot's backing arrays exist,
// the 10 ms recorder must run allocation-free — it rides the seqlock
// read path and refills slots in place.
func TestHistoryRecordAllocs(t *testing.T) {
	bb, _ := NewBlackboard(2, 2)
	populate(bb, time.Second)
	h := &History{bb: bb, points: make([]HistoryPoint, 8)}
	now := time.Second
	for i := 0; i < 2*len(h.points); i++ { // warm every slot, wrap once
		now += 10 * time.Millisecond
		h.record(now, nil)
	}
	avg := testing.AllocsPerRun(200, func() {
		now += 10 * time.Millisecond
		h.record(now, nil)
	})
	if avg != 0 {
		t.Errorf("record allocates %v objects per tick, want 0", avg)
	}
}

// TestHistoryPointsDeepCopy: ring slots are reused in place, so Points
// must hand out copies — later recording must not mutate what a caller
// already holds.
func TestHistoryPointsDeepCopy(t *testing.T) {
	bb, _ := NewBlackboard(2, 2)
	bb.SetSocket(0, MeterPower, 50, time.Second)
	h := &History{bb: bb, points: make([]HistoryPoint, 2)}
	h.record(time.Second, nil)
	pts := h.Points()
	if len(pts) != 1 || pts[0].SocketPower[0] != 50 {
		t.Fatalf("unexpected points: %+v", pts)
	}
	// Wrap the ring over the recorded slot with a different reading.
	bb.SetSocket(0, MeterPower, 99, 2*time.Second)
	h.record(2*time.Second, nil)
	h.record(3*time.Second, nil)
	if pts[0].SocketPower[0] != 50 {
		t.Errorf("Points result mutated by later recording: %v", pts[0].SocketPower[0])
	}
	// And mutating the caller's copy must not poison the ring.
	pts[0].SocketPower[0] = -1
	if again := h.Points(); again[0].SocketPower[0] == -1 {
		t.Error("caller mutation leaked into the ring")
	}
}

// TestHistoryRestoreDeepCopy: Restore must copy the input — the ring
// refills slots in place and would otherwise scribble over the caller's
// (possibly persisted) slices.
func TestHistoryRestoreDeepCopy(t *testing.T) {
	bb, _ := NewBlackboard(2, 2)
	bb.SetSocket(0, MeterPower, 77, time.Second)
	h := &History{bb: bb, points: make([]HistoryPoint, 2)}
	saved := []HistoryPoint{{
		Time:        time.Second,
		NodePower:   10,
		SocketPower: []float64{10, 0},
		Concurrency: []float64{1, 2},
		Temperature: []float64{40, 41},
	}}
	h.Restore(saved)
	h.record(2*time.Second, nil) // overwrites ring slot 1
	h.record(3*time.Second, nil) // wraps onto the restored slot
	if saved[0].SocketPower[0] != 10 || saved[0].Time != time.Second {
		t.Errorf("Restore aliased caller slices: %+v", saved[0])
	}
}

func TestHistoryConcurrentReaders(t *testing.T) {
	m, s := startSimStack(t)
	h, err := StartHistory(m, s.bb)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Stop()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = h.Points()
					_ = h.Len()
				}
			}
		}()
	}
	burn(t, m, []int{0, 1, 2}, 150*time.Millisecond)
	close(stop)
	wg.Wait()
}
