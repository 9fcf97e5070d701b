package telemetry

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func decisionAt(i int) Decision {
	return Decision{
		T:          time.Duration(i) * 100 * time.Millisecond,
		Power:      []float64{60 + float64(i), 55},
		Conc:       []float64{30.5, 12.25},
		Membw:      []float64{1.5e10, 0.5e10},
		PowerLv:    []int8{LevelHigh, LevelMedium},
		ConcLv:     []int8{LevelHigh, LevelLow},
		Thresholds: [4]float64{45, 65, 10, 30},
		Outcome:    "enable",
		Engaged:    true,
		Limit:      12,
		Staleness:  7 * time.Millisecond,
	}
}

func TestJournalRoundTripJSONL(t *testing.T) {
	j := NewJournal(16, 2)
	want := make([]Decision, 5)
	for i := range want {
		want[i] = decisionAt(i)
		j.Record(want[i])
	}
	var buf bytes.Buffer
	if err := j.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("JSONL round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestJournalRingWraps(t *testing.T) {
	j := NewJournal(4, 2)
	for i := 0; i < 10; i++ {
		j.Record(decisionAt(i))
	}
	if j.Len() != 4 {
		t.Fatalf("Len = %d, want 4", j.Len())
	}
	e := j.Entries()
	if e[0].T != 600*time.Millisecond || e[3].T != 900*time.Millisecond {
		t.Errorf("ring kept wrong window: first %v last %v", e[0].T, e[3].T)
	}
}

func TestJournalEntriesAreCopies(t *testing.T) {
	j := NewJournal(4, 2)
	d := decisionAt(0)
	j.Record(d)
	// Caller reuses its slices: the journal must have copied.
	d.Power[0] = -1
	e := j.Entries()
	if e[0].Power[0] == -1 {
		t.Error("Record aliased the caller's slice")
	}
	// And mutating what Entries returned must not corrupt the ring.
	e[0].Power[0] = -2
	if j.Entries()[0].Power[0] == -2 {
		t.Error("Entries aliased ring storage")
	}
}

// TestJournalKindRoundTrip: fail-safe records (fault_detected /
// failsafe_entered / recovered) keep their kind and detail through the
// ring and the JSONL sidecar, and normal decisions omit the fields.
func TestJournalKindRoundTrip(t *testing.T) {
	j := NewJournal(8, 2)
	d := decisionAt(0)
	d.Kind = KindFailsafeEntered
	d.Detail = "stale"
	j.Record(d)
	j.Record(decisionAt(1))
	var buf bytes.Buffer
	if err := j.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"kind":"failsafe_entered"`) {
		t.Errorf("JSONL missing kind field:\n%s", buf.String())
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Kind != KindFailsafeEntered || got[0].Detail != "stale" {
		t.Errorf("record 0 round-tripped as kind=%q detail=%q", got[0].Kind, got[0].Detail)
	}
	if got[1].Kind != KindDecision || got[1].Detail != "" {
		t.Errorf("decision record gained kind=%q detail=%q", got[1].Kind, got[1].Detail)
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{\"t_ns\":1}\nnot json\n")); err == nil {
		t.Error("ReadJSONL accepted garbage line")
	}
}

// TestJournalRecordAllocs: recording at the journal's native socket
// width must not allocate — the ring slots own their backing arrays.
func TestJournalRecordAllocs(t *testing.T) {
	j := NewJournal(64, 2)
	d := decisionAt(3)
	allocs := testing.AllocsPerRun(200, func() {
		j.Record(d)
	})
	if allocs != 0 {
		t.Errorf("journal record path allocates: %.1f allocs per run, want 0", allocs)
	}
}

// TestNewJournalAllocs: the slots' per-socket slices are windows of one
// backing array per field, so building a journal costs a fixed number of
// allocations whatever its capacity.
func TestNewJournalAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(20, func() { NewJournal(1024, 2) })
	if allocs > 7 {
		t.Errorf("NewJournal(1024, 2) makes %.0f allocations, want at most 7 (journal, slots, five field arrays)", allocs)
	}
}

// TestJournalWideRecordKeepsNeighbours: a decision with more sockets than
// the journal was built for must not write into the next slot's window.
func TestJournalWideRecordKeepsNeighbours(t *testing.T) {
	j := NewJournal(4, 1)
	first, second := decisionAt(0), decisionAt(1)
	second.Power = []float64{70, 80}
	j.Record(first)
	j.Record(second)
	if e := j.Entries(); !reflect.DeepEqual(e[0], first) || !reflect.DeepEqual(e[1], second) {
		t.Errorf("entries after two 2-socket records into a 1-socket journal:\ngot  %+v\nwant %+v", e, []Decision{first, second})
	}
}

// TestJournalConcurrentReaders mirrors TestHistoryConcurrentReaders: one
// writer racing snapshot/export readers, for CI's race-enabled job.
func TestJournalConcurrentReaders(t *testing.T) {
	j := NewJournal(32, 2)
	var readers sync.WaitGroup
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	// The readers start once the first record is in: a writer the
	// scheduler starts late cannot leave them an empty journal.
	recorded := make(chan struct{})
	go func() {
		defer writer.Done()
		j.Record(decisionAt(0))
		close(recorded)
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
				j.Record(decisionAt(i))
			}
		}
	}()
	<-recorded
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 100; i++ {
				_ = j.Entries()
				_ = j.Len()
				var buf bytes.Buffer
				_ = j.WriteJSONL(&buf)
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()
	if j.Len() == 0 {
		t.Error("writer recorded nothing")
	}
}

func BenchmarkJournalRecord(b *testing.B) {
	j := NewJournal(1024, 2)
	d := decisionAt(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j.Record(d)
	}
}
