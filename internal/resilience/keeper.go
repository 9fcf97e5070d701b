package resilience

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/machine"
	"repro/internal/telemetry"
)

// DefaultKeeperPeriod is how often the keeper checkpoints state (virtual
// time). Half a second keeps the restore freshness window tight without
// the write traffic mattering next to the 10 ms sample cadence.
const DefaultKeeperPeriod = 500 * time.Millisecond

// maxKeeperBackoffTicks caps the failure backoff: after repeated save
// failures the keeper still retries at least once every this many
// periods, so a healed disk is noticed within a bounded window.
const maxKeeperBackoffTicks = 8

// Keeper periodically persists daemon state with SaveState, driven by
// the simulated machine's virtual-time ticker. The actual file write
// happens on a dedicated goroutine — the ticker callback only nudges
// it — so disk latency never stalls the engine. Stop performs a final
// synchronous save, which is the shutdown-path snapshot cmd/rcrd relies
// on.
//
// A failed save is not fatal: the previous snapshot on disk is intact
// (SaveState aborts before the rename on any fault), the failure is
// journaled as state_save_failed, and the keeper backs off — it skips
// a doubling number of ticks (capped) before retrying, so a full disk
// is probed at a polite cadence instead of hammered every period. Any
// success resets the backoff.
type Keeper struct {
	m        *machine.Machine
	tickerID int
	path     string
	capture  func() DaemonState
	jr       *telemetry.Journal

	kick chan struct{}
	quit chan struct{}
	done chan struct{}
	once sync.Once

	mu         sync.Mutex
	lastErr    error
	failStreak int
	skip       int // ticks left to sit out before the next attempt

	saves  *telemetry.Counter
	errsCt *telemetry.Counter
}

// StartKeeper begins checkpointing to path every period of virtual time.
// capture assembles the state to persist (it runs off the engine
// goroutine and must be safe to call concurrently with the daemon);
// the keeper stamps SavedAtUnixNano itself. period <= 0 selects
// DefaultKeeperPeriod. jr, when non-nil, receives a state_save_failed
// record for every failed checkpoint.
func StartKeeper(m *machine.Machine, path string, period time.Duration, capture func() DaemonState, reg *telemetry.Registry, jr *telemetry.Journal) (*Keeper, error) {
	if path == "" {
		return nil, errors.New("resilience: keeper requires a path")
	}
	if capture == nil {
		return nil, errors.New("resilience: keeper requires a capture func")
	}
	if period <= 0 {
		period = DefaultKeeperPeriod
	}
	k := &Keeper{
		m:       m,
		path:    path,
		capture: capture,
		jr:      jr,
		kick:    make(chan struct{}, 1),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
		saves:   reg.Counter("resilience_keeper_saves_total"),
		errsCt:  reg.Counter("resilience_keeper_errors_total"),
	}
	go k.run()
	id, err := m.AddTicker(period, func(time.Duration, *machine.Snapshot) {
		if k.sitOut() {
			return // backing off after a failed save
		}
		select {
		case k.kick <- struct{}{}:
		default: // a save is already pending; coalesce
		}
	})
	if err != nil {
		close(k.quit)
		<-k.done
		return nil, err
	}
	k.tickerID = id
	return k, nil
}

// sitOut consumes one tick of the failure backoff and reports whether
// this tick should be skipped.
func (k *Keeper) sitOut() bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.skip > 0 {
		k.skip--
		return true
	}
	return false
}

// run is the writer goroutine.
func (k *Keeper) run() {
	defer close(k.done)
	for {
		select {
		case <-k.quit:
			return
		case <-k.kick:
			k.save()
		}
	}
}

// save captures and persists one checkpoint.
func (k *Keeper) save() {
	st := k.capture()
	st.SavedAtUnixNano = time.Now().UnixNano()
	err := SaveState(k.path, st)
	k.mu.Lock()
	k.lastErr = err
	var backoff int
	if err == nil {
		k.failStreak, k.skip = 0, 0
	} else {
		k.failStreak++
		backoff = 1 << (k.failStreak - 1)
		if k.failStreak > 3 || backoff > maxKeeperBackoffTicks {
			backoff = maxKeeperBackoffTicks
		}
		k.skip = backoff
	}
	k.mu.Unlock()
	if err == nil {
		k.saves.Inc()
	} else {
		k.errsCt.Inc()
		if k.jr != nil {
			k.jr.Record(telemetry.Decision{
				T:      k.m.Now(),
				Kind:   telemetry.KindStateSaveFailed,
				Detail: fmt.Sprintf("%v (previous snapshot intact; retrying in %d ticks)", err, backoff),
			})
		}
	}
}

// Stop halts periodic checkpointing and writes one final snapshot,
// returning that save's error. The final save ignores any pending
// failure backoff: shutdown is the last chance to persist. Idempotent:
// later calls return the recorded last error without saving again.
func (k *Keeper) Stop() error {
	k.once.Do(func() {
		k.m.RemoveTicker(k.tickerID)
		close(k.quit)
		<-k.done
		k.save()
	})
	return k.LastErr()
}

// LastErr returns the most recent save's error (nil after a success).
func (k *Keeper) LastErr() error {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.lastErr
}
