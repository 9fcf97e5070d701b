package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Level values used in decision records. They mirror the maestro
// classifier (Low / Medium / High); the journal stores them as small
// integers so records round-trip exactly through JSONL.
const (
	LevelLow    int8 = 0
	LevelMedium int8 = 1
	LevelHigh   int8 = 2
)

// Record kinds used in Decision.Kind. The empty string marks a normal
// classification record; the fail-safe kinds trace the daemon's fault
// handling (docs/robustness.md): a sensor fault first seen, fail-safe
// entered (throttle released, classification suspended), and recovery
// back to normal operation.
const (
	KindDecision        = ""
	KindFaultDetected   = "fault_detected"
	KindFailsafeEntered = "failsafe_entered"
	KindRecovered       = "recovered"
)

// Record kinds written by the resilient rcrd client and the crash-safe
// state machinery (internal/resilience, docs/robustness.md §Service
// resilience): every circuit-breaker transition is journaled, as is
// every accepted or rejected state-snapshot restore.
const (
	KindBreakerClosed   = "breaker_closed"
	KindBreakerOpen     = "breaker_open"
	KindBreakerHalfOpen = "breaker_half_open"
	KindStateRestored   = "state_restored"
	KindStateRejected   = "state_rejected"
)

// Record kinds written by the client's push-subscription mode
// (docs/observability.md §Subscription): a lost delta stream and the
// subsequent successful resubscribe.
const (
	KindSubLost    = "sub_lost"
	KindSubResumed = "sub_resumed"
	// KindSubGapResync records a delta-gap episode inside a live stream:
	// the subscriber hit ErrDeltaGap (dropped deltas, usually during a
	// shard restart or queue overflow) and kept reading until the
	// server's full-frame resync arrived. One record per episode, not
	// per gapped frame.
	KindSubGapResync = "sub_gap_resync"
)

// Record kinds written by the cluster aggregator tier
// (internal/cluster, docs/cluster.md): a global-budget re-partition
// actually changing at least one shard cap, a shard going dark or
// coming back, and a shard observed restarting (its heartbeat ran
// backwards — a new incarnation).
const (
	KindRepartition    = "cluster_repartition"
	KindShardLost      = "cluster_shard_lost"
	KindShardRecovered = "cluster_shard_recovered"
	KindShardRestarted = "cluster_shard_restarted"
)

// Record kinds written by the HA control plane (docs/cluster.md §HA): a
// replica winning a lease election, a leader stepping down (lease
// expired, quorum lost, or a higher fence observed), a shard-side fence
// guard refusing a stale cap write, and the aggregator retrying one
// failed SetCap push immediately instead of waiting out a poll period.
const (
	KindLeaderElected = "leader_elected"
	KindLeaderDemoted = "leader_demoted"
	KindFenceRejected = "fence_rejected"
	KindCapRetry      = "cap_retry"
)

// Record kinds written by the fleet membership registry
// (internal/cluster/membership.go, docs/cluster.md §Membership): a
// shard admitted into the fleet, a drain requested and later completed
// (stepped down to its floor, safe to power off), a member removed
// from the fleet entirely, and a committed membership record adopted
// from the fleet by a freshly promoted leader.
const (
	KindMemberJoined         = "member_joined"
	KindMemberActivated      = "member_activated"
	KindMemberDrained        = "member_drained"
	KindMemberDecommissioned = "member_decommissioned"
	KindMembershipAdopted    = "membership_adopted"
)

// KindStateSaveFailed is written by the state Keeper when a checkpoint
// write fails (disk full, fsync error): the previous snapshot survives
// untouched by the atomic-rename contract and the keeper backs off, so
// the failure is journaled rather than fatal. One record per failure
// episode, not per retry.
const KindStateSaveFailed = "state_save_failed"

// Record kinds written by the phase-aware Adaptive maestro policy
// (internal/maestro/adaptive.go, docs/observability.md §Adaptive): the
// change-point detector segmenting the telemetry stream into a new
// workload phase, the per-phase speedup/power model being (re)fitted
// after an exploration pass, and the daemon actuating a different
// operating point (thread limit × DVFS gear) than before.
const (
	KindPhaseDetected         = "phase_detected"
	KindModelRefit            = "model_refit"
	KindOperatingPointChanged = "operating_point_changed"
)

// Decision is one classification epoch of the throttle daemon: the
// sampled inputs, the thresholds they were classified against, the
// per-axis levels, and the outcome. Slice fields are indexed by socket.
type Decision struct {
	// T is the virtual time of the poll.
	T time.Duration `json:"t_ns"`
	// Power and Conc are the sampled per-socket inputs (Watts,
	// outstanding memory references); Membw is the per-socket memory
	// bandwidth (bytes/s) at the same instant.
	Power []float64 `json:"power"`
	Conc  []float64 `json:"conc"`
	Membw []float64 `json:"membw"`
	// PowerLv / ConcLv are the per-socket classifications (LevelLow,
	// LevelMedium, LevelHigh).
	PowerLv []int8 `json:"power_level"`
	ConcLv  []int8 `json:"conc_level"`
	// Thresholds are the boundaries the inputs were classified against:
	// {low power, high power, low concurrency, high concurrency}.
	Thresholds [4]float64 `json:"thresholds"`
	// Outcome is the decision: "hold", "enable" or "disable".
	Outcome string `json:"outcome"`
	// Engaged is the hysteresis state after the decision (whether the
	// mechanism is applied).
	Engaged bool `json:"engaged"`
	// Limit is the per-shepherd active-worker limit in force.
	Limit int `json:"limit"`
	// Freq is the DVFS gear in force (1 = full clock). Zero on records
	// from writers that predate operating points; treat as 1.
	Freq float64 `json:"freq,omitempty"`
	// Phase is the policy's workload-phase id at record time (0 for
	// static policies, which have no phase model).
	Phase int `json:"phase,omitempty"`
	// Staleness is the age of the oldest input meter at poll time — how
	// out-of-date the data behind this decision was.
	Staleness time.Duration `json:"staleness_ns"`
	// Kind distinguishes record types: KindDecision (empty) for normal
	// classification records, or one of the fail-safe kinds
	// (fault_detected / failsafe_entered / recovered).
	Kind string `json:"kind,omitempty"`
	// Detail carries the fault or recovery reason on fail-safe records
	// ("stale", "missing"); empty on classification records. Values are
	// constant strings so recording stays allocation-free.
	Detail string `json:"detail,omitempty"`
}

// Journal is a bounded ring buffer of Decisions. Record copies the
// caller's slices into storage preallocated at construction, so the
// record path does not allocate for the topology the journal was built
// for. A single writer (the daemon's poll callback) and any number of
// concurrent readers are the intended pattern; all methods are safe for
// concurrent use.
type Journal struct {
	mu      sync.Mutex
	entries []Decision
	next    int
	filled  bool
}

// DefaultJournalCapacity holds ~27 minutes of decisions at the paper's
// 0.1 s daemon period.
const DefaultJournalCapacity = 1 << 14

// NewJournal creates a journal for capacity decisions over a node with
// the given socket count, which sizes the per-socket slices every slot
// preallocates so that Record does not allocate. capacity <= 0 selects
// DefaultJournalCapacity.
func NewJournal(capacity, sockets int) *Journal {
	if capacity <= 0 {
		capacity = DefaultJournalCapacity
	}
	if sockets < 1 {
		sockets = 1
	}
	j := &Journal{entries: make([]Decision, capacity)}
	for i := range j.entries {
		j.entries[i].Power = make([]float64, 0, sockets)
		j.entries[i].Conc = make([]float64, 0, sockets)
		j.entries[i].Membw = make([]float64, 0, sockets)
		j.entries[i].PowerLv = make([]int8, 0, sockets)
		j.entries[i].ConcLv = make([]int8, 0, sockets)
	}
	return j
}

// Record appends one decision, overwriting the oldest when full. The
// slices in d are copied; the caller may reuse them. Nil-safe no-op.
func (j *Journal) Record(d Decision) {
	if j == nil {
		return
	}
	j.mu.Lock()
	slot := &j.entries[j.next]
	// Copy scalars, then splice the slot's preallocated backing arrays
	// back in and copy the slice contents into them.
	power, conc, membw := slot.Power[:0], slot.Conc[:0], slot.Membw[:0]
	plv, clv := slot.PowerLv[:0], slot.ConcLv[:0]
	*slot = d
	slot.Power = append(power, d.Power...)
	slot.Conc = append(conc, d.Conc...)
	slot.Membw = append(membw, d.Membw...)
	slot.PowerLv = append(plv, d.PowerLv...)
	slot.ConcLv = append(clv, d.ConcLv...)
	j.next++
	if j.next == len(j.entries) {
		j.next = 0
		j.filled = true
	}
	j.mu.Unlock()
}

// Len reports how many decisions are currently stored (0 for nil).
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.filled {
		return len(j.entries)
	}
	return j.next
}

// Entries returns a deep copy of the stored decisions, oldest first.
func (j *Journal) Entries() []Decision {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	var src []Decision
	if j.filled {
		src = make([]Decision, 0, len(j.entries))
		src = append(src, j.entries[j.next:]...)
		src = append(src, j.entries[:j.next]...)
	} else {
		src = append([]Decision(nil), j.entries[:j.next]...)
	}
	out := make([]Decision, len(src))
	for i, d := range src {
		out[i] = d
		out[i].Power = append([]float64(nil), d.Power...)
		out[i].Conc = append([]float64(nil), d.Conc...)
		out[i].Membw = append([]float64(nil), d.Membw...)
		out[i].PowerLv = append([]int8(nil), d.PowerLv...)
		out[i].ConcLv = append([]int8(nil), d.ConcLv...)
	}
	return out
}

// WriteJSONL writes the journal as one JSON object per line, oldest
// first — the sidecar format ReadJSONL parses back.
func (j *Journal) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, d := range j.Entries() {
		if err := enc.Encode(d); err != nil {
			return err
		}
	}
	return nil
}

// ReadJSONL parses a WriteJSONL stream. Blank lines are skipped.
func ReadJSONL(r io.Reader) ([]Decision, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []Decision
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var d Decision
		if err := json.Unmarshal(line, &d); err != nil {
			return nil, fmt.Errorf("telemetry: journal line %d: %w", len(out)+1, err)
		}
		out = append(out, d)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
