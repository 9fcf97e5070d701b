package cluster

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/resilience"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// ShardEndpoint locates one shard's rcrd server.
type ShardEndpoint struct {
	ID      int
	Network string // "unix" or "tcp"
	Addr    string
}

// AggregatorConfig tunes an Aggregator.
type AggregatorConfig struct {
	// Shards seeds the fleet's rcrd endpoints. Ignored when Members is
	// set; otherwise at least one is required and the aggregator builds
	// its own registry with every seed endpoint Active.
	Shards []ShardEndpoint
	// Members, when non-nil, is the fleet's membership registry: the
	// aggregator reconciles its book against it at every poll boundary,
	// so joins, drains and decommissions applied to the registry take
	// effect within one period. An initially empty registry is valid —
	// the fleet grows by Join. The caller owns instrumenting and
	// journaling the registry (Membership.Instrument/Journal).
	Members *Membership
	// Global is the fleet-wide power budget. Required positive.
	Global units.Watts
	// Floor and Max bound every shard's assignment (per-shard floors are
	// uniform at this tier; heterogeneous fleets would move them into
	// ShardEndpoint). Floor zero selects 10 W; Max zero selects 200 W.
	Floor units.Watts
	Max   units.Watts
	// Period is the cadence of the poll/repartition loop on the owner's
	// clock. Zero selects 50 ms.
	Period time.Duration
	// HealthHorizon is how long a shard's heartbeat may sit still (on the
	// owner's clock) before the shard is declared lost and its surplus is
	// redistributed. Zero selects 4×Period. A Joining member may stay
	// silent for twice as long after admission before it counts against
	// the fleet's health gauges: a joiner is budgeted its floor from
	// admission but has not booted its sampler yet — silence inside that
	// warm-up grace is expected, not an outage.
	HealthHorizon time.Duration
	// Clock is the owner's clock: host time under Run, the scenario
	// runner's or the lockstep fleet's virtual time when the owner steps
	// Poll itself. Required. Shard snapshots may be stamped on clocks of
	// their own that advance at unrelated rates, so the aggregator judges
	// staleness by heartbeat *movement* against this clock, never by
	// comparing snapshot timestamps across timebases.
	Clock func() time.Duration
	// SetCap pushes an assignment down into one shard's enforcement
	// loop (maestro.PowerCap.SetCap behind the fleet seam). Required
	// unless HA is set — the HA control plane writes caps through the
	// fenced HA.WriteMem seam instead.
	SetCap func(shard int, cap units.Watts) error
	// HA, when non-nil, runs this aggregator as one replica of a
	// redundant control plane (ha.go): it only pushes caps while holding
	// the fleet lease, renews that lease through fenced cap writes, and
	// stands by — electing itself with a fresh fence after the observed
	// lease expires — otherwise.
	HA *HAConfig
	// Tune, when non-nil, adjusts each shard client's config before the
	// client is built — the test seam for scripted transports and faster
	// backoff.
	Tune func(shard int, cfg *resilience.ClientConfig)
	// Telemetry receives the cluster_* instruments; Journal receives
	// repartition and shard-transition records. Both optional.
	Telemetry *telemetry.Registry
	Journal   *telemetry.Journal
}

// Aggregator drives a controlCore over real shard daemons on host time:
// it subscribes to every shard's delta stream, hands the core each
// slot's resilience.Client Latest as its observation source, and steps
// the core once per period. Shard outages are ridden out by the client
// (resubscribe, last applied frame); everything the control
// plane decides is the core's (core.go, ha.go). The driver owns what the
// core must not: the mutex, the clients and their subscription
// goroutines, Run's context and the ticker.
type Aggregator struct {
	cfg AggregatorConfig // as given; the core keeps the defaulted copy

	// mu serializes the core: Poll (single driver) steps it under mu,
	// Status reads it under mu. It also guards the
	// subscription state below.
	mu   sync.Mutex
	core *controlCore
	subs map[int]*shardSub // live slots' clients, by member ID

	// runCtx is Run's context while Run is active; a slot opened meanwhile
	// derives its subscription context from it, so a decommissioned
	// member's stream tears down without stopping the fleet. subWG tracks
	// every subscription goroutine ever started.
	runCtx context.Context
	subWG  sync.WaitGroup
}

// shardSub is one slot's client and, while Run is active, the cancel of
// its subscription goroutine.
type shardSub struct {
	client *resilience.Client
	cancel context.CancelFunc
}

// NewAggregator validates cfg and builds the aggregator. Caps start
// unassigned; the first Poll partitions and pushes them. Subscriptions
// start when Run provides a context.
func NewAggregator(cfg AggregatorConfig) (*Aggregator, error) {
	a := &Aggregator{cfg: cfg, subs: make(map[int]*shardSub)}
	core, err := newControlCore(cfg, a.openSlotLocked, a.closeSlotLocked)
	if err != nil {
		return nil, err
	}
	a.core = core
	return a, nil
}

// NewSteppedAggregator is NewAggregator for an owner that brings its own
// transport and its own clock: open is the core's slot hook — called
// when a member's slot is created, it returns the source that slot's
// observations are read from at every Poll — so no resilience.Client is
// dialled and cfg.Tune is never consulted. The owner steps Poll itself
// (Run has nothing to subscribe to and is not called); Status, Members
// and the other readers work as on any Aggregator.
func NewSteppedAggregator(cfg AggregatorConfig, open func(Member) (SnapshotSource, error)) (*Aggregator, error) {
	core, err := newControlCore(cfg, open, nil)
	if err != nil {
		return nil, err
	}
	return &Aggregator{cfg: cfg, core: core}, nil
}

// openSlotLocked is the core's open hook: a fresh resilient client for
// a fresh slot, subscribed at once when Run is active, its Latest the
// slot's observation source. Called with a.mu held (or, by the core's
// first reconcile, from NewAggregator).
func (a *Aggregator) openSlotLocked(mb Member) (SnapshotSource, error) {
	ccfg := resilience.ClientConfig{
		Network:   mb.Endpoint.Network,
		Addrs:     []string{mb.Endpoint.Addr},
		Clock:     a.cfg.Clock,
		Journal:   a.cfg.Journal,
		Telemetry: a.cfg.Telemetry,
	}
	if a.cfg.Tune != nil {
		a.cfg.Tune(mb.ID, &ccfg)
	}
	client, err := resilience.NewClient(ccfg)
	if err != nil {
		return nil, fmt.Errorf("cluster: shard %d client: %w", mb.ID, err)
	}
	sub := &shardSub{client: client}
	a.subs[mb.ID] = sub
	a.startSubLocked(sub)
	return client.Latest, nil
}

// closeSlotLocked is the core's retire hook: the member was
// decommissioned or replaced (the core retires an ID's old slot before
// it opens the next incarnation's, so subs holds one entry per ID); its
// subscription is cancelled and the goroutine drains into subWG.
func (a *Aggregator) closeSlotLocked(id int) {
	if sub := a.subs[id]; sub != nil && sub.cancel != nil {
		sub.cancel()
	}
	delete(a.subs, id)
}

// startSubLocked launches a slot's subscription goroutine under Run's
// context. A no-op before Run starts (tests driving Poll directly feed
// the clients through their own transports).
func (a *Aggregator) startSubLocked(sub *shardSub) {
	if a.runCtx == nil || sub.cancel != nil {
		return
	}
	ctx, cancel := context.WithCancel(a.runCtx)
	sub.cancel = cancel
	a.subWG.Add(1)
	go func() {
		defer a.subWG.Done()
		_ = sub.client.Subscribe(ctx)
	}()
}

// Run subscribes to every shard and re-partitions each period until ctx
// is cancelled; it returns ctx.Err() after all of its goroutines have
// drained. The subscription streams keep the shard clients' latest
// snapshots fresh in the background while the poll loop runs on its own ticker;
// members joining later get their streams started as their slots open.
func (a *Aggregator) Run(ctx context.Context) error {
	a.mu.Lock()
	a.runCtx = ctx
	for _, sub := range a.subs {
		a.startSubLocked(sub)
	}
	a.mu.Unlock()
	tick := time.NewTicker(a.core.cfg.Period)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			a.subWG.Wait()
			a.mu.Lock()
			a.runCtx = nil
			for _, sub := range a.subs {
				sub.cancel = nil
			}
			a.mu.Unlock()
			return ctx.Err()
		case <-tick.C:
			a.Poll()
		}
	}
}

// Poll runs one reconcile → observe → partition → push cycle. It is
// the deterministic unit Run drives on a ticker; tests and the
// experiment harness call it directly. Poll is the fleet's single
// driver — it must not be called concurrently with itself.
func (a *Aggregator) Poll() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.core.Poll()
}

// Status snapshots the aggregator's bookkeeping.
func (a *Aggregator) Status() AggregatorStatus {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.core.Status()
}
