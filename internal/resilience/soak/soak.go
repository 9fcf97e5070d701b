// Package soak drives N concurrent self-healing clients against a real
// rcrd IPC server through seeded service-fault schedules — daemon
// crash/restart mid-query, connection resets, slow-loris peers — for a
// wall budget, and audits the outcome: zero goroutine leaks, bounded
// memory growth, convergence after the last fault clears, and the
// staleness invariant (no client ever receives a snapshot older than
// the staleness horizon; past it the client must see an error instead).
//
// Unlike the chaos harness (internal/faults), which runs in virtual
// time, a soak run is host-time against real unix sockets: the subjects
// are the accept loop, the breaker, the drain path and the goroutine
// hygiene of the service boundary itself.
package soak

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/rcr"
	"repro/internal/resilience"
	"repro/internal/telemetry"
)

// Config tunes one soak run.
type Config struct {
	// Seed determines the service-fault schedule and every client's
	// retry jitter.
	Seed uint64
	// Clients is the concurrent client count. Zero selects 4.
	Clients int
	// Subscribers adds push-mode clients (resilience.Client.Subscribe)
	// that ride the daemon's delta publisher and audit the same
	// staleness invariant through Latest, plus one deliberately slow raw
	// subscriber that forces the publisher's drop-oldest + resync path.
	// Zero disables subscription soak.
	Subscribers int
	// Budget is the wall-time length of the run. Zero selects 2 s; the
	// schedule closes all fault windows by 80% of it, leaving a
	// convergence tail.
	Budget time.Duration
	// FeedPeriod is how often the server's blackboard is refreshed.
	// Zero selects 2 ms.
	FeedPeriod time.Duration
	// StalenessHorizon bounds both the clients' caches and the audited
	// snapshot age. Zero selects 300 ms (maestro's default watchdog
	// bound at the paper's 0.1 s poll period).
	StalenessHorizon time.Duration
	// Dir hosts the unix socket; empty selects a fresh temp dir,
	// removed afterwards.
	Dir string
	// SkipResourceAudit disables the per-run goroutine/heap audit.
	// runtime.NumGoroutine is process-global, so runs executing
	// concurrently (the corpus fan-out) must skip it and let the caller
	// audit once at the end; a run that owns the process keeps it on.
	SkipResourceAudit bool
	// Telemetry, when non-nil, receives every component's instruments;
	// nil creates a private registry.
	Telemetry *telemetry.Registry
}

// Report is the audited outcome of one soak run.
type Report struct {
	Seed        uint64
	Events      int
	ClearTime   time.Duration
	Subscribers int // push-mode clients run (from Config)

	// Client-side traffic.
	Queries     uint64 // total Query calls
	Live        uint64 // answered with a live snapshot
	CacheServed uint64 // bridged by a fresh last-known-good cache
	Failures    uint64 // surfaced as errors (breaker open + stale, outage)
	Converged   uint64 // live answers after ClearTime

	// Faults exercised.
	Restarts   int // server kill/restart cycles performed
	Resets     uint64
	LorisConns uint64

	// Subscription-side traffic (Config.Subscribers > 0).
	SubFrames    uint64 // frames applied by push-mode clients
	Resubscribes uint64 // streams re-opened after a loss
	SubLive      uint64 // Latest reads answered with fresh data
	SubConverged uint64 // fresh Latest reads after ClearTime
	SubDropped   uint64 // publisher frames dropped on slow queues
	SubResyncs   uint64 // full-frame resyncs forced by overflow

	// Invariant audit.
	StalenessViolations uint64
	GoroutineGrowth     int
	HeapGrowthBytes     int64

	Violations []string
}

// Passed reports whether every invariant held.
func (r *Report) Passed() bool { return len(r.Violations) == 0 }

// Summary renders the report as one line.
func (r *Report) Summary() string {
	return fmt.Sprintf("seed %d: %d events, %d queries (%d live, %d cached, %d failed, %d converged), %d sub-frames (%d resubs, %d sub-live, %d sub-converged, %d dropped, %d resyncs), %d restarts, %d resets, %d loris, %d stale-violations, goroutines %+d, heap %+d B",
		r.Seed, r.Events, r.Queries, r.Live, r.CacheServed, r.Failures, r.Converged,
		r.SubFrames, r.Resubscribes, r.SubLive, r.SubConverged, r.SubDropped, r.SubResyncs,
		r.Restarts, r.Resets, r.LorisConns, r.StalenessViolations, r.GoroutineGrowth, r.HeapGrowthBytes)
}

// heapGrowthBound is the accepted HeapAlloc delta across a run. A soak
// run's steady state allocates (snapshots, conns), but growth past this
// after a final GC indicates a real accumulation.
const heapGrowthBound = 16 << 20

// Run executes one soak run and audits it.
func Run(cfg Config) (*Report, error) {
	if cfg.Clients <= 0 {
		cfg.Clients = 4
	}
	if cfg.Budget <= 0 {
		cfg.Budget = 2 * time.Second
	}
	if cfg.FeedPeriod <= 0 {
		cfg.FeedPeriod = 2 * time.Millisecond
	}
	if cfg.StalenessHorizon <= 0 {
		cfg.StalenessHorizon = 300 * time.Millisecond
	}
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	dir := cfg.Dir
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "soak"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}
	socket := filepath.Join(dir, "rcrd.sock")

	sched := faults.GenerateServiceSchedule(cfg.Seed, cfg.Budget*4/5)
	rep := &Report{Seed: cfg.Seed, Events: len(sched.Events), ClearTime: sched.ClearTime(), Subscribers: cfg.Subscribers}

	var audit *ResourceAudit
	if !cfg.SkipResourceAudit {
		audit = BeginResourceAudit()
	}

	clock := NewHostClock()
	bb, err := rcr.NewBlackboard(2, 2)
	if err != nil {
		return nil, err
	}

	// The daemon under test: killed and restarted across the schedule's
	// ServerRestart windows, its accepted connections reset inside
	// ConnReset windows. The blackboard outlives every incarnation.
	srv := &Server{Socket: socket, Clock: clock, Reg: reg, Active: sched.Active, Board: bb}

	// Feeder: keeps the blackboard fresh on the host cadence, standing in
	// for the sampler (the soak subject is the service boundary, not the
	// sensing stack), and drives the current server's publisher tick so
	// push-mode subscribers receive deltas on the same cadence.
	stopFeed := make(chan struct{})
	var feedWG sync.WaitGroup
	feedWG.Add(1)
	go func() {
		defer feedWG.Done()
		tick := time.NewTicker(cfg.FeedPeriod)
		defer tick.Stop()
		beat := 0.0
		for {
			select {
			case <-stopFeed:
				return
			case <-tick.C:
				now := clock.Now()
				beat++
				bb.SetSystem(rcr.MeterHeartbeat, beat, now)
				bb.SetSystem(rcr.MeterPower, 140+10*float64(int(beat)%5), now)
				for s := 0; s < bb.Sockets(); s++ {
					bb.SetSocket(s, rcr.MeterPower, 70, now)
					bb.SetSocket(s, rcr.MeterMemConcurrency, 12, now)
				}
				srv.Feed(func(_ *rcr.Blackboard, pub *rcr.Publisher) { pub.Tick(now) })
			}
		}
	}()

	if err := srv.Start(); err != nil {
		stopFeed <- struct{}{}
		feedWG.Wait()
		return nil, err
	}
	restartsDone := make(chan struct{})
	go func() {
		defer close(restartsDone)
		rep.Restarts = int(srv.RunRestarts(sched.Events, cfg.Budget))
	}()

	// Slow-loris attackers: during SlowLoris windows, dial and dribble.
	lorisDone := make(chan struct{})
	go func() {
		defer close(lorisDone)
		rep.LorisConns = RunLoris(clock, []*Server{srv}, 16, cfg.Budget)
	}()

	// Clients. Breaker cooldowns scale with the budget so short corpus
	// runs still fit probe cycles into the convergence tail.
	openFor := cfg.Budget / 40
	if openFor < 5*time.Millisecond {
		openFor = 5 * time.Millisecond
	}
	openForMax := cfg.Budget / 10
	if openForMax < 4*openFor {
		openForMax = 4 * openFor
	}
	slack := cfg.StalenessHorizon/2 + 4*cfg.FeedPeriod

	// Push-mode subscribers: each holds a resilient subscription whose
	// frames feed the LKG cache, and audits Latest on the poll cadence —
	// the same staleness invariant as the Query clients, with zero
	// round trips. One extra raw subscriber reads deliberately slowly to
	// force the publisher's bounded queues into drop-oldest + resync.
	subCtx, subCancel := context.WithCancel(context.Background())
	var subWG sync.WaitGroup
	for i := 0; i < cfg.Subscribers; i++ {
		subWG.Add(1)
		go func(id int) {
			defer subWG.Done()
			cl, err := resilience.NewClient(resilience.ClientConfig{
				Addrs:            []string{socket},
				Backoff:          resilience.Backoff{Base: 5 * time.Millisecond, Max: 40 * time.Millisecond, Seed: cfg.Seed ^ uint64(id)<<24},
				StalenessHorizon: cfg.StalenessHorizon,
				Clock:            clock.Now,
				Telemetry:        reg,
				Breaker: resilience.BreakerConfig{
					FailureThreshold: 3,
					OpenFor:          openFor,
					OpenForMax:       openForMax,
				},
			})
			if err != nil {
				atomic.AddUint64(&rep.Failures, 1)
				return
			}
			subWG.Add(1)
			go func() {
				defer subWG.Done()
				_ = cl.Subscribe(subCtx)
			}()
			for clock.Now() < cfg.Budget {
				now := clock.Now()
				if snap, err := cl.Latest(); err == nil {
					if now-snap.Now > cfg.StalenessHorizon+slack {
						atomic.AddUint64(&rep.StalenessViolations, 1)
					}
					if now-snap.Now <= 2*cfg.FeedPeriod+50*time.Millisecond {
						atomic.AddUint64(&rep.SubLive, 1)
						if now > rep.ClearTime {
							atomic.AddUint64(&rep.SubConverged, 1)
						}
					}
				}
				time.Sleep(2 * time.Millisecond)
			}
		}(i)
	}
	if cfg.Subscribers > 0 {
		subWG.Add(1)
		go func() {
			defer subWG.Done()
			for clock.Now() < cfg.Budget && subCtx.Err() == nil {
				sub, err := rcr.Subscribe(subCtx, "unix", socket)
				if err != nil {
					time.Sleep(5 * time.Millisecond)
					continue
				}
				for clock.Now() < cfg.Budget {
					if err := sub.Next(subCtx); err != nil {
						if errors.Is(err, rcr.ErrDeltaGap) {
							continue
						}
						break
					}
					time.Sleep(25 * time.Millisecond) // slower than the tick cadence: overflows the queue
				}
				sub.Close()
			}
		}()
	}

	var wg sync.WaitGroup
	for i := 0; i < cfg.Clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cl, err := resilience.NewClient(resilience.ClientConfig{
				Addrs:            []string{socket},
				Attempts:         2,
				Backoff:          resilience.Backoff{Base: 5 * time.Millisecond, Max: 40 * time.Millisecond, Seed: cfg.Seed ^ uint64(id)<<16},
				StalenessHorizon: cfg.StalenessHorizon,
				Clock:            clock.Now,
				Telemetry:        reg,
				Breaker: resilience.BreakerConfig{
					FailureThreshold: 3,
					OpenFor:          openFor,
					OpenForMax:       openForMax,
				},
			})
			if err != nil {
				atomic.AddUint64(&rep.Failures, 1)
				return
			}
			for clock.Now() < cfg.Budget {
				ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
				snap, err := cl.Query(ctx)
				cancel()
				atomic.AddUint64(&rep.Queries, 1)
				now := clock.Now()
				if err != nil {
					atomic.AddUint64(&rep.Failures, 1)
				} else {
					// The invariant: a served snapshot is never older than
					// the horizon (plus feed/transport slack). Errors are
					// the correct behavior past it — only served data can
					// violate.
					if now-snap.Now > cfg.StalenessHorizon+slack {
						atomic.AddUint64(&rep.StalenessViolations, 1)
					}
					if now-snap.Now <= 2*cfg.FeedPeriod+50*time.Millisecond {
						atomic.AddUint64(&rep.Live, 1)
						if now > rep.ClearTime {
							atomic.AddUint64(&rep.Converged, 1)
						}
					} else {
						atomic.AddUint64(&rep.CacheServed, 1)
					}
				}
				time.Sleep(2 * time.Millisecond) // client poll cadence
			}
		}(i)
	}
	wg.Wait()
	subCancel()
	subWG.Wait()
	<-restartsDone
	<-lorisDone
	srv.Stop()
	rep.Resets = srv.Resets()
	close(stopFeed)
	feedWG.Wait()

	if cfg.Subscribers > 0 {
		rep.SubFrames = reg.Counter("resilience_client_sub_frames_total").Value()
		rep.Resubscribes = reg.Counter("resilience_client_resubscribes_total").Value()
		rep.SubDropped = reg.Counter("rcr_sub_dropped_frames_total").Value()
		rep.SubResyncs = reg.Counter("rcr_sub_resyncs_total").Value()
	}

	rep.GoroutineGrowth, rep.HeapGrowthBytes = audit.Finish()

	rep.audit()
	return rep, nil
}

// audit fills Violations.
func (r *Report) audit() {
	if r.StalenessViolations > 0 {
		r.Violations = append(r.Violations,
			fmt.Sprintf("%d snapshots served beyond the staleness horizon", r.StalenessViolations))
	}
	if r.Converged == 0 {
		r.Violations = append(r.Violations,
			"no live answer after the last fault window cleared: the service never converged")
	}
	if r.GoroutineGrowth > 0 {
		r.Violations = append(r.Violations,
			fmt.Sprintf("goroutine leak: %+d after teardown", r.GoroutineGrowth))
	}
	if r.HeapGrowthBytes > heapGrowthBound {
		r.Violations = append(r.Violations,
			fmt.Sprintf("heap grew %d bytes (bound %d)", r.HeapGrowthBytes, heapGrowthBound))
	}
	if r.Queries == 0 {
		r.Violations = append(r.Violations, "no queries issued")
	}
	if r.Subscribers > 0 {
		if r.SubFrames == 0 {
			r.Violations = append(r.Violations,
				"no pushed frame ever reached a subscriber: the publisher path never worked")
		}
		if r.SubConverged == 0 {
			r.Violations = append(r.Violations,
				"no subscriber saw fresh data after the last fault window cleared")
		}
	}
}
