// Command rcrd is the standalone Resource Centric Reflection daemon: it
// serves blackboard snapshots over a Unix socket — the IPC stand-in for
// the real RCRdaemon's shared-memory region (paper §II-B) — while a
// background load runs on the simulated machine. A client mode queries a
// running daemon and prints the hierarchy.
//
// Usage:
//
//	rcrd -socket /tmp/rcrd.sock -load lulesh -duration 30s   # serve
//	rcrd -socket /tmp/rcrd.sock -query                       # query
//	rcrd -socket /tmp/rcrd.sock -subscribe -duration 5s      # follow the delta stream
//	rcrd -socket /tmp/rcrd.sock -metrics                     # telemetry text
//
// Cluster mode runs an N-shard fleet — each shard a full daemon on its
// own socket under -cluster-dir — with a hierarchical controller
// dividing -global-cap watts across the shards by scaling headroom
// (internal/cluster); -load becomes a comma-separated mix cycled across
// shards:
//
//	rcrd -cluster 4 -global-cap 200 -load lulesh,nqueens -duration 30s
//
// Elastic membership: -initial seeds a smaller fleet and scheduled
// admin ops grow, drain, and shrink it mid-run (docs/cluster.md
// §Membership):
//
//	rcrd -cluster 4 -initial 2 -join "2@5s,3@8s" -drain "0@20s" -decommission "0@25s"
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/rcr"
	"repro/internal/resilience"
	"repro/internal/telemetry"
	"repro/internal/units"
	"repro/internal/workloads"
	"repro/internal/workloads/suite"
)

// restoreFreshness bounds how old a state snapshot may be and still be
// restored on startup; older files are rejected as stale (the guard
// quarantines and history they describe are ancient) and the daemon
// cold-starts instead.
const restoreFreshness = time.Minute

// serveConfig collects the daemon-mode settings.
type serveConfig struct {
	socket       string
	load         string
	duration     time.Duration
	statePath    string
	drainTimeout time.Duration
	maxConns     int
	shed         bool
}

func main() {
	var (
		socket     = flag.String("socket", "/tmp/rcrd.sock", "unix socket path")
		query      = flag.Bool("query", false, "query a running daemon instead of serving")
		subCmd     = flag.Bool("subscribe", false, "follow a running daemon's delta stream for -duration instead of serving")
		metrics    = flag.Bool("metrics", false, "query a running daemon's telemetry (/metrics-style text)")
		asJSON     = flag.Bool("json", false, "with -query, print the snapshot as JSON")
		load       = flag.String("load", "lulesh", "benchmark to loop as background load while serving")
		duration   = flag.Duration("duration", 30*time.Second, "how long (host time) to serve before exiting")
		state      = flag.String("state", "", "crash-safe state file: restored on start (if fresh), checkpointed while serving, written on shutdown")
		drainTO    = flag.Duration("drain-timeout", time.Second, "how long shutdown lets in-flight queries finish before cutting them off")
		maxConns   = flag.Int("max-conns", 0, "cap on concurrently served connections (0 = server default)")
		shed       = flag.Bool("shed", true, "answer overload with a cheap BUSY response instead of queueing clients")
		clusterN   = flag.Int("cluster", 0, "run an N-shard fleet under a hierarchical global power cap instead of a single daemon")
		globalCap  = flag.Float64("global-cap", 0, "fleet-wide power budget in watts (cluster mode; 0 = 50 W per shard)")
		clusterDir = flag.String("cluster-dir", "", "directory for the fleet's shard sockets (cluster mode; empty = a temp dir)")
		aggN       = flag.Int("aggregators", 1, "aggregator replicas in cluster mode; ≥2 runs the HA control plane (lease-based leader, fenced cap writes, hot standbys)")
		initialN   = flag.Int("initial", 0, "initial fleet size in cluster mode (0 = all shards); the rest join later via -join")
		joinSpec   = flag.String("join", "", "scheduled shard joins, \"id@offset,...\" (cluster mode; e.g. \"3@10s\")")
		drainSpec  = flag.String("drain", "", "scheduled shard drains, \"id@offset,...\" (cluster mode)")
		decomSpec  = flag.String("decommission", "", "scheduled shard decommissions, \"id@offset,...\" (cluster mode)")
	)
	flag.Parse()

	if *clusterN > 0 {
		var ops []memberOp
		for _, src := range []struct {
			kind memberOpKind
			spec string
		}{{opJoin, *joinSpec}, {opDrain, *drainSpec}, {opDecommission, *decomSpec}} {
			parsed, err := parseMemberOps(src.kind, src.spec, *clusterN)
			if err != nil {
				fmt.Fprintln(os.Stderr, "rcrd:", err)
				os.Exit(2)
			}
			ops = append(ops, parsed...)
		}
		sortOps(ops)
		if *initialN < 0 || *initialN > *clusterN {
			fmt.Fprintf(os.Stderr, "rcrd: -initial %d out of range [0, %d]\n", *initialN, *clusterN)
			os.Exit(2)
		}
		if err := serveCluster(clusterServeConfig{
			shards:      *clusterN,
			dir:         *clusterDir,
			loads:       strings.Split(*load, ","),
			global:      units.Watts(*globalCap),
			duration:    *duration,
			aggregators: *aggN,
			initial:     *initialN,
			ops:         ops,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "rcrd:", err)
			os.Exit(1)
		}
		return
	}

	if *metrics {
		if err := runMetricsQuery(*socket); err != nil {
			fmt.Fprintln(os.Stderr, "rcrd:", err)
			os.Exit(1)
		}
		return
	}
	if *query {
		if err := runQuery(*socket, *asJSON); err != nil {
			fmt.Fprintln(os.Stderr, "rcrd:", err)
			os.Exit(1)
		}
		return
	}
	if *subCmd {
		if err := runSubscribe(*socket, *duration); err != nil {
			fmt.Fprintln(os.Stderr, "rcrd:", err)
			os.Exit(1)
		}
		return
	}
	if err := serve(serveConfig{
		socket:       *socket,
		load:         *load,
		duration:     *duration,
		statePath:    *state,
		drainTimeout: *drainTO,
		maxConns:     *maxConns,
		shed:         *shed,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "rcrd:", err)
		os.Exit(1)
	}
}

func runMetricsQuery(socket string) error {
	ctx, cancel := context.WithTimeout(context.Background(), rcr.DefaultQueryTimeout)
	defer cancel()
	text, err := rcr.QueryMetrics(ctx, "unix", socket)
	if err != nil {
		return err
	}
	if text == "" {
		return fmt.Errorf("daemon at %s is not instrumented", socket)
	}
	fmt.Print(text)
	return nil
}

func runQuery(socket string, asJSON bool) error {
	snap, err := rcr.Query("unix", socket)
	if err != nil {
		return err
	}
	if asJSON {
		return snap.WriteJSON(os.Stdout)
	}
	fmt.Printf("snapshot at t=%v\n", snap.Now)
	printMeters("system", snap.System)
	for s, sock := range snap.Sockets {
		printMeters(fmt.Sprintf("socket %d", s), sock.Meters)
		for c, coreMeters := range sock.Cores {
			if len(coreMeters) > 0 {
				printMeters(fmt.Sprintf("  core %d", c), coreMeters)
			}
		}
	}
	return nil
}

// runSubscribe follows the daemon's delta stream for dur, printing one
// line per applied frame. Ctrl-C or the duration ends it cleanly; a
// resync gap is absorbed (the server follows it with a full frame).
func runSubscribe(socket string, dur time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), dur)
	defer cancel()
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	go func() {
		select {
		case <-sigCh:
			cancel()
		case <-ctx.Done():
		}
	}()

	sub, err := rcr.Subscribe(ctx, "unix", socket)
	if err != nil {
		return err
	}
	defer sub.Close()
	frames := 0
	for {
		if err := sub.Next(ctx); err != nil {
			if errors.Is(err, rcr.ErrDeltaGap) {
				fmt.Println("rcrd: stream gap, awaiting resync")
				continue
			}
			if ctx.Err() != nil {
				fmt.Printf("rcrd: stream closed after %d frames\n", frames)
				return nil
			}
			return err
		}
		frames++
		snap := sub.Snapshot()
		node := 0.0
		for _, sock := range snap.Sockets {
			for _, m := range sock.Meters {
				if m.Name == rcr.MeterPower {
					node += m.Value
				}
			}
		}
		st := sub.State()
		fmt.Printf("t=%-12v ver=%-8d node=%7.1f W  (%d sockets, %d meters)\n",
			snap.Now, st.Ver, node, len(snap.Sockets), len(st.Names))
	}
}

func printMeters(label string, ms []rcr.MeterValue) {
	if len(ms) == 0 {
		return
	}
	fmt.Printf("%s:\n", label)
	for _, m := range ms {
		fmt.Printf("  %-10s %14.3f  (updated %v)\n", m.Name, m.Value, m.Updated)
	}
}

// restoreState loads a prior state snapshot into sys, journaling the
// outcome. Corrupt or stale files are rejected — the daemon cold-starts
// rather than trust a torn or ancient snapshot — and a missing file is
// simply the first boot.
func restoreState(sys *core.System, path string) {
	st, err := resilience.LoadState(path, restoreFreshness, time.Now())
	jnl := sys.Journal()
	now := sys.Machine().Now()
	switch {
	case err == nil:
		sys.RestoreCheckpoint(st)
		jnl.Record(telemetry.Decision{T: now, Kind: telemetry.KindStateRestored, Detail: "fresh"})
		fmt.Printf("rcrd: restored state from %s (saved %v ago)\n",
			path, time.Since(time.Unix(0, st.SavedAtUnixNano)).Round(time.Millisecond))
	case errors.Is(err, os.ErrNotExist):
		// First boot: nothing to restore.
	case errors.Is(err, resilience.ErrStateCorrupt):
		jnl.Record(telemetry.Decision{T: now, Kind: telemetry.KindStateRejected, Detail: "corrupt"})
		fmt.Fprintf(os.Stderr, "rcrd: state file %s rejected (%v); cold start\n", path, err)
	case errors.Is(err, resilience.ErrStateStale):
		jnl.Record(telemetry.Decision{T: now, Kind: telemetry.KindStateRejected, Detail: "stale"})
		fmt.Fprintf(os.Stderr, "rcrd: state file %s rejected (%v); cold start\n", path, err)
	default:
		jnl.Record(telemetry.Decision{T: now, Kind: telemetry.KindStateRejected, Detail: "unreadable"})
		fmt.Fprintf(os.Stderr, "rcrd: state file %s unreadable (%v); cold start\n", path, err)
	}
}

func serve(cfg serveConfig) error {
	if err := os.Remove(cfg.socket); err != nil && !os.IsNotExist(err) {
		return err
	}
	// A long-lived daemon runs fault-tolerant: guarded RAPL reads and a
	// supervised sampler (docs/robustness.md). With a state file it also
	// records history, so restarts resume the time series.
	sys, err := core.New(core.Options{
		Warm:          true,
		Telemetry:     true,
		FaultTolerant: true,
		RecordHistory: cfg.statePath != "",
	})
	if err != nil {
		return err
	}
	defer sys.Close()

	// Crash-safe state: restore a fresh prior snapshot (guard quarantine
	// survives a restart; corrupt or stale files are rejected), then keep
	// checkpointing while serving.
	var keeper *resilience.Keeper
	if cfg.statePath != "" {
		restoreState(sys, cfg.statePath)
		keeper, err = resilience.StartKeeper(sys.Machine(), cfg.statePath, 0, sys.Checkpoint, sys.Telemetry(), sys.Journal())
		if err != nil {
			return err
		}
		defer keeper.Stop()
	}

	ln, err := net.Listen("unix", cfg.socket)
	if err != nil {
		return err
	}
	srv := rcr.NewServer(sys.Blackboard(), sys.Machine(), ln)
	srv.MaxConns = cfg.maxConns
	srv.Shed = cfg.shed
	srv.DrainTimeout = cfg.drainTimeout
	srv.Instrument(sys.Telemetry())
	// Delta publisher: SUB clients get coalesced frames on the sampler
	// tick cadence; the attachment survives supervised sampler restarts.
	srv.Pub = rcr.NewPublisher(sys.Blackboard())
	srv.Pub.Instrument(sys.Telemetry())
	sys.AttachPublisher(srv.Pub)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()
	fmt.Printf("rcrd: serving %s for %v with background load %q\n", cfg.socket, cfg.duration, cfg.load)

	// Loop the load until the serving window closes.
	loadErr := make(chan error, 1)
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				loadErr <- nil
				return
			default:
			}
			wl, err := suite.New(cfg.load)
			if err != nil {
				loadErr <- err
				return
			}
			if err := wl.Prepare(workloads.Params{MachineConfig: sys.Machine().Config()}); err != nil {
				loadErr <- err
				return
			}
			if _, err := sys.RunWorkload(wl); err != nil {
				loadErr <- err
				return
			}
		}
	}()

	// SIGTERM/SIGINT begin the same graceful drain the duration timer
	// does: stop the load, let in-flight queries finish within the drain
	// timeout, and write a final state snapshot.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigCh)

	var firstErr error
	select {
	case firstErr = <-loadErr:
	case sig := <-sigCh:
		fmt.Printf("rcrd: %v: draining (timeout %v)\n", sig, cfg.drainTimeout)
		close(stop)
		firstErr = <-loadErr // let the in-flight run finish cleanly
	case <-time.After(cfg.duration):
		close(stop)
		firstErr = <-loadErr
	}
	if err := srv.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := <-serveErr; err != nil && firstErr == nil {
		firstErr = err
	}
	if keeper != nil {
		keeper.Stop() // final synchronous snapshot (idempotent with the defer)
		if err := keeper.LastErr(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// clusterServeConfig collects the cluster-mode settings.
type clusterServeConfig struct {
	shards      int
	dir         string
	loads       []string
	global      units.Watts
	duration    time.Duration
	aggregators int
	// initial is the seeded fleet size (0 = all shards Active from the
	// start); ops are the scheduled -join/-drain/-decommission admin
	// operations, sorted by fire time.
	initial int
	ops     []memberOp
}

// serveCluster runs the fleet: N full daemons on their own sockets, a
// per-shard background load cycled from the -load mix, and the
// hierarchical aggregator re-partitioning the global budget while a
// once-a-second status line shows the fleet state.
func serveCluster(cfg clusterServeConfig) error {
	if cfg.global <= 0 {
		cfg.global = units.Watts(50 * float64(cfg.shards))
	}
	fleet, err := cluster.NewFleet(cluster.FleetConfig{Shards: cfg.shards, Dir: cfg.dir})
	if err != nil {
		return err
	}
	defer fleet.Close()

	if cfg.aggregators <= 0 {
		cfg.aggregators = 1
	}
	reg := telemetry.NewRegistry()
	t0 := time.Now()
	journal := telemetry.NewJournal(1<<10, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Elastic fleet: with -initial/-join/-drain/-decommission the
	// controllers steer a Membership registry instead of the static shard
	// list. Each replica owns its own registry — the operator's admin op
	// is broadcast to all of them, the same way a config push reaches
	// every controller, so a promoted standby steers the same fleet.
	elastic := len(cfg.ops) > 0 || (cfg.initial > 0 && cfg.initial < cfg.shards)
	endpoints := fleet.Endpoints()
	var registries []*cluster.Membership
	if elastic {
		seed := endpoints
		if cfg.initial > 0 {
			seed = endpoints[:cfg.initial]
		}
		registries = make([]*cluster.Membership, cfg.aggregators)
		for i := range registries {
			m, err := cluster.NewMembership(seed, func() time.Duration { return time.Since(t0) })
			if err != nil {
				return err
			}
			m.Journal(journal)
			if i == 0 {
				m.Instrument(reg)
			}
			registries[i] = m
		}
	}
	aggs := make([]*cluster.Aggregator, cfg.aggregators)
	aggDone := make(chan error, cfg.aggregators)
	for i := range aggs {
		acfg := cluster.AggregatorConfig{
			Shards:        fleet.Endpoints(),
			Global:        cfg.global,
			Period:        50 * time.Millisecond,
			HealthHorizon: 500 * time.Millisecond,
			Clock:         func() time.Duration { return time.Since(t0) },
			SetCap:        fleet.SetCap,
			Telemetry:     reg,
			Journal:       journal,
		}
		if elastic {
			acfg.Members = registries[i]
		}
		if cfg.aggregators > 1 {
			// Redundant control plane: every replica writes over the
			// fenced wire path. The lease must outrun the cap write's tail
			// on a loaded host — a lease shorter than the tail reads its
			// own slow writes as a dead leader and churns elections. The
			// socket dial dominates that tail; kept-alive connections make
			// it a first-write cost, but a fresh leader's first writes are
			// exactly the ones that must land inside one lease — hence
			// seconds here versus the soak's tens of milliseconds over
			// in-process guards (docs/cluster.md §HA).
			acfg.SetCap = nil
			acfg.HA = &cluster.HAConfig{
				ID:         uint32(i + 1),
				LeaseTTL:   2 * time.Second,
				Grace:      500 * time.Millisecond,
				JitterSeed: uint64(t0.UnixNano()) ^ uint64(i+1)<<40,
				WriteCap:   fleet.WriteCap,
			}
		}
		agg, err := cluster.NewAggregator(acfg)
		if err != nil {
			return err
		}
		aggs[i] = agg
		go func(a *cluster.Aggregator) { aggDone <- a.Run(ctx) }(agg)
	}
	// fleetStatus picks the ruling replica's view (any replica's when no
	// leader is currently elected, so shard health stays visible).
	fleetStatus := func() cluster.AggregatorStatus {
		st := aggs[0].Status()
		for _, a := range aggs[1:] {
			if s := a.Status(); s.Leader {
				st = s
			}
		}
		return st
	}
	if cfg.aggregators > 1 {
		fmt.Printf("rcrd: cluster of %d shards under a %.0f W global cap, %d HA aggregators, for %v (mix %v)\n",
			cfg.shards, float64(cfg.global), cfg.aggregators, cfg.duration, cfg.loads)
	} else {
		fmt.Printf("rcrd: cluster of %d shards under a %.0f W global cap for %v (mix %v)\n",
			cfg.shards, float64(cfg.global), cfg.duration, cfg.loads)
	}

	// One looping background load per shard, cycled from the mix.
	stop := make(chan struct{})

	// Admin op scheduler: fire each -join/-drain/-decommission at its
	// offset, broadcasting to every replica's registry. Only the first
	// replica's outcome is printed — they all see the same op stream.
	if len(cfg.ops) > 0 {
		go func() {
			for _, op := range cfg.ops {
				wait := op.at - time.Since(t0)
				if wait > 0 {
					select {
					case <-stop:
						return
					case <-time.After(wait):
					}
				}
				for ri, m := range registries {
					line := applyMemberOp(op, m, endpoints)
					if ri == 0 {
						fmt.Println(line)
					}
				}
			}
		}()
	}
	loadErrs := make([]error, cfg.shards)
	var wg sync.WaitGroup
	for i := 0; i < cfg.shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := strings.TrimSpace(cfg.loads[i%len(cfg.loads)])
			for {
				select {
				case <-stop:
					return
				default:
				}
				wl, err := suite.New(name)
				if err == nil {
					err = wl.Prepare(workloads.Params{MachineConfig: fleet.System(i).Machine().Config()})
				}
				if err == nil {
					_, err = fleet.System(i).RunWorkload(wl)
				}
				if err != nil {
					loadErrs[i] = err
					return
				}
			}
		}(i)
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	status := time.NewTicker(time.Second)
	defer status.Stop()
	end := time.After(cfg.duration)
loop:
	for {
		select {
		case <-status.C:
			st := fleetStatus()
			member := ""
			if elastic {
				member = fmt.Sprintf(", members %d (%d joining, %d draining), epoch %d",
					int(reg.Gauge("cluster_members").Value()), st.Joining, st.Draining, st.MembershipEpoch)
			}
			if cfg.aggregators > 1 {
				fmt.Printf("rcrd: healthy %d/%d, Σcaps %.1f/%.0f W, %d repartitions, %d shard restarts, fence %d, %d elections%s\n",
					st.Healthy, cfg.shards, float64(st.CapsSum), float64(cfg.global),
					reg.Counter("cluster_repartitions_total").Value(), st.ShardRestarts,
					st.Fence, reg.Counter("cluster_leader_elections_total").Value(), member)
			} else {
				fmt.Printf("rcrd: healthy %d/%d, Σcaps %.1f/%.0f W, %d repartitions, %d shard restarts%s\n",
					st.Healthy, cfg.shards, float64(st.CapsSum), float64(cfg.global),
					reg.Counter("cluster_repartitions_total").Value(), st.ShardRestarts, member)
			}
		case sig := <-sigCh:
			fmt.Printf("rcrd: %v: stopping fleet\n", sig)
			break loop
		case <-end:
			break loop
		}
	}
	close(stop)
	wg.Wait()
	cancel()
	for range aggs {
		<-aggDone
	}
	st := fleetStatus()
	fmt.Printf("rcrd: final caps (W):")
	for _, c := range st.Caps {
		fmt.Printf(" %.1f", float64(c))
	}
	fmt.Println()
	for i, err := range loadErrs {
		if err != nil {
			return fmt.Errorf("shard %d load: %w", i, err)
		}
	}
	return nil
}
