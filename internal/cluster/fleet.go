package cluster

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/rcr"
	"repro/internal/units"
)

// Fleet is the full-stack counterpart of the soak's synthetic shards: N
// independent core.System instances — each a complete simulated node
// with its own sampler, blackboard, task runtime and power-cap
// controller — served over per-shard unix sockets exactly like the
// standalone rcrd daemon. An Aggregator pointed at Endpoints() closes
// the loop: shard meters flow up through the delta streams, per-shard
// budget shares flow back down through SetCap into each node's
// maestro.PowerCap.
//
// In this socket fleet the shards run on their own virtual clocks (time
// advances as their workloads execute), so cross-shard coordination — the
// aggregator — lives in host time and judges shard liveness by heartbeat
// movement, never by comparing virtual timestamps across nodes. It is
// what `rcrd -cluster` serves and what the wire-path tests drive;
// LockstepFleet (lockstep.go) is the same nodes on one clock, and what
// the experiments measure on.
type Fleet struct {
	dir    string
	ownDir bool
	base   time.Time // fence-lease host-time origin
	shards []*fleetShard
}

// fleetNode is one full-stack node and its fencing authority: what the
// socket fleet serves and the lockstep fleet steps.
type fleetNode struct {
	sys   *core.System
	fence *rcr.FenceGuard
}

// fleetShard is a node plus its daemon endpoint.
type fleetShard struct {
	*fleetNode
	srv      *rcr.Server
	socket   string
	serveErr chan error
}

// FleetConfig sizes a Fleet.
type FleetConfig struct {
	// Shards is the node count. Zero selects 4.
	Shards int
	// Dir hosts the shard sockets; empty selects a fresh temp dir that
	// Close removes.
	Dir string
	// Machine is each node's configuration; zero value selects M620.
	Machine machine.Config
	// Workers is each node's task-runtime worker count; zero means all
	// cores.
	Workers int
	// SamplePeriod is each node's blackboard refresh interval (virtual
	// time); zero selects the sampler default.
	SamplePeriod time.Duration
	// InitialCap is each node's starting power bound. It must be
	// positive: the cap controller is the aggregator's actuator, so every
	// shard needs one running. Zero selects a bound high enough (1 kW) to
	// be non-binding until the aggregator assigns a real share.
	InitialCap units.Watts
}

// NewFleet builds and starts every shard; on any failure the shards
// already started are torn down.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	if cfg.InitialCap <= 0 {
		cfg.InitialCap = 1000
	}
	f := &Fleet{dir: cfg.Dir, base: time.Now()}
	if f.dir == "" {
		dir, err := os.MkdirTemp("", "rcrd-fleet")
		if err != nil {
			return nil, err
		}
		f.dir, f.ownDir = dir, true
	} else if err := os.MkdirAll(f.dir, 0o755); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Shards; i++ {
		sh, err := startFleetShard(i, f.dir, cfg, f.base)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("cluster: shard %d: %w", i, err)
		}
		f.shards = append(f.shards, sh)
	}
	return f, nil
}

// newFleetNode assembles one node with its clock parked: the full stack
// under a power-cap controller, and the guard through which fenced cap
// writes land in that controller. clock is the guard's lease timebase;
// applied, when non-nil, sees every fenced cap the controller accepted.
// The caller starts the clock with release once whatever else belongs on
// the node's first instant is in place.
func newFleetNode(cfg FleetConfig, clock func() time.Duration, applied func(cap float64, fence uint64)) (n *fleetNode, release func(), err error) {
	sys, release, err := core.NewHeld(core.Options{
		Machine:      cfg.Machine,
		Workers:      cfg.Workers,
		SamplePeriod: cfg.SamplePeriod,
		PowerCap:     cfg.InitialCap,
		Warm:         true,
		Telemetry:    true,
	})
	if err != nil {
		return nil, nil, err
	}
	// The node's fencing authority: fenced cap writes land in the node's
	// own controller through the fence ratchet, and the lease state
	// mirrors into the blackboard so standby aggregators track it
	// passively through whatever carries the blackboard to them.
	pc := sys.PowerCapController()
	guard := rcr.NewFenceGuard(clock, func(cap float64, fence uint64) error {
		err := pc.SetCapFenced(units.Watts(cap), fence)
		if err == nil && applied != nil {
			applied(cap, fence)
		}
		return err
	})
	guard.Instrument(sys.Telemetry())
	guard.Bind(sys.Blackboard())
	return &fleetNode{sys: sys, fence: guard}, release, nil
}

func startFleetShard(id int, dir string, cfg FleetConfig, base time.Time) (*fleetShard, error) {
	node, release, err := newFleetNode(cfg, func() time.Duration { return time.Since(base) }, nil)
	if err != nil {
		return nil, err
	}
	defer release()
	sys := node.sys
	socket := filepath.Join(dir, fmt.Sprintf("shard-%d.sock", id))
	if err := os.Remove(socket); err != nil && !os.IsNotExist(err) {
		sys.Close()
		return nil, err
	}
	ln, err := net.Listen("unix", socket)
	if err != nil {
		sys.Close()
		return nil, err
	}
	srv := rcr.NewServer(sys.Blackboard(), sys.Machine(), ln)
	srv.Instrument(sys.Telemetry())
	srv.Pub = rcr.NewPublisher(sys.Blackboard())
	srv.Pub.Instrument(sys.Telemetry())
	sys.AttachPublisher(srv.Pub)
	srv.Fence = node.fence
	sh := &fleetShard{fleetNode: node, srv: srv, socket: socket, serveErr: make(chan error, 1)}
	go func() { sh.serveErr <- srv.Serve() }()
	return sh, nil
}

// Len returns the shard count.
func (f *Fleet) Len() int { return len(f.shards) }

// System returns shard i's full stack (to run workloads on it).
func (f *Fleet) System(i int) *core.System { return f.shards[i].sys }

// Endpoints returns the shard daemon addresses in AggregatorConfig form.
func (f *Fleet) Endpoints() []ShardEndpoint {
	eps := make([]ShardEndpoint, len(f.shards))
	for i, sh := range f.shards {
		eps[i] = ShardEndpoint{ID: i, Network: "unix", Addr: sh.socket}
	}
	return eps
}

// SetCap retunes shard i's power bound — the seam handed to
// AggregatorConfig.SetCap so the hierarchical controller enforces its
// partition through each node's own cap controller.
func (f *Fleet) SetCap(i int, cap units.Watts) error {
	if i < 0 || i >= len(f.shards) {
		return fmt.Errorf("cluster: no shard %d", i)
	}
	return f.shards[i].sys.PowerCapController().SetCap(cap)
}

// WriteCap sends a fenced cap write to shard i over its real daemon
// socket — the seam handed to HAConfig.WriteCap so redundant
// aggregators exercise the full wire path (CAP op, fence guard, node
// controller) rather than an in-process shortcut.
func (f *Fleet) WriteCap(i int, w rcr.CapWrite) (rcr.CapAck, error) {
	if i < 0 || i >= len(f.shards) {
		return rcr.CapAck{}, fmt.Errorf("cluster: no shard %d", i)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	return rcr.WriteCap(ctx, "unix", f.shards[i].socket, w)
}

// Close tears the fleet down in two phases: first every shard server
// drains concurrently (in-flight exchanges finish, subscriptions close
// cleanly), then every core.System stops. Closing a shard's system
// while other shards' servers were still draining used to kill live
// delta streams mid-exchange and show up as spurious sub_lost noise in
// the aggregator's telemetry; the barrier between the phases guarantees
// no server is serving by the time any stack goes down. Idempotent.
func (f *Fleet) Close() {
	var wg sync.WaitGroup
	for _, sh := range f.shards {
		if sh.srv == nil {
			continue
		}
		wg.Add(1)
		go func(sh *fleetShard) {
			defer wg.Done()
			_ = sh.srv.Close()
			<-sh.serveErr
		}(sh)
	}
	wg.Wait()
	for _, sh := range f.shards {
		sh.srv = nil
		sh.sys.Close()
	}
	f.shards = nil
	if f.ownDir && f.dir != "" {
		os.RemoveAll(f.dir)
		f.dir = ""
	}
}
