package resilience

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/rcr"
	"repro/internal/telemetry"
)

// ErrNoSnapshot reports a Latest read before Subscribe has applied its
// first frame.
var ErrNoSnapshot = errors.New("resilience: no snapshot yet")

// querySweeps is how many full sweeps of the replica list one Query
// makes before giving up. Between sweeps the client waits
// Backoff.Delay(sweep).
const querySweeps = 3

// QueryFunc is the transport seam: rcr.QueryContext in production, a
// scripted fake in tests and fault harnesses.
type QueryFunc func(ctx context.Context, network, addr string) (rcr.Snapshot, error)

// SubStream is one live push stream from the daemon's delta publisher —
// the subscription-mode transport seam. rcr.Subscription satisfies it.
type SubStream interface {
	// Next blocks for the next pushed frame and applies it.
	Next(ctx context.Context) error
	// Snapshot returns the stream's current materialized state.
	Snapshot() rcr.Snapshot
	// Close tears the stream down.
	Close() error
}

// SubscribeFunc opens a push stream: rcr.Subscribe in production, a
// scripted fake in tests.
type SubscribeFunc func(ctx context.Context, network, addr string) (SubStream, error)

// ClientConfig tunes a Client.
type ClientConfig struct {
	// Network and Addrs locate the daemon: Addrs is the ordered replica
	// list, primary first; a query that fails on one address fails over
	// to the next within the same sweep. At least one address is
	// required; the client keeps its own copy. Network zero selects
	// "unix".
	Network string
	Addrs   []string
	// Backoff shapes the delay between query sweeps and between
	// resubscribe attempts (deterministic jitter).
	Backoff Backoff
	// Clock stamps the client's journal records. Required.
	Clock func() time.Duration
	// Sleep, when non-nil, replaces the backoff wait — the test seam
	// that keeps retry tests instant. It should return early once ctx
	// is done; the client checks ctx after every wait either way.
	Sleep func(ctx context.Context, d time.Duration)
	// Query replaces the transport; nil selects rcr.QueryContext.
	Query QueryFunc
	// Subscribe replaces the push-stream transport used by the
	// Subscribe method; nil selects rcr.Subscribe.
	Subscribe SubscribeFunc
	// Journal receives the push stream's sub_* records.
	Journal *telemetry.Journal
	// Telemetry receives the client's resilience_client_* instruments.
	Telemetry *telemetry.Registry
}

// clientMetrics is the client's instrument set.
type clientMetrics struct {
	queries    *telemetry.Counter
	retries    *telemetry.Counter
	failovers  *telemetry.Counter
	subFrames  *telemetry.Counter // frames applied in subscription mode
	resubs     *telemetry.Counter // streams re-opened after a loss
	gapResyncs *telemetry.Counter // in-stream delta-gap episodes ridden out
}

// Client is a self-healing rcrd client. Query retries with
// deterministic-jitter exponential backoff across an ordered replica
// list; Subscribe follows the daemon's push stream, resubscribing after
// every loss, and Latest serves the newest frame it applied. All
// methods are safe for concurrent use.
type Client struct {
	cfg ClientConfig
	met *clientMetrics

	mu     sync.Mutex
	latest rcr.Snapshot
	have   bool
}

// NewClient builds a client; ClientConfig.Clock and at least one address
// are required.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Clock == nil {
		return nil, errors.New("resilience: client requires a clock")
	}
	if len(cfg.Addrs) == 0 {
		return nil, errors.New("resilience: client requires at least one address")
	}
	if cfg.Network == "" {
		cfg.Network = "unix"
	}
	if cfg.Sleep == nil {
		cfg.Sleep = sleep
	}
	if cfg.Query == nil {
		cfg.Query = rcr.QueryContext
	}
	if cfg.Subscribe == nil {
		cfg.Subscribe = func(ctx context.Context, network, addr string) (SubStream, error) {
			return rcr.Subscribe(ctx, network, addr)
		}
	}
	cfg.Addrs = append([]string(nil), cfg.Addrs...)
	reg := cfg.Telemetry
	return &Client{cfg: cfg, met: &clientMetrics{
		queries:    reg.Counter("resilience_client_queries_total"),
		retries:    reg.Counter("resilience_client_retries_total"),
		failovers:  reg.Counter("resilience_client_failovers_total"),
		subFrames:  reg.Counter("resilience_client_sub_frames_total"),
		resubs:     reg.Counter("resilience_client_resubscribes_total"),
		gapResyncs: reg.Counter("resilience_client_gap_resyncs_total"),
	}}, nil
}

// sleep is the default backoff wait: d, or until ctx is done.
func sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// Query fetches a live snapshot. A query that fails on every address in
// every sweep returns the last transport error; a cancelled ctx returns
// ctx.Err().
func (c *Client) Query(ctx context.Context) (rcr.Snapshot, error) {
	c.met.queries.Inc()
	var lastErr error
	for sweep := 0; sweep < querySweeps; sweep++ {
		if sweep > 0 {
			c.met.retries.Inc()
			c.cfg.Sleep(ctx, c.cfg.Backoff.Delay(sweep-1))
		}
		for i, addr := range c.cfg.Addrs {
			if err := ctx.Err(); err != nil {
				return rcr.Snapshot{}, err
			}
			snap, err := c.cfg.Query(ctx, c.cfg.Network, addr)
			if err == nil {
				if i > 0 {
					c.met.failovers.Inc()
				}
				return snap, nil
			}
			lastErr = err
		}
	}
	return rcr.Snapshot{}, lastErr
}

// Subscribe runs the client in push mode until ctx is cancelled: it
// holds one subscription to the daemon's delta publisher and keeps
// every pushed frame — including heartbeats, which prove liveness — as
// the snapshot Latest serves, with no per-read round trip. A lost
// stream is journaled (KindSubLost) and replaced with replica failover
// and the client's backoff; the replaced stream resumes from a full
// frame, and the recovery is journaled (KindSubResumed). During an
// outage Latest keeps serving the last applied frame; its heartbeat
// stops moving, which is how the reader tells. Returns ctx.Err() once
// cancelled, including from a backoff wait.
func (c *Client) Subscribe(ctx context.Context) error {
	down := false // an outage is in progress (journaled once)
	streak := 0   // consecutive failed (re)subscribe attempts
	hadStream := false
	for {
		if streak > 0 {
			c.cfg.Sleep(ctx, c.cfg.Backoff.Delay(streak-1))
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		addr := c.cfg.Addrs[streak%len(c.cfg.Addrs)]
		stream, err := c.cfg.Subscribe(ctx, c.cfg.Network, addr)
		if err != nil {
			c.subLost(&down, fmt.Sprintf("subscribe %s: %v", addr, err))
			streak++
			continue
		}
		streak = 0
		if hadStream {
			c.met.resubs.Inc()
		}
		hadStream = true
		inGap := false // a delta-gap episode is in progress (journaled once)
		for {
			if err = stream.Next(ctx); err != nil {
				if errors.Is(err, rcr.ErrDeltaGap) {
					// The server resyncs a gapped stream with a full
					// frame; the state is unchanged, just keep reading.
					// Consecutive gapped deltas (everything queued after
					// the hole) are one episode, journaled and counted
					// once so the record matches resync frames 1:1.
					if !inGap {
						inGap = true
						c.met.gapResyncs.Inc()
						c.journalSub(telemetry.KindSubGapResync, addr)
					}
					continue
				}
				break
			}
			inGap = false
			if down {
				down = false
				c.journalSub(telemetry.KindSubResumed, addr)
			}
			c.met.subFrames.Inc()
			snap := stream.Snapshot()
			c.mu.Lock()
			c.latest, c.have = snap, true
			c.mu.Unlock()
		}
		stream.Close()
		if ctx.Err() != nil {
			return ctx.Err()
		}
		c.subLost(&down, fmt.Sprintf("stream %s: %v", addr, err))
		streak = 1
	}
}

// Latest serves the newest snapshot Subscribe applied, and ErrNoSnapshot
// before the first. It never blocks and never touches the network.
func (c *Client) Latest() (rcr.Snapshot, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.have {
		return rcr.Snapshot{}, ErrNoSnapshot
	}
	return c.latest, nil
}

// subLost journals the start of an outage exactly once.
func (c *Client) subLost(down *bool, detail string) {
	if *down {
		return
	}
	*down = true
	c.journalSub(telemetry.KindSubLost, detail)
}

func (c *Client) journalSub(kind, detail string) {
	c.cfg.Journal.Record(telemetry.Decision{
		T:      c.cfg.Clock(),
		Kind:   kind,
		Detail: detail,
	})
}
