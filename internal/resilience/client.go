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

// ErrStaleCache reports a query that could not be served live and whose
// last-known-good snapshot was older than the staleness horizon. The
// client never silently returns stale data — past the horizon the caller
// gets this error (wrapping the live failure) and must degrade itself,
// exactly as the maestro watchdog does on stale meters.
var ErrStaleCache = errors.New("resilience: cached snapshot beyond staleness horizon")

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
	// to the next within the same attempt. At least one address is
	// required; the client keeps its own copy. Network zero selects
	// "unix".
	Network string
	Addrs   []string
	// Attempts is how many full sweeps of the replica list one Query
	// makes before giving up; zero selects 3. Between sweeps the client
	// sleeps Backoff.Delay(sweep).
	Attempts int
	// Backoff shapes the inter-attempt delay (deterministic jitter).
	Backoff Backoff
	// Breaker tunes the circuit breaker; its Clock/Journal/Telemetry
	// default to the client's.
	Breaker BreakerConfig
	// StalenessHorizon bounds how old a cached snapshot may be and still
	// be served when live queries fail. Zero selects 1 s; negative
	// disables the cache entirely.
	StalenessHorizon time.Duration
	// Clock supplies the time base for cache age and breaker cooldowns.
	// Required.
	Clock func() time.Duration
	// Sleep, when non-nil, replaces time.Sleep for inter-attempt delays —
	// the test seam that keeps retry tests instant.
	Sleep func(time.Duration)
	// Query replaces the transport; nil selects rcr.QueryContext.
	Query QueryFunc
	// Subscribe replaces the push-stream transport used by the
	// Subscribe method; nil selects rcr.Subscribe.
	Subscribe SubscribeFunc
	// Journal receives breaker-transition records.
	Journal *telemetry.Journal
	// Telemetry receives the client's resilience_client_* instruments.
	Telemetry *telemetry.Registry
}

// clientMetrics is the client's instrument set.
type clientMetrics struct {
	queries    *telemetry.Counter
	retries    *telemetry.Counter
	failovers  *telemetry.Counter
	cacheHits  *telemetry.Counter
	staleErrs  *telemetry.Counter
	rejected   *telemetry.Counter // refused by the open breaker
	subFrames  *telemetry.Counter // frames applied in subscription mode
	resubs     *telemetry.Counter // streams re-opened after a loss
	gapResyncs *telemetry.Counter // in-stream delta-gap episodes ridden out
}

// Client is a self-healing rcrd client: every Query retries with
// deterministic-jitter exponential backoff across an ordered replica
// list, a circuit breaker stops hammering a dead daemon, and a bounded
// last-known-good cache bridges short outages — but only within
// StalenessHorizon, past which the failure is surfaced. All methods are
// safe for concurrent use.
type Client struct {
	cfg     ClientConfig
	breaker *Breaker
	met     *clientMetrics

	cacheMu   sync.Mutex
	cache     rcr.Snapshot
	cacheAt   time.Duration
	haveCache bool
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
	if cfg.Attempts <= 0 {
		cfg.Attempts = 3
	}
	if cfg.StalenessHorizon == 0 {
		cfg.StalenessHorizon = time.Second
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	if cfg.Query == nil {
		cfg.Query = rcr.QueryContext
	}
	if cfg.Subscribe == nil {
		cfg.Subscribe = func(ctx context.Context, network, addr string) (SubStream, error) {
			return rcr.Subscribe(ctx, network, addr)
		}
	}
	bcfg := cfg.Breaker
	if bcfg.Clock == nil {
		bcfg.Clock = cfg.Clock
	}
	if bcfg.Journal == nil {
		bcfg.Journal = cfg.Journal
	}
	if bcfg.Telemetry == nil {
		bcfg.Telemetry = cfg.Telemetry
	}
	br, err := NewBreaker(bcfg)
	if err != nil {
		return nil, err
	}
	cfg.Addrs = append([]string(nil), cfg.Addrs...)
	reg := cfg.Telemetry
	return &Client{cfg: cfg, breaker: br, met: &clientMetrics{
		queries:    reg.Counter("resilience_client_queries_total"),
		retries:    reg.Counter("resilience_client_retries_total"),
		failovers:  reg.Counter("resilience_client_failovers_total"),
		cacheHits:  reg.Counter("resilience_client_cache_served_total"),
		staleErrs:  reg.Counter("resilience_client_stale_errors_total"),
		rejected:   reg.Counter("resilience_client_breaker_rejects_total"),
		subFrames:  reg.Counter("resilience_client_sub_frames_total"),
		resubs:     reg.Counter("resilience_client_resubscribes_total"),
		gapResyncs: reg.Counter("resilience_client_gap_resyncs_total"),
	}}, nil
}

// Breaker exposes the client's circuit breaker for inspection.
func (c *Client) Breaker() *Breaker { return c.breaker }

// Query fetches a snapshot. Live success refreshes the cache and the
// breaker; total failure (or an open breaker) is bridged by the cache
// when it is fresh enough, and surfaced as an error otherwise. The
// returned error wraps both the decision (ErrBreakerOpen / ErrStaleCache)
// and the last transport failure, so errors.Is works on either.
func (c *Client) Query(ctx context.Context) (rcr.Snapshot, error) {
	c.met.queries.Inc()
	if err := c.breaker.Allow(); err != nil {
		c.met.rejected.Inc()
		return c.fromCache(err)
	}
	var lastErr error
sweeps:
	for sweep := 0; sweep < c.cfg.Attempts; sweep++ {
		if sweep > 0 {
			c.met.retries.Inc()
			c.cfg.Sleep(c.cfg.Backoff.Delay(sweep - 1))
		}
		for i, addr := range c.cfg.Addrs {
			if ctx.Err() != nil {
				lastErr = ctx.Err()
				break sweeps
			}
			snap, err := c.cfg.Query(ctx, c.cfg.Network, addr)
			if err == nil {
				if i > 0 {
					c.met.failovers.Inc()
				}
				c.breaker.Success()
				c.store(snap)
				return snap, nil
			}
			lastErr = err
		}
	}
	// The whole Query failed: one breaker failure per Query, so the
	// FailureThreshold counts outages in poll units, not per-dial.
	c.breaker.Failure()
	return c.fromCache(lastErr)
}

// store refreshes the last-known-good cache.
func (c *Client) store(snap rcr.Snapshot) {
	if c.cfg.StalenessHorizon < 0 {
		return
	}
	now := c.cfg.Clock()
	c.cacheMu.Lock()
	c.cache = snap
	c.cacheAt = now
	c.haveCache = true
	c.cacheMu.Unlock()
}

// fromCache serves the last-known-good snapshot if it is within the
// staleness horizon, and otherwise surfaces cause wrapped in
// ErrStaleCache.
func (c *Client) fromCache(cause error) (rcr.Snapshot, error) {
	now := c.cfg.Clock()
	c.cacheMu.Lock()
	snap, at, have := c.cache, c.cacheAt, c.haveCache
	c.cacheMu.Unlock()
	if have && c.cfg.StalenessHorizon >= 0 && now-at <= c.cfg.StalenessHorizon {
		c.met.cacheHits.Inc()
		return snap, nil
	}
	c.met.staleErrs.Inc()
	if cause == nil {
		return rcr.Snapshot{}, ErrStaleCache
	}
	return rcr.Snapshot{}, fmt.Errorf("%w (last failure: %w)", ErrStaleCache, cause)
}

// Subscribe runs the client in push mode until ctx is cancelled: it
// holds one subscription to the daemon's delta publisher and feeds
// every pushed frame — including heartbeats, which prove liveness —
// into the last-known-good cache, so Latest serves current data with no
// per-read round trip. A lost stream is journaled (KindSubLost) and
// replaced with replica failover and the client's backoff; the replaced
// stream resumes from a full frame, and the recovery is journaled
// (KindSubResumed). During an outage Latest keeps serving the cache
// until the staleness horizon passes, exactly like Query's degraded
// path. Returns ctx.Err() once cancelled.
func (c *Client) Subscribe(ctx context.Context) error {
	down := false // an outage is in progress (journaled once)
	streak := 0   // consecutive failed (re)subscribe attempts
	hadStream := false
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if streak > 0 {
			c.cfg.Sleep(c.cfg.Backoff.Delay(streak - 1))
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
			c.store(stream.Snapshot())
		}
		stream.Close()
		if ctx.Err() != nil {
			return ctx.Err()
		}
		c.subLost(&down, fmt.Sprintf("stream %s: %v", addr, err))
		streak = 1
	}
}

// Latest serves the newest snapshot pushed by Subscribe (or cached by
// Query) when it is within the staleness horizon, and ErrStaleCache
// otherwise. It never blocks and never touches the network.
func (c *Client) Latest() (rcr.Snapshot, error) {
	return c.fromCache(nil)
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
