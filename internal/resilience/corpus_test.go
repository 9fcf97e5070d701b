package resilience_test

import (
	"context"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"io"
	"reflect"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/rcr"
	"repro/internal/resilience"
	"repro/internal/resilience/leak"
	"repro/internal/telemetry"
)

// The client corpus: the self-healing client under seeded service-fault
// schedules, in virtual time, through the seams ClientConfig exports —
// Clock, Sleep, Query and Subscribe. Each seed models two rcrd replicas
// as pure functions of virtual time and a faults.GenerateServiceSchedule
// each, and runs four clients against them: a poller and a push
// subscriber on the primary alone, and one of each with the replica to
// fail over to. A client is sequential and the daemons are functions of
// time, so each client runs to completion on its own clock, one after
// the other: a seed is a pure function of its number, and a failing seed
// is a finding, never host noise.
//
// What a fault does to the modeled daemon:
//
//   - ServerRestart: down for the window (exchanges refused, streams
//     ended), then a fresh incarnation whose heartbeat restarts.
//   - ConnReset: every exchange fails and every open stream is killed.
//   - SlowLoris: loris peers hold every worker until the server's read
//     deadline frees one, so each exchange waits that long first. A live
//     stream is throttled to a crawl: its backlog overflows, the
//     publisher drops the oldest deltas, and every frame in the window
//     arrives as a delta gap until the first one after it resyncs.
const (
	corpusSeeds     = 2048
	corpusSchedule  = 240 * time.Millisecond // schedule horizon: every window closes by 192 ms
	corpusBudget    = 300 * time.Millisecond // each client's run, leaving a ≥ 108 ms convergence tail
	corpusFeed      = 2 * time.Millisecond   // the daemon's feed and publisher tick
	corpusPoll      = 2 * time.Millisecond   // a poller's cadence
	corpusReadLimit = 100 * time.Millisecond // the daemon server's per-request read bound (rcr.Server.readTimeout in its tests)
	corpusJournal   = 256                    // records a seed's journal holds
)

var (
	errRefused = errors.New("dial: connection refused")
	errReset   = errors.New("read: connection reset by peer")
	errReread  = errors.New("Subscribe read on after its stream failed")
)

// vclock is one client's virtual time: it moves only when the client
// sleeps or the daemon makes it wait. A subscriber's clock calls onTick
// at every feed tick it crosses.
type vclock struct {
	at     time.Duration
	onTick func()
}

func (c *vclock) now() time.Duration { return c.at }

func (c *vclock) sleep(d time.Duration) {
	to := c.at + d
	if c.onTick != nil {
		for t := c.at.Truncate(corpusFeed) + corpusFeed; t <= to; t += corpusFeed {
			c.at = t
			c.onTick()
		}
	}
	c.at = to
}

// vdaemon is one rcrd replica as a pure function of virtual time.
type vdaemon struct{ sched faults.FleetSchedule }

func (d vdaemon) active(now time.Duration, kind faults.ServiceKind) bool {
	return d.sched.ActiveOn(0, kind, now)
}

func (d vdaemon) up(now time.Duration) bool { return !d.active(now, faults.ServerRestart) }

// boot returns when the incarnation serving at now came up: the end of
// the latest restart window that closed by now.
func (d vdaemon) boot(now time.Duration) time.Duration {
	var b time.Duration
	for _, ev := range d.sched.Events {
		if ev.Kind == faults.ServerRestart && ev.End <= now && ev.End > b {
			b = ev.End
		}
	}
	return b
}

// snapshot is what the daemon serves at now: the last feed tick, with a
// heartbeat counting the ticks since its incarnation booted.
func (d vdaemon) snapshot(now time.Duration) rcr.Snapshot {
	tick := now.Truncate(corpusFeed)
	beat := float64(now/corpusFeed - d.boot(now)/corpusFeed)
	return rcr.Snapshot{Now: tick, System: []rcr.MeterValue{{Name: rcr.MeterHeartbeat, Value: beat, Updated: tick}}}
}

// corpusCounts is one seed's tallies, or the corpus's sums of them.
type corpusCounts struct {
	Queries, Live, Failed, Converged uint64 // Converged: live answers after ClearTime
	SubMoved, SubConverged           uint64 // Latest reads whose heartbeat moved, and those after ClearTime
	Incarnations                     uint64 // Latest reads whose heartbeat ran backwards
	Restarts, Resets, Loris          uint64 // exchanges and stream frames each fault kind hit
	StreamsLost, GapEpisodes         uint64 // streams a fault killed; gapped runs of frames on one stream
	// From the seed's registry.
	SubFrames, Resubscribes, GapResyncs, Failovers, Retries uint64
}

func (c *corpusCounts) add(o corpusCounts) {
	dst, src := reflect.ValueOf(c).Elem(), reflect.ValueOf(o)
	for i := 0; i < dst.NumField(); i++ {
		dst.Field(i).SetUint(dst.Field(i).Uint() + src.Field(i).Uint())
	}
}

// corpusRun is one seed: its replicas, the journal and registry its
// clients share, its tallies and violations. served records whether the
// running client's transport answered its last exchange, and lastErr
// the last failure it returned.
type corpusRun struct {
	seed       uint64
	replicas   map[string]vdaemon
	clear      time.Duration
	journal    *telemetry.Journal
	reg        *telemetry.Registry
	served     bool
	lastErr    error
	out        corpusCounts
	violations []string
}

// corpusReport is a seed's audited result. Its digest covers the
// journal's JSONL bytes, the registry and the tallies.
type corpusReport struct {
	corpusCounts
	Digest     string
	Violations []string
}

func runClientCorpusSeed(seed uint64) (*corpusReport, *telemetry.Journal) {
	r := &corpusRun{
		seed: seed,
		replicas: map[string]vdaemon{
			"primary": {faults.GenerateServiceSchedule(seed, corpusSchedule)},
			"replica": {faults.GenerateServiceSchedule(^seed, corpusSchedule)},
		},
		journal: telemetry.NewJournal(corpusJournal, 1),
		reg:     telemetry.NewRegistry(),
	}
	for _, d := range r.replicas {
		r.clear = max(r.clear, faults.ClearTime(d.sched.Events))
	}
	for id, addrs := range [][]string{{"primary"}, {"primary", "replica"}} {
		r.poller(id, addrs)
		r.subscriber(2+id, addrs)
	}
	return r.report(), r.journal
}

// client builds client id over the modeled replicas, on clk.
func (r *corpusRun) client(id int, addrs []string, clk *vclock) *resilience.Client {
	cl, err := resilience.NewClient(resilience.ClientConfig{
		Addrs:   addrs,
		Backoff: resilience.Backoff{Base: 5 * time.Millisecond, Max: 40 * time.Millisecond, Seed: r.seed ^ uint64(id)<<16},
		Clock:   clk.now,
		Sleep:   func(_ context.Context, d time.Duration) { clk.sleep(d) },
		Query: func(_ context.Context, _, addr string) (rcr.Snapshot, error) {
			d := r.replicas[addr]
			if err := r.exchange(d, clk); err != nil {
				return rcr.Snapshot{}, err
			}
			r.served = true
			return d.snapshot(clk.at), nil
		},
		Subscribe: func(_ context.Context, _, addr string) (resilience.SubStream, error) {
			d := r.replicas[addr]
			if err := r.exchange(d, clk); err != nil {
				return nil, err
			}
			return &vstream{r: r, d: d, clk: clk, boot: d.boot(clk.at)}, nil
		},
		Journal:   r.journal,
		Telemetry: r.reg,
	})
	if err != nil {
		panic(err) // a clock and an address are always given
	}
	return cl
}

// exchange is one request/response (or subscribe handshake) with d at
// clk's time, waiting out a slow-loris window first.
func (r *corpusRun) exchange(d vdaemon, clk *vclock) error {
	if d.up(clk.at) && d.active(clk.at, faults.SlowLoris) {
		r.out.Loris++
		clk.sleep(corpusReadLimit)
	}
	switch {
	case !d.up(clk.at):
		r.out.Restarts++
		r.lastErr = errRefused
	case d.active(clk.at, faults.ConnReset):
		r.out.Resets++
		r.lastErr = errReset
	default:
		return nil
	}
	return r.lastErr
}

// poller queries every corpusPoll until the budget and audits each
// answer: a snapshot is one the daemon served in this query, and a
// failed query returns the last transport error the daemon gave.
func (r *corpusRun) poller(id int, addrs []string) {
	clk := &vclock{}
	cl := r.client(id, addrs, clk)
	for clk.at < corpusBudget {
		r.served, r.lastErr = false, nil
		_, err := cl.Query(context.Background())
		r.out.Queries++
		switch {
		case err != nil:
			r.out.Failed++
			if err != r.lastErr {
				r.violations = append(r.violations, fmt.Sprintf("client %d at %v: Query returned %v, want the last transport error %v", id, clk.at, err, r.lastErr))
			}
		case !r.served:
			r.violations = append(r.violations, fmt.Sprintf("client %d at %v: Query answered without an exchange", id, clk.at))
		default:
			r.out.Live++
			if clk.at > r.clear {
				r.out.Converged++
			}
		}
		clk.sleep(corpusPoll)
	}
}

// subscriber holds a push subscription until the budget and audits
// Latest at every feed tick: before the first frame it reports
// ErrNoSnapshot, after it the heartbeat of the newest frame applied.
func (r *corpusRun) subscriber(id int, addrs []string) {
	defer func() {
		if p := recover(); p != nil {
			if p != errReread {
				panic(p)
			}
			r.violations = append(r.violations, fmt.Sprintf("client %d: %v", id, p))
		}
	}()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	clk := &vclock{}
	cl := r.client(id, addrs, clk)
	lastBeat := -1.0
	clk.onTick = func() {
		switch snap, err := cl.Latest(); {
		case err == nil:
			if beat := snap.System[0].Value; beat != lastBeat {
				r.out.SubMoved++
				if clk.at > r.clear {
					r.out.SubConverged++
				}
				if beat < lastBeat {
					r.out.Incarnations++
				}
				lastBeat = beat
			}
		case lastBeat >= 0 || !errors.Is(err, resilience.ErrNoSnapshot):
			r.violations = append(r.violations, fmt.Sprintf("client %d at %v: Latest returned %v", id, clk.at, err))
		}
		if clk.at >= corpusBudget {
			cancel()
		}
	}
	if err := cl.Subscribe(ctx); !errors.Is(err, context.Canceled) {
		r.violations = append(r.violations, fmt.Sprintf("client %d: Subscribe returned %v, want context.Canceled", id, err))
	}
}

// vstream is a push stream from one incarnation of a replica: a frame
// at every feed tick until that incarnation dies, a ConnReset window
// kills the stream or the run ends, and a delta gap instead of each
// frame in a SlowLoris window. Its first error other than a gap is its
// last: a client that reads on would spin on a dead stream forever, so
// Next panics with errReread, which subscriber reports as a violation.
type vstream struct {
	r       *corpusRun
	d       vdaemon
	clk     *vclock
	boot    time.Duration
	dead    error
	gapping bool // the last frame was a gap
	cur     rcr.Snapshot
}

func (s *vstream) Next(ctx context.Context) error {
	if s.dead != nil {
		panic(errReread)
	}
	s.clk.sleep(corpusFeed - s.clk.at%corpusFeed)
	now := s.clk.at
	switch {
	case ctx.Err() != nil:
		s.dead = ctx.Err()
	case !s.d.up(now) || s.d.boot(now) != s.boot:
		s.r.out.Restarts++
		s.r.out.StreamsLost++
		s.dead = io.EOF
	case s.d.active(now, faults.ConnReset):
		s.r.out.Resets++
		s.r.out.StreamsLost++
		s.dead = errReset
	case s.d.active(now, faults.SlowLoris):
		s.r.out.Loris++
		if !s.gapping {
			s.gapping = true
			s.r.out.GapEpisodes++
		}
		return rcr.ErrDeltaGap
	default:
		s.gapping = false
		s.cur = s.d.snapshot(now)
	}
	return s.dead
}

func (s *vstream) Snapshot() rcr.Snapshot { return s.cur }
func (s *vstream) Close() error           { return nil }

// report folds the registry into the tallies, digests the seed, and
// applies the per-seed gates.
func (r *corpusRun) report() *corpusReport {
	count := func(name string) uint64 { return r.reg.Counter(name).Value() }
	rep := &corpusReport{corpusCounts: r.out, Violations: r.violations}
	rep.SubFrames = count("resilience_client_sub_frames_total")
	rep.Resubscribes = count("resilience_client_resubscribes_total")
	rep.GapResyncs = count("resilience_client_gap_resyncs_total")
	rep.Failovers = count("resilience_client_failovers_total")
	rep.Retries = count("resilience_client_retries_total")
	var gapRecords uint64
	for _, e := range r.journal.Entries() {
		if e.Kind == telemetry.KindSubGapResync {
			gapRecords++
		}
	}
	h := sha256.New()
	_ = r.journal.WriteJSONL(h) // a hash never fails a write
	_ = r.reg.WriteText(h)
	fmt.Fprintf(h, "%+v\n", r.out)
	rep.Digest = fmt.Sprintf("%x", h.Sum(nil))

	gate := func(failed bool, format string, args ...any) {
		if failed {
			rep.Violations = append(rep.Violations, fmt.Sprintf(format, args...))
		}
	}
	gate(rep.Queries == 0, "no queries issued")
	gate(rep.Converged == 0, "no live answer after the last fault window cleared at %v", r.clear)
	gate(rep.SubFrames == 0, "no pushed frame ever reached a subscriber")
	gate(rep.SubConverged == 0, "no subscriber's Latest heartbeat moved after the last fault window cleared at %v", r.clear)
	gate(rep.Resubscribes != rep.StreamsLost, "%d resubscribes for %d lost streams", rep.Resubscribes, rep.StreamsLost)
	gate(rep.GapResyncs != rep.GapEpisodes, "%d gap resyncs counted for %d gap episodes", rep.GapResyncs, rep.GapEpisodes)
	gate(r.journal.Len() == corpusJournal, "the journal filled its %d records; its sub_gap_resync count is partial", corpusJournal)
	gate(gapRecords != rep.GapEpisodes, "%d sub_gap_resync records for %d gap episodes", gapRecords, rep.GapEpisodes)
	return rep
}

// TestClientCorpus runs seeds 0..2047 across GOMAXPROCS workers, at the
// same size with and without -race. Every seed must pass its gates; a
// failing one prints the command that replays it alone, and seeds 0–31
// run twice and must report the same digest. Collectively the corpus
// must have exercised every fault kind and every recovery path, so the
// gates are known to have held under fire.
func TestClientCorpus(t *testing.T) {
	leak.Check(t)
	var (
		mu     sync.Mutex
		total  corpusCounts
		seedCh = make(chan uint64)
		wg     sync.WaitGroup
	)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := range seedCh {
				rep, _ := runClientCorpusSeed(seed)
				var again *corpusReport
				if seed < 32 { // the replay gate: a seed is a pure function of its number
					again, _ = runClientCorpusSeed(seed)
				}
				mu.Lock()
				switch {
				case again != nil && !reflect.DeepEqual(rep, again):
					t.Errorf("seed %d diverged between runs:\n%+v\n%+v", seed, rep, again)
				case len(rep.Violations) > 0:
					for _, v := range rep.Violations {
						t.Errorf("seed %d: %s", seed, v)
					}
					t.Logf("seed %d: %+v\nreplay: go test ./internal/resilience -v -run 'TestClientCorpusSeed/%d$'", seed, rep.corpusCounts, seed)
				default:
					total.add(rep.corpusCounts)
				}
				mu.Unlock()
			}
		}()
	}
	for seed := uint64(0); seed < corpusSeeds; seed++ {
		seedCh <- seed
	}
	close(seedCh)
	wg.Wait()
	if t.Failed() {
		return
	}
	need := func(n uint64, what string) {
		if n == 0 {
			t.Error(what)
		}
	}
	need(total.Restarts, "no exchange or stream was ever hit by a daemon restart")
	need(total.Resets, "no exchange or stream was ever reset")
	need(total.Loris, "no exchange ever waited behind slow-loris peers")
	need(total.Failed, "no query ever failed")
	need(total.Retries, "no query ever retried")
	need(total.Failovers, "no query ever failed over to the replica")
	need(total.Resubscribes, "no stream was ever resubscribed")
	need(total.GapEpisodes, "no stream ever rode out a delta gap")
	need(total.Incarnations, "no subscriber ever read a restarted incarnation")
	t.Logf("%d seeds: %+v", corpusSeeds, total)
}

// TestClientCorpusSeed replays one corpus seed alone, with its summary
// and whole journal in the log — the command a failing seed prints:
//
//	go test ./internal/resilience -v -run 'TestClientCorpusSeed/1234$'
//
// The seed is read off the -run pattern; without one it replays seed 0.
func TestClientCorpusSeed(t *testing.T) {
	var seed uint64
	if m := regexp.MustCompile(`TestClientCorpusSeed/(\d+)`).FindStringSubmatch(flag.Lookup("test.run").Value.String()); m != nil {
		seed, _ = strconv.ParseUint(m[1], 10, 64) // \d+ parses; out of range saturates
	}
	t.Run(strconv.FormatUint(seed, 10), func(t *testing.T) {
		rep, journal := runClientCorpusSeed(seed)
		for _, v := range rep.Violations {
			t.Errorf("violation: %s", v)
		}
		var jsonl strings.Builder
		_ = journal.WriteJSONL(&jsonl)
		t.Logf("seed %d: %+v\n%s", seed, *rep, jsonl.String())
	})
}
