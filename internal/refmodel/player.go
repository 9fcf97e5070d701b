package refmodel

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/machine"
	"repro/internal/msr"
)

// TickerFire records one ticker callback: the virtual fire time and the
// snapshot handed to the callback, widened to SocketStep (the fields a
// ticker snapshot does not carry — FreqScale, RAPLCounter — stay
// zero on both engines).
type TickerFire struct {
	Now     time.Duration
	Sockets []machine.SocketStep
}

// Result is the complete observable trajectory of one scenario run:
// every engine step, every ticker fire per scenario slot, and the final
// architectural state.
type Result struct {
	Steps []machine.StepRecord
	// Tickers[slot] lists the fires of the ticker registered into that
	// scenario slot, in fire order.
	Tickers [][]TickerFire
	// Order lists the slot of every fire, across slots, in fire order.
	Order []int
	// Final machine state: exact per-socket energy and raw RAPL counters.
	Energy   []float64
	Counters []uint32
}

// PlayMachine runs a scenario on the optimized machine engine and records
// its full trajectory. It is the "device under test" half of the
// differential harness; Run is the reference half.
func PlayMachine(sc Scenario) (res *Result, err error) {
	m, err := machine.New(sc.Cfg)
	if err != nil {
		return nil, err
	}
	res = &Result{Tickers: make([][]TickerFire, sc.TickerSlots)}
	m.SetStepHook(func(r machine.StepRecord) { res.Steps = append(res.Steps, r) })
	if sc.CounterStart != 0 {
		for s := 0; s < sc.Cfg.Sockets; s++ {
			if err := m.MSR().WritePackage(s, msr.MSRPkgEnergyStatus, uint64(sc.CounterStart)); err != nil {
				m.Stop()
				return nil, err
			}
		}
	}

	lines := make([]*machine.Line, len(sc.Lines))
	for i, lp := range sc.Lines {
		lines[i] = m.NewLine(lp.CostCycles, lp.PingPong, lp.Activity)
	}

	// The controller runs on the calling goroutine; its recover turns a
	// watchdog or stop abort into an error instead of a test crash.
	defer func() {
		if r := recover(); r != nil {
			a, ok := r.(machine.Abort)
			if !ok {
				panic(r)
			}
			err = fmt.Errorf("refmodel: controller aborted: %w", a.Err)
		}
		m.Stop()
		if err == nil {
			if merr := m.Err(); merr != nil {
				err = fmt.Errorf("refmodel: machine error: %w", merr)
			} else {
				energy := make([]float64, sc.Cfg.Sockets)
				for s := range energy {
					energy[s] = float64(m.SocketEnergy(s))
				}
				collectFinal(m.MSR(), energy, res)
			}
		}
	}()

	ctrl, err := m.Enroll(ControllerCore)
	if err != nil {
		return nil, err
	}
	tickerIDs := make([]int, sc.TickerSlots)
	tickerLive := make([]bool, sc.TickerSlots)
	var wg sync.WaitGroup
	defer wg.Wait()

	// fail stops the machine before returning so blocked workers abort
	// and the deferred wg.Wait cannot hang on a frozen virtual clock.
	fail := func(e error) (*Result, error) {
		m.Stop()
		return nil, e
	}
	for _, ph := range sc.Phases {
		for _, op := range ph.Ops {
			switch op.Kind {
			case GlobalDVFS:
				if err := m.RequestFrequencyScale(op.Socket, op.Scale); err != nil {
					return fail(err)
				}
			case GlobalAddTicker:
				slot, fires := op.Ticker, &res.Tickers[op.Ticker]
				id, err := m.AddTicker(op.Period, func(now time.Duration, s *machine.Snapshot) {
					*fires = append(*fires, snapFire(now, s))
					res.Order = append(res.Order, slot)
				})
				if err != nil {
					return fail(err)
				}
				tickerIDs[op.Ticker] = id
				tickerLive[op.Ticker] = true
			case GlobalRemoveTicker:
				m.RemoveTicker(tickerIDs[op.Ticker])
				tickerLive[op.Ticker] = false
			case GlobalStartWorker:
				w := sc.Workers[op.Worker]
				ctx, err := m.Enroll(w.Core)
				if err != nil {
					return fail(err)
				}
				wg.Add(1)
				go runWorker(ctx, w, lines, &wg)
			}
		}
		ctrl.Sleep(ph.Sleep)
	}
	for slot, live := range tickerLive {
		if live {
			m.RemoveTicker(tickerIDs[slot])
		}
	}
	ctrl.Release()
	return res, nil
}

// runWorker interprets one worker script on its enrolled core.
func runWorker(ctx *machine.CoreCtx, w Worker, lines []*machine.Line, wg *sync.WaitGroup) {
	defer wg.Done()
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(machine.Abort); ok {
				return // machine stopped or watchdogged; PlayMachine reports it
			}
			panic(r)
		}
	}()
	for _, op := range w.Ops {
		switch op.Kind {
		case OpExecute:
			ctx.Execute(op.Work)
		case OpAtomic:
			ctx.Atomic(lines[op.Line], op.N)
		case OpSleep:
			ctx.Sleep(op.D)
		case OpSpinFor:
			ctx.SpinFor(neverTrue, op.D)
		case OpSetDuty:
			ctx.SetDutyLevel(op.Level)
		}
	}
	ctx.Release()
}

// neverTrue keeps SpinFor waits purely deadline-bounded, which is what
// makes scenario schedules reproducible on both engines.
func neverTrue() bool { return false }

// snapFire copies a ticker snapshot into a TickerFire.
func snapFire(now time.Duration, s *machine.Snapshot) TickerFire {
	f := TickerFire{Now: now, Sockets: make([]machine.SocketStep, len(s.Sockets))}
	for i, ss := range s.Sockets {
		f.Sockets[i] = machine.SocketStep{
			Energy:      float64(ss.Energy),
			Power:       float64(ss.Power),
			Temperature: float64(ss.Temperature),
			Refs:        ss.OutstandingRefs,
			Util:        ss.BandwidthUtilization,
			Bandwidth:   float64(ss.Bandwidth),
		}
	}
	return f
}

// collectFinal records an engine's end-of-run architectural state: its
// exact per-socket energy and RAPL counters. PlayMachine calls it
// after Stop, which returns once no stepper is left, so all writes are
// visible.
func collectFinal(file *msr.File, energy []float64, res *Result) {
	res.Energy = energy
	for s := range energy {
		res.Counters = append(res.Counters, file.PackageEnergyCounter(s))
	}
}
