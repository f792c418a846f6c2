// Package sim provides a deterministic discrete-event simulation engine:
// a virtual clock, an event queue, cancellable events, reusable timers,
// per-link delivery FIFOs, and a seeded random source.
//
// Every callback fires in (at, seq) order: by virtual time, and among
// equal times in the order it was scheduled. The queue holds live events
// only; Cancel removes an event at once. Timer and Pipe reuse one queued
// event for many firings without changing any callback's (at, seq) key,
// so they cut allocations without moving the firing order. Cancel, Reset
// and Stop mutate the queue and must run on the owning simulator's loop.
// DESIGN.md §3l states the contract.
//
// All of GQ's simulated machinery (links, hosts, protocol stacks, malware
// specimens, reimaging controllers) runs on a single Simulator. Virtual
// time only advances when the event queue is drained up to the next event,
// so experiments that span hours of farm operation complete in milliseconds
// and are bit-for-bit reproducible for a given seed.
package sim

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"gq/internal/obs"
)

// Event is a scheduled callback. Events fire in (at, seq) order: by
// firing time, and among equal times in the order they were scheduled.
type Event struct {
	at    time.Duration
	seq   uint64
	fn    func()
	sim   *Simulator
	idx   int // queue index; -1 while not queued
	dead  bool
	fired bool
}

// At reports the virtual time at which the event fires.
func (e *Event) At() time.Duration { return e.at }

// Cancel prevents a pending event from firing and removes it from the
// queue at once. Cancelling an already-fired or already-cancelled event is
// a no-op. Like every queue mutation it must run on the loop of the
// simulator that owns the event.
func (e *Event) Cancel() {
	if e == nil || e.fired {
		return
	}
	e.dead = true
	if e.idx >= 0 {
		e.sim.remove(e.idx)
	}
}

// Cancelled reports whether Cancel was called before the event fired. An
// event that actually ran is not cancelled, even though it is no longer
// pending.
func (e *Event) Cancelled() bool { return e.dead }

// Fired reports whether the event's callback has run.
func (e *Event) Fired() bool { return e.fired }

// Simulator is a single-threaded discrete-event scheduler. It is not safe
// for concurrent use; all simulated components run inside event callbacks.
//
// A Simulator may also serve as one *domain* of a sharded simulation: a
// Coordinator owns several Simulators (the root plus one per shard) and
// runs them on worker goroutines under conservative lookahead
// synchronization. Within a domain nothing changes — components schedule
// on their own Simulator exactly as in the single-domain case; only
// PostTo crosses domains.
type Simulator struct {
	now    time.Duration
	seq    uint64
	queue  queue
	rng    *rand.Rand
	seed   int64
	halted bool

	// Sharding state: which domain this is, the coordinator that owns it
	// (nil for a standalone simulator), and the outbox of cross-domain
	// messages generated during the current window.
	shard  int
	coord  *Coordinator
	outbox []crossMsg
	outSeq uint64

	// winEnd is the exclusive end of the window this domain is currently
	// running (zero outside a window). PostTo tightens it to the first
	// cross-message's arrival time + lookahead so a domain granted a wide
	// window can never outrun a response its own message might induce.
	// Touched only by the goroutine running this domain's window.
	winEnd time.Duration

	// nowShared mirrors now so observers on other goroutines (telemetry
	// snapshots) can read the clock without racing the event loop.
	nowShared atomic.Int64

	// Goroutine bridges (proc.go): the registry of coupled procs, the
	// loop-goroutine mark, and the Inject mailbox for alien goroutines.
	procsMu   sync.RWMutex
	procs     map[int64]*Proc
	loopG     atomic.Int64
	injectMu  sync.Mutex
	injected  []func()
	injectN   atomic.Int32
	injectSig chan struct{}

	obs *obs.Obs

	// Fired counts events executed since construction.
	Fired uint64
}

// New returns a Simulator whose random source is seeded with seed.
func New(seed int64) *Simulator {
	s := &Simulator{
		rng:       rand.New(rand.NewSource(seed)),
		seed:      seed,
		injectSig: make(chan struct{}, 1),
	}
	s.obs = obs.New(func() time.Duration {
		return time.Duration(s.nowShared.Load())
	})
	s.obs.Journal.Epoch = Epoch
	return s
}

// Obs returns the simulation's telemetry instance (metrics registry, event
// journal, flight recorder). Every component reaches telemetry through its
// Simulator reference, so all layers share one registry per experiment.
func (s *Simulator) Obs() *obs.Obs { return s.obs }

// setNow advances the clock, keeping the observer mirror in sync.
func (s *Simulator) setNow(t time.Duration) {
	s.now = t
	s.nowShared.Store(int64(t))
}

// Now returns the current virtual time as an offset from the simulation
// epoch.
func (s *Simulator) Now() time.Duration { return s.now }

// ObservedNow returns the clock through the mirror maintained for
// observers on other goroutines. Unlike Now it is safe to call from any
// goroutine, at the price of lagging by the event currently executing.
func (s *Simulator) ObservedNow() time.Duration { return time.Duration(s.nowShared.Load()) }

// Epoch is the wall-clock instant virtual time zero corresponds to when a
// human-readable timestamp is needed (reports, pcap headers). The date is
// arbitrary but fixed so output is reproducible.
var Epoch = time.Date(2011, time.November, 2, 0, 0, 0, 0, time.UTC)

// WallClock converts the current virtual time to an absolute timestamp.
func (s *Simulator) WallClock() time.Time { return Epoch.Add(s.now) }

// Rand exposes the simulation's seeded random source.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// Schedule runs fn after delay d of virtual time. A negative delay is
// treated as zero. The returned Event may be cancelled.
func (s *Simulator) Schedule(d time.Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return s.ScheduleAt(s.now+d, fn)
}

// ScheduleAt runs fn at absolute virtual time at (clamped to now).
func (s *Simulator) ScheduleAt(at time.Duration, fn func()) *Event {
	if fn == nil {
		panic("sim: nil event function")
	}
	if at < s.now {
		at = s.now
	}
	e := &Event{at: at, seq: s.seq, fn: fn, sim: s}
	s.seq++
	s.push(e)
	return e
}

// Halt stops Run/RunUntil/Step loops after the current event returns. The
// halted state is sticky: pending events stay queued and the clock freezes
// where the halting event fired, but no further events run until Resume.
// In a coordinated (sharded) run, halting any domain stops the whole
// coordinator at the end of the current synchronization window.
func (s *Simulator) Halt() { s.halted = true }

// Resume clears a previous Halt so Run/RunUntil/Step process events again.
// The event queue is untouched: everything scheduled before or during the
// halt (timers, retries, tickers) is still pending, so a farm halted by a
// trigger can be resumed and driven further with Run*.
func (s *Simulator) Resume() { s.halted = false }

// Halted reports whether the simulator is currently halted.
func (s *Simulator) Halted() bool { return s.halted }

// Pending reports the number of events in the queue. Every queued event
// is live: Cancel removes an event at once. A Pipe keeps one queued event
// however many items it has in flight.
func (s *Simulator) Pending() int { return len(s.queue) }

// Step executes the next pending event, advancing the clock to its firing
// time. It returns false when the queue is empty or the simulator halted.
func (s *Simulator) Step() bool {
	if s.injectN.Load() != 0 {
		s.drainInjected()
	}
	if len(s.queue) == 0 || s.halted {
		return false
	}
	e := s.queue[0].ev
	s.remove(0)
	s.setNow(e.at)
	e.fired = true
	s.Fired++
	e.fn()
	return true
}

// Run drains the event queue completely (or until Halt).
func (s *Simulator) Run() {
	s.beginLoop()
	defer s.endLoop()
	for s.Step() {
	}
}

// RunUntil executes events with firing times <= deadline, advancing the
// clock to deadline afterwards even if the queue emptied earlier. A Halt()
// freezes the clock where the halting event fired rather than jumping
// ahead to the deadline.
func (s *Simulator) RunUntil(deadline time.Duration) {
	s.beginLoop()
	defer s.endLoop()
	for !s.halted {
		next, ok := s.peek()
		if !ok || next > deadline {
			break
		}
		s.Step()
	}
	if s.now < deadline && !s.halted {
		s.setNow(deadline)
	}
}

// RunFor advances the simulation by d of virtual time.
func (s *Simulator) RunFor(d time.Duration) { s.RunUntil(s.now + d) }

func (s *Simulator) peek() (time.Duration, bool) {
	if len(s.queue) == 0 {
		return 0, false
	}
	return s.queue[0].at, true
}

// Timer is a reusable event: one callback that can be armed, re-armed and
// stopped any number of times without allocating. It suits protocol
// timers (retransmission, TIME_WAIT) that are pushed back on every ACK.
type Timer struct{ ev Event }

// NewTimer returns an unarmed timer that runs fn each time it fires.
func (s *Simulator) NewTimer(fn func()) *Timer {
	if fn == nil {
		panic("sim: nil timer function")
	}
	return &Timer{ev: Event{fn: fn, sim: s, idx: -1}}
}

// Reset (re)arms the timer to fire after d of virtual time (a negative d
// counts as zero). A pending firing is dropped first. The new firing takes
// a fresh sequence number, exactly as Cancel followed by Schedule would,
// so the firing order is the same as with one-shot events.
func (t *Timer) Reset(d time.Duration) {
	e := &t.ev
	s := e.sim
	if e.idx >= 0 {
		s.remove(e.idx)
	}
	if d < 0 {
		d = 0
	}
	e.at, e.seq = s.now+d, s.seq
	s.seq++
	e.dead, e.fired = false, false
	s.push(e)
}

// Stop disarms the timer. Stopping an unarmed timer is a no-op.
func (t *Timer) Stop() { t.ev.Cancel() }

// Ticker repeatedly invokes fn every interval until stopped.
type Ticker struct {
	interval time.Duration
	fn       func()
	timer    *Timer
	stopped  bool
}

// Every schedules fn to run every interval, first firing one interval from
// now. It panics if interval is not positive.
func (s *Simulator) Every(interval time.Duration, fn func()) *Ticker {
	if interval <= 0 {
		panic(fmt.Sprintf("sim: non-positive ticker interval %v", interval))
	}
	t := &Ticker{interval: interval, fn: fn}
	t.timer = s.NewTimer(t.tick)
	t.timer.Reset(interval)
	return t
}

func (t *Ticker) tick() {
	t.fn()
	if !t.stopped {
		t.timer.Reset(t.interval)
	}
}

// Stop cancels future firings.
func (t *Ticker) Stop() {
	t.stopped = true
	t.timer.Stop()
}
