package sim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// orderModel is the reference for the event core: every scheduling
// operation takes the next sequence number, and live callbacks fire in
// (at, seq) order.
type orderModel struct {
	seq  uint64
	live map[int]modelKey // label -> key
}

type modelKey struct {
	at  time.Duration
	seq uint64
}

func (m *orderModel) add(label int, at time.Duration) {
	m.live[label] = modelKey{at, m.seq}
	m.seq++
}

// next returns the label that must fire next.
func (m *orderModel) next() (int, bool) {
	best, found := 0, false
	for l, k := range m.live {
		b := m.live[best]
		if !found || k.at < b.at || k.at == b.at && k.seq < b.seq {
			best, found = l, true
		}
	}
	return best, found
}

// TestEventOrderModel interleaves Schedule, Cancel, Timer.Reset/Stop (also
// from a timer's own callback) and Pipe.Send (in order and overtaking)
// at random, and checks every firing against the (at, seq) reference and
// Pending against the count of live queued events.
func TestEventOrderModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		runOrderModel(t, seed)
	}
}

func runOrderModel(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	s := New(seed)
	m := &orderModel{live: map[int]modelKey{}}
	var fired []int
	label := 0
	newLabel := func() int { label++; return label }
	delay := func() time.Duration { return time.Duration(rng.Intn(8)) * time.Millisecond }

	// events holds every one-shot event ever scheduled; cancelling one
	// that already fired or was cancelled must be a no-op.
	var events []*Event
	var eventLabels []int
	schedule := func() {
		l, d := newLabel(), delay()
		m.add(l, s.Now()+d)
		events = append(events, s.Schedule(d, func() { fired = append(fired, l) }))
		eventLabels = append(eventLabels, l)
	}

	type modelTimer struct {
		tm    *Timer
		label int // label of the pending firing, 0 when unarmed
	}
	timers := make([]*modelTimer, 4)
	reset := func(mt *modelTimer) {
		delete(m.live, mt.label)
		mt.label = newLabel()
		d := delay()
		m.add(mt.label, s.Now()+d)
		mt.tm.Reset(d)
	}
	for i := range timers {
		mt := &modelTimer{}
		mt.tm = s.NewTimer(func() {
			fired = append(fired, mt.label)
			mt.label = 0
			if rng.Intn(3) == 0 {
				reset(mt)
			}
		})
		timers[i] = mt
	}

	// fifos mirrors each pipe's FIFO: the labels queued behind one event.
	// An item due before the tail overtakes it on a plain event instead.
	// A delivery may send again, as a switch forwards a frame.
	pipes := make([]*Pipe[int], 3)
	fifos := make([][]int, len(pipes))
	var send func(i int)
	forward := true
	for i := range pipes {
		pipes[i] = NewPipe(s, func(l int) {
			fired = append(fired, l)
			if f := fifos[i]; len(f) > 0 && f[0] == l {
				fifos[i] = f[1:]
			}
			if forward && rng.Intn(4) == 0 {
				send(rng.Intn(len(pipes)))
			}
		})
	}
	send = func(i int) {
		d := 2 * time.Millisecond
		if rng.Intn(4) == 0 {
			d = delay() // may overtake frames already in flight
		}
		l := newLabel()
		at := s.Now() + d
		m.add(l, at)
		if f := fifos[i]; len(f) == 0 || at >= m.live[f[len(f)-1]].at {
			fifos[i] = append(f, l)
		}
		pipes[i].Send(d, l)
	}
	// queued is the model's Pending: every live callback has its own
	// queued event, except the items behind a pipe's head.
	queued := func() int {
		n := len(m.live)
		for _, f := range fifos {
			n -= max(0, len(f)-1)
		}
		return n
	}

	for op := 0; op < 3000; op++ {
		switch r := rng.Intn(10); {
		case r < 2:
			schedule()
		case r < 3:
			if len(events) > 0 {
				i := rng.Intn(len(events))
				events[i].Cancel()
				delete(m.live, eventLabels[i])
			}
		case r < 5:
			reset(timers[rng.Intn(len(timers))])
		case r < 6:
			mt := timers[rng.Intn(len(timers))]
			mt.tm.Stop()
			delete(m.live, mt.label)
			mt.label = 0
		case r < 8:
			send(rng.Intn(len(pipes)))
		default:
			for n := rng.Intn(4); n > 0; n-- {
				want, ok := m.next()
				if !ok {
					break
				}
				if !s.Step() {
					t.Fatalf("seed %d op %d: queue empty, model expects %d", seed, op, want)
				}
				if got := fired[len(fired)-1]; got != want {
					t.Fatalf("seed %d op %d: fired %d, want %d", seed, op, got, want)
				}
				if k := m.live[want]; s.Now() != k.at {
					t.Fatalf("seed %d op %d: clock %v, want %v", seed, op, s.Now(), k.at)
				}
				delete(m.live, want)
			}
		}
		if s.Pending() != queued() {
			t.Fatalf("seed %d op %d: Pending() = %d, want %d", seed, op, s.Pending(), queued())
		}
	}

	// Drain: the rest must fire in exactly the model's sorted order.
	forward = false
	rest := make([]int, 0, len(m.live))
	for l := range m.live {
		rest = append(rest, l)
	}
	sort.Slice(rest, func(i, j int) bool {
		a, b := m.live[rest[i]], m.live[rest[j]]
		return a.at < b.at || a.at == b.at && a.seq < b.seq
	})
	for _, mt := range timers {
		mt.tm.Stop()
		if mt.label != 0 {
			rest = removeLabel(rest, mt.label)
		}
	}
	n := len(fired)
	s.Run()
	got := fired[n:]
	if len(got) != len(rest) {
		t.Fatalf("seed %d drain: fired %d events, want %d", seed, len(got), len(rest))
	}
	for i := range got {
		if got[i] != rest[i] {
			t.Fatalf("seed %d drain: position %d fired %d, want %d", seed, i, got[i], rest[i])
		}
	}
	if s.seq != m.seq {
		t.Fatalf("seed %d: simulator took %d sequence numbers, model %d", seed, s.seq, m.seq)
	}
}

func removeLabel(ls []int, l int) []int {
	for i, x := range ls {
		if x == l {
			return append(ls[:i], ls[i+1:]...)
		}
	}
	return ls
}

func TestCancelRemovesEagerly(t *testing.T) {
	s := New(1)
	e := s.Schedule(time.Second, func() {})
	s.Schedule(2*time.Second, func() {})
	e.Cancel()
	if s.Pending() != 1 {
		t.Fatalf("Pending() = %d after Cancel, want 1", s.Pending())
	}
	if next, _ := s.peek(); next != 2*time.Second {
		t.Fatalf("next event at %v, want 2s", next)
	}
}

func TestTimerResetAllocatesNothing(t *testing.T) {
	s := New(1)
	for i := 0; i < 2000; i++ {
		s.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
	tm := s.NewTimer(func() {})
	tm.Reset(time.Second)
	if n := testing.AllocsPerRun(1000, func() { tm.Reset(time.Second) }); n != 0 {
		t.Fatalf("Timer.Reset allocates %v times per call", n)
	}
}

func TestPipeSendAllocatesNothing(t *testing.T) {
	s := New(1)
	p := NewPipe(s, func([]byte) {})
	frame := make([]byte, 64)
	// Grow the ring to the steady-state depth first.
	burst := func() {
		for i := 0; i < 16; i++ {
			p.Send(time.Millisecond, frame)
		}
		for s.Step() {
		}
	}
	burst()
	n := testing.AllocsPerRun(1000, burst)
	if n != 0 {
		t.Fatalf("Pipe.Send+fire allocates %v times per 16 frames", n)
	}
}

// BenchmarkScheduleStep keeps ~2k live events queued while every step
// schedules a replacement and, every other step, cancels and re-arms one
// retransmit-style event: the churn a farm's event core sees.
func BenchmarkScheduleStep(b *testing.B) {
	s := New(1)
	rng := rand.New(rand.NewSource(1))
	var refill func()
	refill = func() { s.Schedule(time.Duration(rng.Intn(2000))*time.Microsecond, refill) }
	for i := 0; i < 2000; i++ {
		refill()
	}
	rtx := make([]*Event, 256)
	for i := range rtx {
		rtx[i] = s.Schedule(time.Second, func() {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
		if i%2 == 0 {
			j := i / 2 % len(rtx)
			rtx[j].Cancel()
			rtx[j] = s.Schedule(time.Second, func() {})
		}
	}
}

// BenchmarkTimerReset re-arms one timer against ~2k other live events.
func BenchmarkTimerReset(b *testing.B) {
	s := New(1)
	for i := 0; i < 2000; i++ {
		s.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
	tm := s.NewTimer(func() {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.Reset(time.Duration(i%3000) * time.Millisecond)
	}
}
