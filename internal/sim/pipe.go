package sim

import "time"

// Pipe delivers items to one callback after a per-item delay, the way a
// link delivers frames. Send reserves each item's sequence number at once,
// exactly as Schedule would, so every item keeps the (at, seq) key a
// one-shot event would have had and fires in the same global order. Items
// wait in a FIFO and only the head item has an event in the queue: when
// it fires, the next item's event takes its place. A pipe therefore
// allocates nothing per item once its ring has grown to the link's
// bandwidth-delay product.
//
// The FIFO needs delivery times that never decrease. An item due before
// the FIFO's tail (link jitter or a reorder hold-back makes one) is not
// queued behind it: it gets a plain event under its own reserved key.
type Pipe[T any] struct {
	ev   Event
	fn   func(T)
	ring []pipeItem[T] // power-of-two sized
	head int           // ring index of the next item to fire
	n    int           // items in the ring, the head included
}

type pipeItem[T any] struct {
	at  time.Duration
	seq uint64
	v   T
}

// NewPipe returns an empty pipe on s that hands each item to fn.
func NewPipe[T any](s *Simulator, fn func(T)) *Pipe[T] {
	if fn == nil {
		panic("sim: nil pipe function")
	}
	p := &Pipe[T]{fn: fn}
	p.ev = Event{fn: p.fire, sim: s, idx: -1}
	return p
}

// Send delivers v to the pipe's callback after delay d of virtual time (a
// negative d counts as zero).
func (p *Pipe[T]) Send(d time.Duration, v T) {
	s := p.ev.sim
	if d < 0 {
		d = 0
	}
	at := s.now + d
	if p.n > 0 && at < p.ring[(p.head+p.n-1)&(len(p.ring)-1)].at {
		fn := p.fn
		s.ScheduleAt(at, func() { fn(v) })
		return
	}
	seq := s.seq
	s.seq++
	if p.n == len(p.ring) {
		p.grow()
	}
	p.ring[(p.head+p.n)&(len(p.ring)-1)] = pipeItem[T]{at: at, seq: seq, v: v}
	p.n++
	if p.n == 1 {
		p.arm()
	}
}

// arm queues the pipe's event under the head item's key.
func (p *Pipe[T]) arm() {
	it := &p.ring[p.head]
	p.ev.at, p.ev.seq = it.at, it.seq
	p.ev.sim.push(&p.ev)
}

// fire delivers the head item, first queueing the event of the next one.
func (p *Pipe[T]) fire() {
	v := p.ring[p.head].v
	p.ring[p.head] = pipeItem[T]{}
	p.head = (p.head + 1) & (len(p.ring) - 1)
	p.n--
	if p.n > 0 {
		p.arm()
	}
	p.fn(v)
}

// grow doubles the ring, unrolling it so the head sits at index 0.
func (p *Pipe[T]) grow() {
	ring := make([]pipeItem[T], max(8, 2*len(p.ring)))
	k := copy(ring, p.ring[p.head:])
	copy(ring[k:], p.ring[:p.head])
	p.ring, p.head = ring, 0
}
