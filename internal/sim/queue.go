package sim

import "time"

// queue is a 4-ary min-heap of the live events of one Simulator, keyed by
// (at, seq). Each slot carries a copy of its event's key, so sifting
// compares keys without chasing event pointers; every event records its
// slot (Event.idx) so Cancel can remove it in O(log n). A 4-ary heap is
// half as deep as a binary one, and the four children of a slot share one
// or two cache lines.
type queue []slot

type slot struct {
	at  time.Duration
	seq uint64
	ev  *Event
}

func (a *slot) before(b *slot) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// push inserts e under its current (at, seq) key.
func (s *Simulator) push(e *Event) {
	s.queue = append(s.queue, slot{at: e.at, seq: e.seq, ev: e})
	s.up(len(s.queue) - 1)
}

// remove deletes the event in slot i, marking it unqueued.
func (s *Simulator) remove(i int) {
	q := s.queue
	q[i].ev.idx = -1
	last := len(q) - 1
	if i != last {
		q[i] = q[last]
	}
	q[last] = slot{}
	s.queue = q[:last]
	if i == last {
		return
	}
	if i > 0 && q[i].before(&q[(i-1)/4]) {
		s.up(i)
	} else {
		s.down(i)
	}
}

// up moves the slot at i toward the root until its parent precedes it.
func (s *Simulator) up(i int) {
	q := s.queue
	x := q[i]
	for i > 0 {
		p := (i - 1) / 4
		if !x.before(&q[p]) {
			break
		}
		q[i] = q[p]
		q[i].ev.idx = i
		i = p
	}
	q[i] = x
	x.ev.idx = i
}

// down moves the slot at i toward the leaves until it precedes all of its
// children.
func (s *Simulator) down(i int) {
	q := s.queue
	n := len(q)
	x := q[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j, end := c+1, min(c+4, n); j < end; j++ {
			if q[j].before(&q[m]) {
				m = j
			}
		}
		if !q[m].before(&x) {
			break
		}
		q[i] = q[m]
		q[i].ev.idx = i
		i = m
	}
	q[i] = x
	x.ev.idx = i
}
