// Package netsim provides the simulated link layer of the farm: point-to-
// point links between ports, and learning 802.1Q VLAN switches. Frames are
// raw bytes in real wire format (see internal/netstack); delivery is
// scheduled on the shared discrete-event simulator.
package netsim

import (
	"fmt"
	"time"

	"gq/internal/obs"
	"gq/internal/sim"
)

// DefaultLinkLatency is the one-way delay applied when a link is created
// with zero latency. A small nonzero value keeps event ordering realistic
// (a reply can never overtake the request that provoked it).
const DefaultLinkLatency = 50 * time.Microsecond

// TrunkLatency is the modeled one-way latency of a trunk between
// simulation domains — subfarm uplinks, the external-shard bridges of the
// flat Internet segment, the management-plane crossings. It is defined as
// the coordinator's default lookahead so the physical wire delay and the
// synchronization window can never drift apart: a cross-domain link at
// TrunkLatency always satisfies the CrossFloor check below, and a
// coordinator built with DefaultLookahead never has to clamp it.
const TrunkLatency = sim.DefaultLookahead

// reorderHoldFactor is how many link latencies a reorder-selected frame is
// held back, letting frames sent after it overtake on the FIFO event queue.
const reorderHoldFactor = 3

// Impairment is a deterministic link fault profile. All probabilities draw
// from the simulator RNG and all extra delays run on the simulator clock,
// so a given seed replays the exact same fault sequence.
type Impairment struct {
	// Loss is the probability (0..1) that a transmitted frame is dropped.
	Loss float64
	// Jitter adds a uniform extra delay in [0, Jitter) to each delivery.
	Jitter time.Duration
	// Reorder is the probability a frame is held back long enough for
	// later frames to overtake it.
	Reorder float64
	// Dup is the probability a frame is delivered twice.
	Dup float64
	// Corrupt is the probability a single bit of the frame is flipped.
	Corrupt float64
}

// Port is one end of a link. The owner supplies a receive callback; Send
// delivers a frame to the peer port after the link latency.
type Port struct {
	Name string

	sim     *sim.Simulator
	recv    func(frame []byte)
	peer    *Port
	pipe    *sim.Pipe[[]byte] // frames in flight to a same-domain peer
	latency time.Duration
	up      bool

	// everRecv records whether a receiver was ever attached. Frames that
	// arrive before the first SetReceiver are wiring/setup noise (e.g. ARP
	// broadcast hitting a tap-only port) and are not counted as rx drops.
	everRecv bool

	// Loss is the probability (0..1) that a transmitted frame is silently
	// dropped. Used for failure-injection tests; Impair sets it too.
	Loss float64

	// Remaining impairment knobs (see Impairment). Set via Impair.
	jitter  time.Duration
	reorder float64
	dup     float64
	corrupt float64

	// Per-port counters stay plain fields: the farm creates a port per
	// inmate NIC plus every switch port, and per-port registry series would
	// explode metric cardinality for no operational gain.
	TxFrames, RxFrames uint64
	TxBytes, RxBytes   uint64

	// Farm-wide drop/impairment totals shared by all ports of one
	// simulation. Loss-model drops and admin-down drops are distinct
	// series so injected impairment is distinguishable from a pulled
	// cable in the journal.
	lossDrops, downDrops, rxDrops     *obs.Counter
	dupFrames, corruptFrames, reorders *obs.Counter
}

// NewPort creates an unattached port. recv may be nil for send-only ports
// (e.g. a pure tap).
func NewPort(s *sim.Simulator, name string, recv func(frame []byte)) *Port {
	reg := s.Obs().Reg
	return &Port{
		Name: name, sim: s, recv: recv, up: true,
		everRecv:      recv != nil,
		lossDrops:     reg.Counter("netsim.port_loss_drops"),
		downDrops:     reg.Counter("netsim.port_down_drops"),
		rxDrops:       reg.Counter("netsim.port_rx_drops"),
		dupFrames:     reg.Counter("netsim.port_dup_frames"),
		corruptFrames: reg.Counter("netsim.port_corrupt_frames"),
		reorders:      reg.Counter("netsim.port_reorder_frames"),
	}
}

// SetReceiver replaces the receive callback, e.g. when a host NIC is
// re-bound after an inmate revert.
func (p *Port) SetReceiver(recv func(frame []byte)) {
	p.recv = recv
	if recv != nil {
		p.everRecv = true
	}
}

// Impair installs a fault profile on this port's transmit side. Passing the
// zero Impairment clears all impairment.
func (p *Port) Impair(im Impairment) {
	p.Loss = im.Loss
	p.jitter = im.Jitter
	p.reorder = im.Reorder
	p.dup = im.Dup
	p.corrupt = im.Corrupt
}

// Impaired reports whether any impairment knob is set.
func (p *Port) Impaired() bool {
	return p.Loss > 0 || p.jitter > 0 || p.reorder > 0 || p.dup > 0 || p.corrupt > 0
}

// Connect joins two ports with the given one-way latency (DefaultLinkLatency
// if zero). Connecting an already-connected port panics: topology is static
// within an experiment.
//
// A link whose endpoints live in different simulation domains is a
// domain-crossing boundary: frames ride the coordinator's deterministic
// merge. Its latency must be at least the coordinator's lookahead — the
// link *is* the modeled trunk/uplink wire whose delay makes conservative
// synchronization sound — so a shorter latency is a topology bug and
// panics here rather than silently desynchronizing replay.
func Connect(a, b *Port, latency time.Duration) {
	if a.peer != nil || b.peer != nil {
		panic(fmt.Sprintf("netsim: port already connected (%s / %s)", a.Name, b.Name))
	}
	if latency <= 0 {
		latency = DefaultLinkLatency
	}
	if a.sim != b.sim {
		if !a.sim.SameWorld(b.sim) {
			panic(fmt.Sprintf("netsim: ports %s / %s belong to unrelated simulations", a.Name, b.Name))
		}
		if floor := a.sim.CrossFloor(b.sim); latency < floor {
			panic(fmt.Sprintf("netsim: cross-domain link %s <-> %s latency %v below coordinator lookahead %v",
				a.Name, b.Name, latency, floor))
		}
	}
	a.peer, b.peer = b, a
	a.latency, b.latency = latency, latency
	if a.sim == b.sim {
		a.pipe = sim.NewPipe(a.sim, b.receive)
		b.pipe = sim.NewPipe(b.sim, a.receive)
	}
}

// Connected reports whether the port has a peer.
func (p *Port) Connected() bool { return p.peer != nil }

// Peer returns the other end of the link, or nil if unconnected. Chaos
// schedules use it to impair or flap both directions of an inmate link.
func (p *Port) Peer() *Port { return p.peer }

// SetUp administratively enables or disables the port. A downed port drops
// traffic in both directions, emulating a pulled cable or a powered-off
// raw-iron inmate.
func (p *Port) SetUp(up bool) { p.up = up }

// Up reports the administrative state.
func (p *Port) Up() bool { return p.up }

// Send transmits a frame to the peer after the link latency. The frame is
// copied, so callers may reuse their buffer.
func (p *Port) Send(frame []byte) {
	if !p.admit(frame) {
		return
	}
	p.transmit(append([]byte(nil), frame...))
}

// SendOwned transmits a frame whose buffer the caller relinquishes: no
// defensive copy is made, so the caller must not touch the bytes again.
// This is the datapath fast path — a frame freshly marshalled (or patched
// in place) travels the wire without an extra allocation per hop.
func (p *Port) SendOwned(frame []byte) {
	if !p.admit(frame) {
		return
	}
	p.transmit(frame)
}

// admit runs the transmit-side bookkeeping and loss model, reporting
// whether the frame proceeds to delivery.
func (p *Port) admit(frame []byte) bool {
	if p.peer == nil || !p.up {
		p.downDrops.Inc()
		return false
	}
	p.TxFrames++
	p.TxBytes += uint64(len(frame))
	if p.Loss > 0 && p.sim.Rand().Float64() < p.Loss {
		p.lossDrops.Inc()
		return false
	}
	return true
}

// transmit applies the post-admit impairments (duplication, corruption,
// jitter, reordering) to the now callee-owned buffer and schedules delivery.
func (p *Port) transmit(buf []byte) {
	if p.dup > 0 && p.sim.Rand().Float64() < p.dup {
		p.dupFrames.Inc()
		p.deliver(append([]byte(nil), buf...), p.delay())
	}
	if p.corrupt > 0 && len(buf) > 0 && p.sim.Rand().Float64() < p.corrupt {
		bit := p.sim.Rand().Intn(len(buf) * 8)
		buf[bit/8] ^= 1 << uint(bit%8)
		p.corruptFrames.Inc()
	}
	p.deliver(buf, p.delay())
}

// delay computes the delivery delay for one frame: base latency, plus
// uniform jitter, plus a hold-back when the frame is selected for
// reordering (the simulator's event queue is FIFO per timestamp, so only a
// larger delay lets later frames overtake).
func (p *Port) delay() time.Duration {
	d := p.latency
	if p.jitter > 0 {
		d += time.Duration(p.sim.Rand().Int63n(int64(p.jitter)))
	}
	if p.reorder > 0 && p.sim.Rand().Float64() < p.reorder {
		d += reorderHoldFactor * p.latency
		p.reorders.Inc()
	}
	return d
}

// deliver schedules the (now callee-owned) buffer at the peer. A peer in
// the same domain gets it through the link's Pipe, which keeps the frames
// in flight in a FIFO behind a single queued event. When the peer lives
// in another simulation domain the frame crosses via PostTo:
// buffer ownership transfers with the message (no copy), and all receive
// bookkeeping runs in the receiving domain. Connect guarantees the link
// latency is at least the coordinator's lookahead, so the clamp in PostTo
// never fires for frame delivery.
func (p *Port) deliver(buf []byte, after time.Duration) {
	if p.pipe != nil {
		p.pipe.Send(after, buf)
		return
	}
	peer := p.peer
	p.sim.PostTo(peer.sim, after, func() { peer.receive(buf) })
}

// receive runs the receiving-side bookkeeping and hands the frame to the
// port's receive callback. Always runs on the owning domain's goroutine.
func (p *Port) receive(buf []byte) {
	if !p.up {
		p.rxDrops.Inc()
		return
	}
	if p.recv == nil {
		if p.everRecv {
			p.rxDrops.Inc()
		}
		return
	}
	p.RxFrames++
	p.RxBytes += uint64(len(buf))
	p.recv(buf)
}
