package main

import (
	"sync"
	"sync/atomic"
	"time"

	"gq/internal/containment"
	"gq/internal/farm"
	"gq/internal/netsim"
	"gq/internal/netstack"
	"gq/internal/obs"
	"gq/internal/policy"
	"gq/internal/shim"
)

// span kinds the tracer times around calls into the farm's layers.
const (
	spanDial    = iota // host.Dial by the workload's generators
	spanWrite          // host.Conn.Write by the generators
	spanClose          // host.Conn.Close by the generators
	spanDecide         // a subfarm policy's Decide
	spanHandler        // a REWRITE stream handler callback
	nSpans
)

// spanStat accumulates one span kind. Sharded domains record concurrently,
// so the fields are atomic.
type spanStat struct {
	n, ns atomic.Int64
}

func (s *spanStat) mean() float64 {
	if n := s.n.Load(); n > 0 {
		return float64(s.ns.Load()) / float64(n)
	}
	return 0
}

// Sample caps: replays run over at most this many captured items (frames:
// per tap).
const (
	maxFrameSamples = 1024
	maxEventSamples = 4096
	maxShimSamples  = 1024
	frameStride     = 7 // capture every 7th frame
	eventStride     = 5 // capture every 5th event
)

// tracer records spans and counts at the boundaries between the benchmark
// and the farm's layers, and captures samples of what crossed them for the
// replays. It is attached only in traced runs and records only while on,
// which the harness sets for the traced timed phase. Everything stays in
// memory until the run ends.
type tracer struct {
	// on is written only while the farm is quiesced, so domain goroutines
	// read it without synchronization of their own.
	on bool

	spans      [nSpans]spanStat
	decisions  atomic.Int64
	relayBytes atomic.Int64

	// frames are per tap and written by the tap's own domain.
	frames []*frameTap

	mu     sync.Mutex
	shims  []shimSample
	events []obs.Event
	nEvent uint64
}

// begin starts a span; it reads the clock only when the tracer records.
func (t *tracer) begin() time.Time {
	if t == nil || !t.on {
		return time.Time{}
	}
	return time.Now()
}

// end closes a span begun by begin.
func (t *tracer) end(kind int, start time.Time) {
	if t == nil || start.IsZero() {
		return
	}
	s := &t.spans[kind]
	s.n.Add(1)
	s.ns.Add(int64(time.Since(start)))
}

// frameTap counts frames at one tap point and keeps a strided sample.
type frameTap struct {
	t       *tracer
	n       uint64
	bytes   uint64
	samples [][]byte
	scratch []byte
}

func (ft *frameTap) frame(b []byte) {
	if !ft.t.on {
		return
	}
	ft.n++
	ft.bytes += uint64(len(b))
	if ft.n%frameStride == 0 && len(ft.samples) < maxFrameSamples {
		ft.samples = append(ft.samples, append([]byte(nil), b...))
	}
}

func (t *tracer) newFrameTap() *frameTap {
	ft := &frameTap{t: t}
	t.frames = append(t.frames, ft)
	return ft
}

// tapSwitch counts the frames crossing a switch.
func (t *tracer) tapSwitch(sw *netsim.Switch) {
	if t == nil {
		return
	}
	sw.AddTap(t.newFrameTap().frame)
}

// watchSubfarm wraps a subfarm's policies and taps its router. Sharded
// subfarms run in their own domains, so each router gets its own tap.
func (t *tracer) watchSubfarm(sf *farm.Subfarm) error {
	if t == nil {
		return nil
	}
	ft := t.newFrameTap()
	sf.Router.AddTap(func(p *netstack.Packet) {
		if t.on {
			ft.scratch = p.AppendWire(ft.scratch[:0])
			ft.frame(ft.scratch)
		}
	})
	// Rebuild each policy the way the farm did and install it wrapped.
	// The wrapper reports the wrapped policy's name, so verdict shims and
	// the journal are unchanged.
	reg := sf.Farm.Sim.Obs().Reg
	wrap := func(name string) (containment.Decider, error) {
		d, err := policy.New(name, sf.Policy)
		if err != nil {
			return nil, err
		}
		return &tracedDecider{d: policy.Instrument(d, reg), t: t}, nil
	}
	for _, srv := range sf.CSCluster {
		for _, rule := range sf.PolicyConfig.VLANRules {
			if rule.Decider == "" {
				continue
			}
			d, err := wrap(rule.Decider)
			if err != nil {
				return err
			}
			srv.SwapPolicy(rule.Lo, rule.Hi, d)
		}
		d, err := wrap(sf.Config.FallbackPolicy)
		if err != nil {
			return err
		}
		srv.SetFallback(d)
	}
	return nil
}

// shimSample is one decision as the shim protocol carries it.
type shimSample struct {
	req  shim.Request
	resp shim.Response
}

// tracedDecider times a policy's decisions and captures their shims.
type tracedDecider struct {
	d containment.Decider
	t *tracer
}

func (td *tracedDecider) Name() string { return td.d.Name() }

func (td *tracedDecider) Decide(req *shim.Request) containment.Decision {
	t := td.t
	start := t.begin()
	dec := td.d.Decide(req)
	t.end(spanDecide, start)
	if !t.on {
		return dec
	}
	t.decisions.Add(1)
	t.mu.Lock()
	if len(t.shims) < maxShimSamples {
		t.shims = append(t.shims, shimSample{req: *req, resp: shim.Response{
			OrigIP: req.OrigIP, RespIP: dec.RespIP, OrigPort: req.OrigPort, RespPort: dec.RespPort,
			Verdict: dec.Verdict, PolicyName: td.d.Name(), Annotation: dec.Annotation,
		}})
	}
	t.mu.Unlock()
	if dec.Handler != nil {
		dec.Handler = &tracedHandler{h: dec.Handler, t: t}
	}
	return dec
}

// tracedHandler times a REWRITE handler and counts the bytes it relays.
type tracedHandler struct {
	h containment.StreamHandler
	t *tracer
}

func (th *tracedHandler) OnClientData(s *containment.Session, d []byte) {
	start := th.t.begin()
	th.h.OnClientData(s, d)
	th.t.end(spanHandler, start)
	if th.t.on {
		th.t.relayBytes.Add(int64(len(d)))
	}
}

func (th *tracedHandler) OnServerData(s *containment.Session, d []byte) {
	start := th.t.begin()
	th.h.OnServerData(s, d)
	th.t.end(spanHandler, start)
	if th.t.on {
		th.t.relayBytes.Add(int64(len(d)))
	}
}

func (th *tracedHandler) OnClientClose(s *containment.Session) {
	start := th.t.begin()
	th.h.OnClientClose(s)
	th.t.end(spanHandler, start)
}

func (th *tracedHandler) OnServerClose(s *containment.Session) {
	start := th.t.begin()
	th.h.OnServerClose(s)
	th.t.end(spanHandler, start)
}

// eventSampler sits in front of the journal's NDJSON renderer and keeps a
// strided sample of events for the render replay. The journal delivers
// events from one goroutine at a time (write-through on the event loop, or
// the coordinator's ordered flush), so it needs no lock.
type eventSampler struct {
	t     *tracer
	inner obs.Sink
}

func (es *eventSampler) WriteEvent(e obs.Event) error {
	t := es.t
	if t.on {
		t.nEvent++
		if t.nEvent%eventStride == 0 && len(t.events) < maxEventSamples {
			t.events = append(t.events, e)
		}
	}
	return es.inner.WriteEvent(e)
}

// frameSamples gathers the captured frames of every tap.
func (t *tracer) frameSamples() [][]byte {
	var out [][]byte
	for _, ft := range t.frames {
		out = append(out, ft.samples...)
	}
	return out
}

// tappedFrames sums the frames and bytes every tap counted.
func (t *tracer) tappedFrames() (n, bytes uint64) {
	for _, ft := range t.frames {
		n += ft.n
		bytes += ft.bytes
	}
	return n, bytes
}
