package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"time"

	"gq/internal/farm"
	"gq/internal/gateway"
	"gq/internal/host"
	"gq/internal/netstack"
	"gq/internal/obs"
	"gq/internal/shim"
	"gq/internal/sim"
)

// tally is a workload's cumulative application-level record. Workloads
// return it from their counters or the farm's sinks; the harness only reads
// it while the farm is quiesced and works with differences between reads.
type tally struct {
	msgs  uint64 // messages delivered: spam messages, objects or exchanges
	bytes uint64 // payload bytes those messages carried
	// attempted operations resolved and the failed subset of them.
	attempted, failed uint64
	// wrong counts outcomes that contradict the farm's containment
	// decision: a bulk object that finished incomplete, a churn exchange
	// whose outcome is not what its verdict implies.
	wrong uint64
}

// rig is one farm built for one seed plus the benchmark's instruments
// around it: the journal digest, the containment escape check and, in
// traced runs, the tracer. Everything it installs is an observer; none of
// it may change what the farm simulates.
type rig struct {
	f       *farm.Farm
	tr      *tracer // nil in untraced runs
	journal *journalDigest
	escapes *escapeCheck

	// domains lists every simulation domain once, hosts the benchmark's own
	// traffic hosts (generators and receivers).
	domains []*sim.Simulator
	hosts   []*host.Host

	// ready reports whether every inmate is booted and infected; tally
	// reads the workload's counters. Both run only while the farm is
	// quiesced.
	ready func() bool
	tally func() tally
}

// newRig builds w's farm for seed. The journal sink and the Internet tap
// are attached before any subfarm exists so they see the whole run.
func newRig(w *workload, seed int64, traced bool) (*rig, error) {
	f := w.newFarm(seed)
	r := &rig{f: f, domains: []*sim.Simulator{f.Sim}}
	if traced {
		r.tr = &tracer{}
	}
	r.journal = attachJournal(f.Sim.Obs().Journal, r.tr)
	r.escapes = newEscapeCheck()
	f.InternetSwitch.AddTap(r.escapes.tap)
	r.tr.tapSwitch(f.InternetSwitch)
	if err := w.populate(r, seed); err != nil {
		return nil, fmt.Errorf("%s: build farm: %w", w.name, err)
	}
	return r, nil
}

// addSubfarm adds a subfarm and hooks the benchmark's observers into it.
func (r *rig) addSubfarm(cfg farm.SubfarmConfig) (*farm.Subfarm, error) {
	sf, err := r.f.AddSubfarm(cfg)
	if err != nil {
		return nil, err
	}
	r.escapes.watch(sf.Router)
	r.addDomain(sf.Sim)
	if err := r.tr.watchSubfarm(sf); err != nil {
		return nil, err
	}
	return sf, nil
}

// addExternal places a host on the Internet segment.
func (r *rig) addExternal(name string, addr netstack.Addr) *host.Host {
	h := r.f.AddExternalHost(name, addr)
	r.addDomain(h.Sim())
	r.hosts = append(r.hosts, h)
	return h
}

func (r *rig) addDomain(s *sim.Simulator) {
	for _, d := range r.domains {
		if d == s {
			return
		}
	}
	r.domains = append(r.domains, s)
}

// run advances the farm by d of virtual time and settles the escape check
// at the quiesce point that follows.
func (r *rig) run(d time.Duration) {
	r.f.Run(d)
	r.escapes.settle()
}

// pending sums the event queues of every domain.
func (r *rig) pending() int {
	n := 0
	for _, d := range r.domains {
		n += d.Pending()
	}
	return n
}

// fired sums the events executed by every domain.
func (r *rig) fired() uint64 {
	var n uint64
	for _, d := range r.domains {
		n += d.Fired
	}
	return n
}

// conns counts the open connections of the benchmark's traffic hosts.
func (r *rig) conns() int {
	n := 0
	for _, h := range r.hosts {
		n += h.Conns()
	}
	return n
}

// verdicts sums the containment verdicts applied by every router.
func (r *rig) verdicts() uint64 {
	var n uint64
	for _, sf := range r.f.Subfarms {
		n += sf.Router.VerdictsApplied.Value()
	}
	return n
}

// journalDigest is the NDJSON journal's sink target: it hashes and counts
// every rendered byte, so two runs can be compared by digest and the
// journal's volume is measured without keeping it.
type journalDigest struct {
	nd    *obs.NDJSONSink
	h     hash.Hash
	bytes uint64
}

func (d *journalDigest) Write(p []byte) (int, error) {
	d.h.Write(p)
	d.bytes += uint64(len(p))
	return len(p), nil
}

// attachJournal renders the journal to a digest. A traced run interposes
// the tracer's event sampler in front of the renderer.
func attachJournal(j *obs.Journal, tr *tracer) *journalDigest {
	d := &journalDigest{h: sha256.New()}
	d.nd = j.AttachNDJSON(d)
	if tr != nil {
		j.SetSink(&eventSampler{t: tr, inner: d.nd})
	}
	return d
}

// sum flushes the renderer and returns the digest of everything journalled
// so far.
func (d *journalDigest) sum() (string, error) {
	if err := d.nd.Flush(); err != nil {
		return "", fmt.Errorf("flush journal: %w", err)
	}
	return hex.EncodeToString(d.h.Sum(nil)), nil
}

// tuple names one direction of a flow as it appears on the Internet
// segment: the inmate's global address and port toward the responder.
type tuple struct {
	src, dst     netstack.Addr
	sport, dport uint16
	proto        uint8
}

// routerLog collects, in the router's own domain, the tuples that verdicts
// let out and the ones whose flows closed. The escape check merges it only
// while the farm is quiesced, so sharded routers never share memory with
// the Internet tap.
type routerLog struct {
	allowed, closed []tuple
}

// escapeCheck proves containment from outside: every payload byte an
// inmate's global address sends onto the Internet segment must belong to a
// flow whose verdict let it out (FORWARD, or REWRITE, where the
// containment server emits the bytes). The tap records what it sees; each
// settle matches that against the verdicts the routers reported.
type escapeCheck struct {
	logs    []*routerLog
	pools   []netstack.Prefix
	seen    map[tuple]uint64
	allowed map[tuple]struct{}
	// retire holds tuples of flows that closed before the last settle;
	// they stay allowed for one more slice so frames already on the wire
	// when the flow closed still match.
	retire []tuple

	frames  uint64 // payload-bearing inmate frames checked
	escaped uint64 // payload bytes without a verdict that lets them out
	example string // the first escaped tuple, for the error message
}

func newEscapeCheck() *escapeCheck {
	return &escapeCheck{seen: make(map[tuple]uint64), allowed: make(map[tuple]struct{})}
}

// watch hooks a router's verdict and close callbacks.
func (c *escapeCheck) watch(rt *gateway.Router) {
	l := &routerLog{}
	c.logs = append(c.logs, l)
	cfg := rt.Config()
	c.pools = append(c.pools, cfg.GlobalPool)
	key := func(rec *gateway.FlowRecord) (tuple, bool) {
		if rec.Inbound || !rec.Verdict.Has(shim.Forward|shim.Rewrite) || rec.Verdict.Has(shim.Drop) {
			return tuple{}, false
		}
		b := rt.NAT().ByVLAN(rec.VLAN)
		if b == nil {
			return tuple{}, false
		}
		return tuple{src: b.Global, dst: rec.ActualRespIP, sport: rec.OrigPort, dport: rec.ActualRespPort, proto: rec.Proto}, true
	}
	rt.OnVerdict = func(rec *gateway.FlowRecord) {
		if k, ok := key(rec); ok {
			l.allowed = append(l.allowed, k)
		}
	}
	rt.OnFlowClosed = func(rec *gateway.FlowRecord) {
		if k, ok := key(rec); ok {
			l.closed = append(l.closed, k)
		}
	}
}

// tap inspects one frame on the Internet segment. It runs in the root
// domain and touches only seen.
func (c *escapeCheck) tap(frame []byte) {
	k, n, ok := inmatePayload(frame, c.pools)
	if !ok {
		return
	}
	c.frames++
	c.seen[k] += uint64(n)
}

// settle matches the frames seen since the last settle against the
// verdicts reported since, then retires closed flows. Call only while the
// farm is quiesced.
func (c *escapeCheck) settle() {
	for _, l := range c.logs {
		for _, k := range l.allowed {
			c.allowed[k] = struct{}{}
		}
		l.allowed = l.allowed[:0]
	}
	for k, n := range c.seen {
		if _, ok := c.allowed[k]; !ok {
			if c.escaped == 0 {
				c.example = fmt.Sprintf("%s:%d -> %s:%d proto %d", k.src, k.sport, k.dst, k.dport, k.proto)
			}
			c.escaped += n
		}
	}
	clear(c.seen)
	for _, k := range c.retire {
		delete(c.allowed, k)
	}
	c.retire = c.retire[:0]
	for _, l := range c.logs {
		c.retire = append(c.retire, l.closed...)
		l.closed = l.closed[:0]
	}
}

// err reports an escape, if any was seen.
func (c *escapeCheck) err() error {
	if c.escaped == 0 {
		return nil
	}
	return fmt.Errorf("%d inmate payload bytes reached the Internet without a FORWARD verdict (first: %s)", c.escaped, c.example)
}

// inmatePayload decodes just enough of an Internet-segment frame to tell
// whether it carries transport payload from an inmate's global address,
// and returns its tuple and payload length. It reads headers in place and
// allocates nothing: it runs on every frame of every run.
func inmatePayload(fr []byte, pools []netstack.Prefix) (tuple, int, bool) {
	const ethLen, tagLen = 14, 4
	if len(fr) < ethLen {
		return tuple{}, 0, false
	}
	l3 := ethLen
	et := binary.BigEndian.Uint16(fr[12:])
	if et == 0x8100 {
		if len(fr) < ethLen+tagLen {
			return tuple{}, 0, false
		}
		l3 += tagLen
		et = binary.BigEndian.Uint16(fr[16:])
	}
	if et != 0x0800 || len(fr) < l3+20 {
		return tuple{}, 0, false
	}
	ip := fr[l3:]
	src := netstack.Addr(binary.BigEndian.Uint32(ip[12:]))
	inmate := false
	for _, p := range pools {
		if p.Contains(src) {
			inmate = true
			break
		}
	}
	if !inmate {
		return tuple{}, 0, false
	}
	ihl := int(ip[0]&0x0f) * 4
	total := int(binary.BigEndian.Uint16(ip[2:]))
	if ihl < 20 || total < ihl || len(ip) < ihl+8 {
		return tuple{}, 0, false
	}
	k := tuple{
		src: src, dst: netstack.Addr(binary.BigEndian.Uint32(ip[16:])),
		sport: binary.BigEndian.Uint16(ip[ihl:]), dport: binary.BigEndian.Uint16(ip[ihl+2:]),
		proto: ip[9],
	}
	var n int
	switch k.proto {
	case netstack.ProtoTCP:
		if len(ip) < ihl+20 {
			return tuple{}, 0, false
		}
		n = total - ihl - int(ip[ihl+12]>>4)*4
	case netstack.ProtoUDP:
		n = total - ihl - 8
	default:
		n = total - ihl
	}
	return k, n, n > 0
}
