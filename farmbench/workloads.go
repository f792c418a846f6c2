package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"time"

	"gq/internal/containment"
	"gq/internal/farm"
	"gq/internal/host"
	"gq/internal/malware"
	"gq/internal/netstack"
	"gq/internal/policy"
	"gq/internal/shim"
	"gq/internal/smtpx"
)

// workload is one farm the benchmark can drive. Its load is generated
// inside the simulation from the seed and paced by simulation timers.
type workload struct {
	name string
	// slice is the virtual time one step of the timed loop advances;
	// verify is the fixed virtual window after warm-up whose journal is
	// digested and compared between builds of one seed.
	slice, verify time.Duration
	// workers is the coordinator worker count (0 for an unsharded farm).
	workers  int
	newFarm  func(seed int64) *farm.Farm
	populate func(r *rig, seed int64) error
}

var workloads = map[string]*workload{
	"botfarm": {
		name: "botfarm", slice: time.Second, verify: 60 * time.Second,
		workers: runtime.NumCPU(),
		// Two external shards take the C&C dialog off the root domain, as
		// in the §7.2 sweep.
		newFarm:  func(seed int64) *farm.Farm { return farm.NewShardedN(seed, runtime.NumCPU(), 2) },
		populate: populateBotfarm,
	},
	"bulk": {
		name: "bulk", slice: 50 * time.Millisecond, verify: 2 * time.Second,
		newFarm: farm.New, populate: populateBulk,
	},
	"churn": {
		name: "churn", slice: 50 * time.Millisecond, verify: 2 * time.Second,
		newFarm: farm.New, populate: populateChurn,
	},
}

// --- botfarm: the §7.2 S1 point ---

const (
	botSubfarms = 6
	botInmates  = 4
)

// populateBotfarm builds 6 subfarms × 4 Rustock spambots with their C&C on
// the Internet and SMTP sinks, batch 100 and 1 ms access latency — the
// paper's sparse spam traffic on a sharded farm.
func populateBotfarm(r *rig, seed int64) error {
	ccAddr := netstack.MustParseAddr("50.8.207.91")
	cc := r.addExternal("cc", ccAddr)
	if _, err := malware.NewCCServer(cc, malware.CCConfig{
		Template: "x", Targets: []netstack.Addr{netstack.MustParseAddr("203.0.113.25")},
	}); err != nil {
		return err
	}
	var bots []*farm.FarmInmate
	for i := 0; i < botSubfarms; i++ {
		lo := uint16(100 + i*40)
		hi := lo + botInmates + 2
		sf, err := r.addSubfarm(farm.SubfarmConfig{
			Name:   fmt.Sprintf("sub%d", i),
			VLANLo: lo, VLANHi: hi,
			ServiceVLAN:  uint16(10 + i),
			GlobalPool:   netstack.Prefix{Base: netstack.AddrFrom4(192, 0, byte(2+i), 0), Bits: 24},
			PolicyConfig: fmt.Sprintf("[VLAN %d-%d]\nDecider = Rustock\nInfection = *.exe\n", lo, hi),
			SampleLibrary: []*policy.Sample{
				policy.NewSample("bot.exe", "rustock", []byte("MZ")),
			},
			RepeatBatches:  true,
			CCHosts:        map[string]policy.AddrPort{"Rustock": {Addr: ccAddr, Port: 443}},
			SpamBatch:      100,
			AccessLatency:  time.Millisecond,
			SinkStrictness: smtpx.Lenient,
		})
		if err != nil {
			return err
		}
		for j := 0; j < botInmates; j++ {
			fi, err := sf.AddInmate(fmt.Sprintf("bot%d-%d", i, j))
			if err != nil {
				return err
			}
			bots = append(bots, fi)
		}
	}
	r.ready = func() bool {
		for _, fi := range bots {
			if fi.Family == "" {
				return false
			}
		}
		return true
	}
	// Envelopes are read incrementally: seen[i] is how many of subfarm i's
	// harvested envelopes are already summed into spamBytes.
	seen := make([]int, botSubfarms)
	var spamBytes uint64
	r.tally = func() tally {
		var t tally
		for i, sf := range r.f.Subfarms {
			for _, env := range sf.SMTPSink.Envelopes[seen[i]:] {
				spamBytes += uint64(len(env.Data))
			}
			seen[i] = len(sf.SMTPSink.Envelopes)
			t.msgs += sf.SMTPSink.DataTransfers + sf.BannerSink.DataTransfers
			t.attempted += sf.Router.FlowsCreated.Value()
			t.failed += sf.Router.FlowsFailClosed.Value() + sf.Router.FlowsShed.Value()
		}
		t.bytes = spamBytes
		return t
	}
	return nil
}

// --- bulk: the dense datapath ---

const (
	bulkSubfarms  = 4 // the last one keeps the containment server in the path
	bulkInmates   = 4
	bulkReceivers = 4
	bulkObject    = 512 << 10
	bulkHeader    = 8 // offset into the pattern, size
)

// passThrough is the REWRITE decider of bulk's proxied subfarm: every flow
// stays on the containment server, which relays content unchanged.
type passThrough struct{}

func (passThrough) Name() string { return "BenchPassThrough" }
func (passThrough) Decide(*shim.Request) containment.Decision {
	return containment.Decision{Verdict: shim.Rewrite, Annotation: "pass-through proxy", Handler: relay{}}
}

type relay struct{}

func (relay) OnClientData(s *containment.Session, d []byte) { s.WriteServer(d) }
func (relay) OnServerData(s *containment.Session, d []byte) { s.WriteClient(d) }
func (relay) OnClientClose(s *containment.Session)          { s.CloseServer() }
func (relay) OnServerClose(s *containment.Session)          { s.CloseClient() }

func init() {
	policy.Register("BenchPassThrough", func(*policy.Env) containment.Decider { return passThrough{} })
	policy.Register("BenchExchange", func(env *policy.Env) containment.Decider { return exchangePolicy{env} })
}

// populateBulk builds an unsharded farm whose inmates each send 512 KiB
// objects to external receivers, one fresh connection per object,
// starting the next only when the last one finished (a closed loop of 16
// clients). Three subfarms FORWARD, so the gateway splices; the fourth
// REWRITEs through a pass-through handler, so every byte crosses the
// containment server twice.
func populateBulk(r *rig, seed int64) error {
	b := &bulk{r: r, pattern: make([]byte, bulkObject*4)}
	rand.New(rand.NewSource(seed)).Read(b.pattern)
	var rcvs []netstack.Addr
	for i := 0; i < bulkReceivers; i++ {
		addr := netstack.AddrFrom4(198, 51, 100, byte(10+i))
		h := r.addExternal(fmt.Sprintf("rcv%d", i), addr)
		if err := h.Listen(80, b.receive); err != nil {
			return err
		}
		rcvs = append(rcvs, addr)
	}
	n := 0
	for s := 0; s < bulkSubfarms; s++ {
		decider := "AllowAll"
		if s == bulkSubfarms-1 {
			decider = "BenchPassThrough"
		}
		lo := uint16(100 + s*40)
		sf, err := r.addSubfarm(farm.SubfarmConfig{
			Name:   fmt.Sprintf("bulk%d", s),
			VLANLo: lo, VLANHi: lo + bulkInmates + 2,
			ServiceVLAN:    uint16(10 + s),
			GlobalPool:     netstack.Prefix{Base: netstack.AddrFrom4(192, 0, byte(2+s), 0), Bits: 24},
			FallbackPolicy: decider,
			AccessLatency:  10 * time.Millisecond,
		})
		if err != nil {
			return err
		}
		sf.OnBootHook = func(fi *farm.FarmInmate) {
			src := &bulkSender{b: b, h: fi.Host, dst: rcvs[n%len(rcvs)],
				rng: rand.New(rand.NewSource(seed<<16 + int64(fi.VLAN)))}
			n++
			r.hosts = append(r.hosts, fi.Host)
			src.next()
		}
		for j := 0; j < bulkInmates; j++ {
			if _, err := sf.AddInmate(fmt.Sprintf("bulk%d-%d", s, j)); err != nil {
				return err
			}
		}
	}
	r.ready = func() bool { return n == bulkSubfarms*bulkInmates }
	r.tally = func() tally { return b.t }
	return nil
}

// bulk holds the pattern objects are cut from and the running tally.
type bulk struct {
	r       *rig
	pattern []byte
	t       tally
}

// bulkSender is one inmate's closed loop.
type bulkSender struct {
	b   *bulk
	h   *host.Host
	dst netstack.Addr
	rng *rand.Rand
}

// next starts one object: a header naming the object's slice of the
// pattern (its offset is drawn from the seed), then the slice itself, then
// a FIN. The receiver's FIN in reply
// means it has consumed and checked every byte.
func (s *bulkSender) next() {
	b := s.b
	size := bulkObject
	off := s.rng.Intn(len(b.pattern) - size + 1)
	var hdr [bulkHeader]byte
	binary.BigEndian.PutUint32(hdr[0:], uint32(off))
	binary.BigEndian.PutUint32(hdr[4:], uint32(size))

	t := b.r.tr.begin()
	c := s.h.Dial(s.dst, 80)
	b.r.tr.end(spanDial, t)
	done := false
	c.OnConnect = func() {
		t := b.r.tr.begin()
		c.Write(hdr[:])
		c.Write(b.pattern[off : off+size])
		b.r.tr.end(spanWrite, t)
		t = b.r.tr.begin()
		c.Close()
		b.r.tr.end(spanClose, t)
	}
	c.OnPeerClose = func() {
		if done {
			return
		}
		done = true
		b.t.attempted++
		s.next()
	}
	c.OnClose = func(err error) {
		if done {
			return
		}
		done = true
		b.t.attempted++
		b.t.failed++
		// Back off before retrying so a broken path cannot spin.
		s.h.Sim().Schedule(time.Second, s.next)
	}
}

// receive checks one object against the pattern as it streams in.
func (b *bulk) receive(c *host.Conn) {
	var hdr []byte
	var off, size, got int
	intact := true
	c.OnData = func(d []byte) {
		if len(hdr) < bulkHeader {
			k := min(bulkHeader-len(hdr), len(d))
			hdr = append(hdr, d[:k]...)
			d = d[k:]
			if len(hdr) == bulkHeader {
				off = int(binary.BigEndian.Uint32(hdr[0:]))
				size = int(binary.BigEndian.Uint32(hdr[4:]))
				if off+size > len(b.pattern) {
					intact = false
				}
			}
		}
		if len(d) == 0 || !intact {
			return
		}
		if got+len(d) > size || !bytes.Equal(d, b.pattern[off+got:off+got+len(d)]) {
			intact = false
			return
		}
		got += len(d)
	}
	c.OnPeerClose = func() {
		if intact && len(hdr) == bulkHeader && got == size {
			b.t.msgs++
			b.t.bytes += uint64(size)
		} else {
			b.t.wrong++
		}
		c.Close()
	}
}

// --- churn: flow setup ---

const (
	churnExchangers = 8
	churnScanners   = 2
	churnServers    = 4
	// churnPeriod is each exchanger's open-loop schedule; scanPeriod each
	// scanner's SYN interval.
	churnPeriod = 25 * time.Millisecond
	scanPeriod  = 2 * time.Millisecond
	// scanMaxFlows bounds the scan router's flow table. Dropped flows
	// linger five seconds, so 1000 SYNs/s per scanner hold it at the bound.
	scanMaxFlows = 512

	portForward = 80   // FORWARD to an external web server
	portReflect = 8080 // REFLECT to the subfarm's HTTP sink
	portDrop    = 23   // DROP
)

// exchangePolicy is the exchange subfarm's containment policy: the
// destination port alone decides, so every exchange knows the verdict it
// must see.
type exchangePolicy struct{ env *policy.Env }

func (exchangePolicy) Name() string { return "BenchExchange" }
func (p exchangePolicy) Decide(req *shim.Request) containment.Decision {
	switch req.RespPort {
	case portForward:
		return containment.Decision{Verdict: shim.Forward, Annotation: "exchange forward"}
	case portReflect:
		sink := p.env.Service(policy.SvcHTTPSink)
		return containment.Decision{Verdict: shim.Reflect, RespIP: sink.Addr, RespPort: sink.Port, Annotation: "exchange reflect"}
	}
	return containment.Decision{Verdict: shim.Drop, Annotation: "exchange drop"}
}

// fwdBody tags a response that came from an external web server.
const fwdBody = "forwarded by the gateway: the external server answered this exchange"

// populateChurn builds an unsharded farm with two subfarms side by side.
// In "exchange", inmates open short request/response flows on a fixed
// virtual-time schedule (an open loop): half FORWARD to external web
// servers, 30% REFLECT to the HTTP sink, 20% DROP. In "scan", worm-style
// SYNs to random addresses are all dropped and keep that router's flow
// table at its bound.
func populateChurn(r *rig, seed int64) error {
	ch := &churn{r: r}
	for i := 0; i < churnServers; i++ {
		addr := netstack.AddrFrom4(198, 51, 100, byte(20+i))
		h := r.addExternal(fmt.Sprintf("web%d", i), addr)
		if err := h.Listen(portForward, serveExchange); err != nil {
			return err
		}
		ch.servers = append(ch.servers, addr)
	}
	ex, err := r.addSubfarm(farm.SubfarmConfig{
		Name: "exchange", VLANLo: 100, VLANHi: 100 + churnExchangers + 2, ServiceVLAN: 10,
		GlobalPool:     netstack.Prefix{Base: netstack.AddrFrom4(192, 0, 2, 0), Bits: 24},
		FallbackPolicy: "BenchExchange",
		AccessLatency:  time.Millisecond,
	})
	if err != nil {
		return err
	}
	scan, err := r.addSubfarm(farm.SubfarmConfig{
		Name: "scan", VLANLo: 140, VLANHi: 140 + churnScanners + 2, ServiceVLAN: 11,
		GlobalPool:     netstack.Prefix{Base: netstack.AddrFrom4(192, 0, 3, 0), Bits: 24},
		FallbackPolicy: "HardDeny",
		AccessLatency:  time.Millisecond,
		MaxFlows:       scanMaxFlows,
	})
	if err != nil {
		return err
	}
	booted := 0
	ex.OnBootHook = func(fi *farm.FarmInmate) {
		booted++
		r.hosts = append(r.hosts, fi.Host)
		e := &exchanger{ch: ch, h: fi.Host, rng: rand.New(rand.NewSource(seed<<16 + int64(fi.VLAN)))}
		e.schedule(fi.Host.Sim().Now())
	}
	scan.OnBootHook = func(fi *farm.FarmInmate) {
		booted++
		r.hosts = append(r.hosts, fi.Host)
		rng := rand.New(rand.NewSource(seed<<16 + int64(fi.VLAN)))
		fi.Host.Sim().Every(scanPeriod, func() {
			dst := netstack.AddrFrom4(100, byte(64+rng.Intn(64)), byte(rng.Intn(256)), byte(1+rng.Intn(254)))
			t := r.tr.begin()
			fi.Host.Dial(dst, 445)
			r.tr.end(spanDial, t)
		})
	}
	for j := 0; j < churnExchangers; j++ {
		if _, err := ex.AddInmate(fmt.Sprintf("ex%d", j)); err != nil {
			return err
		}
	}
	for j := 0; j < churnScanners; j++ {
		if _, err := scan.AddInmate(fmt.Sprintf("scan%d", j)); err != nil {
			return err
		}
	}
	r.ready = func() bool { return booted == churnExchangers+churnScanners }
	r.tally = func() tally { return ch.t }
	return nil
}

// serveExchange answers one request with a body that only an external
// server sends, then closes.
func serveExchange(c *host.Conn) {
	var req []byte
	c.OnData = func(d []byte) {
		req = append(req, d...)
		if bytes.Contains(req, []byte("\r\n\r\n")) {
			c.Write([]byte("HTTP/1.1 200 OK\r\nContent-Length: " + strconv.Itoa(len(fwdBody)) + "\r\n\r\n" + fwdBody))
			c.Close()
		}
	}
	c.OnPeerClose = func() { c.Close() }
}

type churn struct {
	r       *rig
	servers []netstack.Addr
	t       tally
}

// exchanger is one exchange inmate's open-loop schedule.
type exchanger struct {
	ch  *churn
	h   *host.Host
	rng *rand.Rand
}

// schedule opens the next exchange at its slot: one churnPeriod after the
// previous slot, jittered within the first half of the slot.
func (e *exchanger) schedule(slot time.Duration) {
	next := slot + churnPeriod
	at := next + time.Duration(e.rng.Int63n(int64(churnPeriod/2)))
	e.h.Sim().ScheduleAt(at, func() {
		e.exchange()
		e.schedule(next)
	})
}

// exchange runs one request/response flow and checks that its outcome is
// what the port's verdict implies: the external server's body for FORWARD,
// the sink's empty 200 for REFLECT, a reset without data for DROP.
func (e *exchanger) exchange() {
	ch := e.ch
	var port uint16
	switch p := e.rng.Intn(10); {
	case p < 5:
		port = portForward
	case p < 8:
		port = portReflect
	default:
		port = portDrop
	}
	dst := ch.servers[e.rng.Intn(len(ch.servers))]
	req := []byte("GET /x HTTP/1.1\r\nHost: " + dst.String() + "\r\n\r\n")
	t := ch.r.tr.begin()
	c := e.h.Dial(dst, port)
	ch.r.tr.end(spanDial, t)
	var resp []byte
	resolved := false
	resolve := func(outcome uint16, failed bool) {
		if resolved {
			return
		}
		resolved = true
		ch.t.attempted++
		switch {
		case failed:
			ch.t.failed++
		case outcome != port:
			ch.t.wrong++
		case port != portDrop:
			ch.t.msgs++
			ch.t.bytes += uint64(len(req) + len(resp))
		default:
			ch.t.msgs++
		}
	}
	c.OnConnect = func() {
		t := ch.r.tr.begin()
		c.Write(req)
		ch.r.tr.end(spanWrite, t)
	}
	c.OnData = func(d []byte) {
		resp = append(resp, d...)
		body, ok := httpBody(resp)
		if !ok {
			return
		}
		outcome := uint16(0)
		switch body {
		case fwdBody:
			outcome = portForward
		case "":
			outcome = portReflect
		}
		resolve(outcome, false)
		t := ch.r.tr.begin()
		c.Close()
		ch.r.tr.end(spanClose, t)
	}
	c.OnClose = func(err error) {
		switch {
		case errors.Is(err, host.ErrConnReset) && len(resp) == 0:
			resolve(portDrop, false)
		case err != nil:
			resolve(0, true)
		default:
			resolve(0, false) // closed cleanly without a full response
		}
	}
}

// httpBody returns the body of a complete HTTP response.
func httpBody(b []byte) (string, bool) {
	s := string(b)
	i := strings.Index(s, "\r\n\r\n")
	if i < 0 {
		return "", false
	}
	n := -1
	for _, line := range strings.Split(s[:i], "\r\n") {
		if v, ok := strings.CutPrefix(line, "Content-Length: "); ok {
			n, _ = strconv.Atoi(v)
		}
	}
	if n < 0 || len(s)-i-4 < n {
		return "", false
	}
	return s[i+4 : i+4+n], true
}
