package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"gq/internal/netsim"
	"gq/internal/netstack"
	"gq/internal/obs"
	"gq/internal/shim"
	"gq/internal/sim"
)

// layerState is the per-layer state read at the start and the end of the
// traced phase; the metrics are differences between the two.
type layerState struct {
	snap            *obs.Snapshot
	mem             runtime.MemStats
	gcCPU, totalCPU float64
	rounds, windows uint64
	events, jbytes  uint64
	fired           uint64
	sessions, msgs  uint64
	created, shed   uint64
	reaped, failcl  uint64
}

// layers measures the traced phase layer by layer.
type layers struct {
	r       *rig
	start   layerState
	profile *os.File
	perr    error

	pendingPeak, connsPeak, flowsPeak int
}

func readLayers(r *rig) layerState {
	var s layerState
	s.snap = r.f.Sim.Obs().Reg.Snapshot(r.f.Sim.Now())
	runtime.ReadMemStats(&s.mem)
	samples := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		s.totalCPU = samples[1].Value.Float64()
	}
	if c := r.f.Coord; c != nil {
		s.rounds, s.windows = c.Stats()
	}
	s.events = r.f.Sim.Obs().Journal.Emitted
	s.jbytes = r.journal.bytes
	s.fired = r.fired()
	for _, sf := range r.f.Subfarms {
		s.sessions += sf.SMTPSink.Sessions + sf.BannerSink.Sessions
		s.msgs += sf.SMTPSink.DataTransfers + sf.BannerSink.DataTransfers
		s.created += sf.Router.FlowsCreated.Value()
		s.shed += sf.Router.FlowsShed.Value()
		s.reaped += sf.Router.SweepReaped.Value()
		s.failcl += sf.Router.FlowsFailClosed.Value()
	}
	return s
}

// startLayers switches the rig's tracer on and starts the CPU profile.
// Call while the farm is quiesced.
func startLayers(r *rig) *layers {
	l := &layers{r: r, start: readLayers(r)}
	r.tr.on = true
	l.profile, l.perr = startProfile(filepath.Join(".bench_build", fmt.Sprintf("farmbench-%d.cpu.pprof", os.Getpid())))
	return l
}

func startProfile(path string) (*os.File, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// sample reads the layers' peaks after a slice.
func (l *layers) sample(r *rig) {
	l.pendingPeak = max(l.pendingPeak, r.pending())
	l.connsPeak = max(l.connsPeak, r.conns())
	n := 0
	for _, sf := range r.f.Subfarms {
		n += sf.Router.ActiveFlows()
	}
	l.flowsPeak = max(l.flowsPeak, n)
}

// finish stops tracing and turns the traced phase into per-layer metrics.
// refRate is the untraced phase's sim_rate, for the tracing overhead.
func (l *layers) finish(p *phase, buildS, warmupS, refRate float64) (map[string]metric, error) {
	pprof.StopCPUProfile()
	r, tr := l.r, l.r.tr
	tr.on = false
	end := readLayers(r)
	s0 := l.start
	if l.perr != nil {
		return nil, fmt.Errorf("cpu profile: %w", l.perr)
	}
	if err := l.profile.Close(); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	shares, err := cpuShares(l.profile.Name())
	if err != nil {
		return nil, err
	}
	os.Remove(l.profile.Name()) // .bench_build is scratch space; a leftover profile is harmless

	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	d := func(name string) float64 { return float64(end.snap.Counter(name) - s0.snap.Counter(name)) }
	sumCounters := func(pfx, sfx string) float64 {
		var n uint64
		for name, v := range end.snap.Counters {
			if strings.HasPrefix(name, pfx) && strings.HasSuffix(name, sfx) {
				n += v - s0.snap.Counters[name]
			}
		}
		return float64(n)
	}

	set("farm.build_s", buildS, "s")
	set("farm.warmup_s", warmupS, "s")

	walls := make([]float64, len(p.sliceWalls))
	for i, w := range p.sliceWalls {
		walls[i] = float64(w) / 1e6
	}
	set("sim.slice_wall_p50_ms", quantile(walls, 0.5), "ms")
	set("sim.slice_wall_p99_ms", quantile(walls, 0.99), "ms")
	set("sim.pending_peak", float64(l.pendingPeak), "count")
	set("sim.events", float64(end.fired-s0.fired), "count")
	rounds := float64(end.rounds - s0.rounds)
	set("sim.rounds", rounds, "count")
	set("sim.domains_per_round", ratio(float64(end.windows-s0.windows), rounds), "count")

	forwarded := sumCounters("netsim.switch.", ".forwarded")
	flooded := sumCounters("netsim.switch.", ".flooded")
	frames := forwarded + flooded
	set("netsim.frames", frames, "count")
	tapped, tappedBytes := tr.tappedFrames()
	set("netsim.frame_bytes_mean", ratio(float64(tappedBytes), float64(tapped)), "bytes")
	set("netsim.flood_ratio", ratio(flooded, frames), "ratio")
	set("netsim.drops", sumCounters("netsim.switch.", ".drops")+d("netsim.port_loss_drops")+d("netsim.port_down_drops")+d("netsim.port_rx_drops"), "count")

	samples := tr.frameSamples()
	set("netsim.hop_ns", replayHop(samples), "ns")
	parseNS, marshalNS, parseAllocs := replayParse(samples)
	set("netstack.parse_ns", parseNS, "ns")
	set("netstack.marshal_ns", marshalNS, "ns")
	set("netstack.parse_allocs", parseAllocs, "count")

	created := float64(end.created - s0.created)
	shed := float64(end.shed - s0.shed)
	set("gateway.flows_created", created, "count")
	set("gateway.verdicts", float64(p.verdicts), "count")
	set("gateway.flows_shed", shed, "count")
	set("gateway.flows_failclosed", float64(end.failcl-s0.failcl), "count")
	set("gateway.sweep_reaped", float64(end.reaped-s0.reaped), "count")
	set("gateway.shed_ratio", ratio(shed, created), "ratio")
	set("gateway.flows_active_peak", float64(l.flowsPeak), "count")
	records, long, started := 0, 0, 0
	for _, sf := range r.f.Subfarms {
		recs := sf.Router.Records()
		records += len(recs)
		for _, rec := range recs {
			if rec.Start >= s0.snap.SimTimeNS {
				started++
				if rec.BytesOrig+rec.BytesResp >= longFlowBytes {
					long++
				}
			}
		}
	}
	set("gateway.records", float64(records), "count")
	set("gateway.long_flow_share", ratio(float64(long), float64(started)), "ratio")

	set("policy.decisions", float64(tr.decisions.Load()), "count")
	set("policy.decide_ns", tr.spans[spanDecide].mean(), "ns")
	set("containment.relay_bytes", float64(tr.relayBytes.Load()), "bytes")
	set("containment.handler_ns", tr.spans[spanHandler].mean(), "ns")
	lat := verdictLatency(s0.snap, end.snap)
	set("containment.verdict_latency_p50_us", lat.Quantile(0.50), "us")
	set("containment.verdict_latency_p99_us", lat.Quantile(0.99), "us")
	set("shim.codec_ns", replayShim(tr.shims), "ns")

	set("host.dial_ns", tr.spans[spanDial].mean(), "ns")
	set("host.write_ns", tr.spans[spanWrite].mean(), "ns")
	set("host.close_ns", tr.spans[spanClose].mean(), "ns")
	set("host.conns_peak", float64(l.connsPeak), "count")

	events := float64(end.events - s0.events)
	set("obs.events", events, "count")
	set("obs.events_per_flow", ratio(events, created), "count")
	set("obs.journal_bytes", float64(end.jbytes-s0.jbytes), "bytes")
	set("obs.render_ns", replayRender(r.f.Sim.Obs().Journal, tr.events), "ns")

	set("sink.smtp_sessions", float64(end.sessions-s0.sessions), "count")
	set("sink.msgs", float64(end.msgs-s0.msgs), "count")

	set("runtime.allocs_per_frame", ratio(float64(end.mem.Mallocs-s0.mem.Mallocs), frames), "count")
	set("runtime.alloc_bytes_per_frame", ratio(float64(end.mem.TotalAlloc-s0.mem.TotalAlloc), frames), "bytes")
	set("runtime.gc_cycles", float64(end.mem.NumGC-s0.mem.NumGC), "count")
	set("runtime.gc_cpu_frac", ratio(end.gcCPU-s0.gcCPU, end.totalCPU-s0.totalCPU), "ratio")

	for _, pkg := range profiledPackages {
		set(pkg+".cpu_share", shares[pkg], "ratio")
	}
	set("trace.overhead", ratio(refRate, p.simRate), "ratio")
	set("workload.fail_ratio", ratio(float64(p.failed), float64(p.attempted)), "ratio")
	return m, nil
}

// longFlowBytes separates long flows from short ones by the payload they
// carried in both directions by the end of the traced phase.
const longFlowBytes = 16 << 10

// verdictLatency merges every router's verdict-latency histogram over the
// traced phase. The latency is simulated time.
func verdictLatency(s0, s1 *obs.Snapshot) obs.HistogramSnapshot {
	var out obs.HistogramSnapshot
	for name, h := range s1.Histograms {
		if !strings.HasSuffix(name, ".verdict_latency_us") {
			continue
		}
		if out.Bounds == nil {
			out.Bounds = h.Bounds
			out.Buckets = make([]uint64, len(h.Buckets))
		}
		prev := s0.Histograms[name]
		for i, n := range h.Buckets {
			if i < len(prev.Buckets) {
				n -= prev.Buckets[i]
			}
			out.Buckets[i] += n
			out.Count += n
		}
	}
	return out
}

// replayBudget is how long each replay runs over its samples.
const replayBudget = 50 * time.Millisecond

// replay runs one pass of fn over the samples until the budget is spent
// and returns the mean wall time per item.
func replay(items int, fn func(i int)) float64 {
	if items == 0 {
		return 0
	}
	n := 0
	start := time.Now()
	for time.Since(start) < replayBudget {
		for i := 0; i < items; i++ {
			fn(i)
		}
		n += items
	}
	return float64(time.Since(start)) / float64(n)
}

// replayHop sends frames of the captured sizes across one netsim link.
func replayHop(frames [][]byte) float64 {
	if len(frames) == 0 {
		return 0
	}
	s := sim.New(1)
	a := netsim.NewPort(s, "replay-a", nil)
	b := netsim.NewPort(s, "replay-b", func([]byte) {})
	netsim.Connect(a, b, 0)
	// One Run per pass: entering the event loop has a fixed cost that a
	// per-frame Run would bill to every hop.
	n := 0
	start := time.Now()
	for time.Since(start) < replayBudget {
		for _, f := range frames {
			a.Send(f)
		}
		s.Run()
		n += len(frames)
	}
	return float64(time.Since(start)) / float64(n)
}

// replayParse parses copies of the captured frames, rewrites their source
// address the way NAT does, and marshals them again. It returns the mean
// parse and marshal times and the allocations per parse.
func replayParse(frames [][]byte) (parseNS, marshalNS, allocs float64) {
	if len(frames) == 0 {
		return 0, 0, 0
	}
	bufs := make([][]byte, len(frames))
	for i, f := range frames {
		bufs[i] = make([]byte, len(f))
	}
	var parse, marshal time.Duration
	var ms0, ms1 runtime.MemStats
	n := 0
	start := time.Now()
	for time.Since(start) < replayBudget {
		for i, f := range frames {
			copy(bufs[i], f)
		}
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		pkts := make([]*netstack.Packet, 0, len(frames))
		for _, b := range bufs {
			if p, err := netstack.ParseFrame(b); err == nil {
				pkts = append(pkts, p)
			}
		}
		t1 := time.Now()
		runtime.ReadMemStats(&ms1)
		for _, p := range pkts {
			if p.IP != nil {
				p.IP.Src++
			}
			_ = p.Marshal()
		}
		parse += t1.Sub(t0)
		marshal += time.Since(t1)
		allocs += float64(ms1.Mallocs - ms0.Mallocs - 1) // minus pkts itself
		n += len(bufs)
	}
	return float64(parse) / float64(n), float64(marshal) / float64(n), allocs / float64(n)
}

// replayShim round-trips the captured decisions through the shim codec.
func replayShim(samples []shimSample) float64 {
	return replay(len(samples), func(i int) {
		s := &samples[i]
		if _, err := shim.UnmarshalRequest(s.req.Marshal()); err != nil {
			panic(err) // the codec rejected what it encoded: a bug
		}
		if _, _, err := shim.UnmarshalResponse(s.resp.Marshal()); err != nil {
			panic(err)
		}
	})
}

// replayRender renders the captured journal events again.
func replayRender(j *obs.Journal, events []obs.Event) float64 {
	var buf []byte
	return replay(len(events), func(i int) { buf = j.RenderEvent(buf[:0], events[i]) })
}

// profiledPackages are the layers whose CPU share is reported; everything
// else (the standard library, the benchmark itself) is left out.
var profiledPackages = []string{
	"farm", "sim", "netsim", "netstack", "gateway", "nat", "containment", "policy",
	"shim", "host", "obs", "sink", "smtpx", "malware", "runtime",
}

// cpuShares attributes the profile's self time to packages, from
// `go tool pprof -top`.
func cpuShares(path string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return parseTop(out)
}

// parseTop sums pprof -top's flat column by package.
func parseTop(out []byte) (map[string]float64, error) {
	shares := map[string]float64{}
	var total float64
	sc := bufio.NewScanner(bytes.NewReader(out))
	header := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !header {
			header = len(f) >= 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		flat, err := parseDuration(f[0])
		if err != nil {
			return nil, fmt.Errorf("pprof -top line %q: %w", sc.Text(), err)
		}
		total += flat
		shares[packageOf(strings.Join(f[5:], " "))] += flat
	}
	if total == 0 {
		return shares, nil
	}
	for k, v := range shares {
		shares[k] = v / total
	}
	return shares, nil
}

// packageOf maps a pprof function name to the layer it belongs to.
func packageOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "gq/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			return rest[:i]
		}
		return rest
	}
	if strings.HasPrefix(fn, "runtime.") {
		return "runtime"
	}
	return "other"
}

// parseDuration reads pprof's sample values ("10ms", "1.20s", "0").
func parseDuration(s string) (float64, error) {
	for _, u := range []struct {
		sfx   string
		scale float64
	}{{"hrs", 3600}, {"min", 60}, {"ms", 1e-3}, {"us", 1e-6}, {"µs", 1e-6}, {"ns", 1e-9}, {"s", 1}} {
		if v, ok := strings.CutSuffix(s, u.sfx); ok {
			x, err := strconv.ParseFloat(v, 64)
			return x * u.scale, err
		}
	}
	return strconv.ParseFloat(s, 64)
}
