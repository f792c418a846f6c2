// Command farmbench is the repository's benchmark. It drives one of three
// farm workloads (botfarm, bulk, churn; see README.md) through the public
// farm, sim and host APIs, checks the farm's outputs, and prints one JSON
// result as its last line: the end-to-end metrics from an untraced run, or
// with --trace 1 the per-layer metrics from a traced one.
//
//	go build -o farmbench . && ./farmbench --workload bulk --seed 1 --seconds 10 --trace 0
//
// Run it from the repository root: traced runs write their CPU profile
// under .bench_build/ there.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"sort"
	"time"

	"gq/internal/obs"
)

// setups is how many times one run builds and warms its farm; setup_s is
// their median. The first build and the last two also run the
// verification window, and all three must journal identically.
const setups = 9

// chunks is how many equal wall-time pieces the timed phase is cut into;
// rates are the median over the pieces, which keeps a burst of load from
// another process out of the result.
const chunks = 10

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "farmbench:", err)
		os.Exit(2)
	}
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "farmbench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("farmbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: botfarm, bulk or churn")
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.IntVar(&o.seconds, "seconds", 10, "wall seconds the timed phase measures")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	o.trace = trace == 1
	return o, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run measures one workload and writes provenance, the journal digest and
// the result to out. Output checks that fail make the result incorrect;
// anything that stops the measurement itself is an error.
func run(o options, out io.Writer) error {
	w := workloads[o.workload]
	prov, err := provenance(o, w)
	if err != nil {
		return err
	}
	m, err := measure(w, o)
	if err != nil {
		return err
	}
	prov.Digest = m.digest
	pj, err := json.Marshal(prov)
	if err != nil {
		return err
	}
	for _, p := range m.problems {
		fmt.Fprintln(os.Stderr, "farmbench: check failed:", p)
	}
	res := result{Correct: len(m.problems) == 0, Attempted: m.attempted, Failed: m.failed, Metrics: m.metrics}
	rj, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "provenance %s\n%s\n", pj, rj)
	return err
}

// measurement is what one run found.
type measurement struct {
	digest            string
	problems          []string
	attempted, failed uint64
	metrics           map[string]metric
}

// build is one built and warmed farm with its set-up timings and, when it
// ran the verification window, its journal digest and statistics.
type build struct {
	r               *rig
	buildS, warmupS float64
	verified        bool
	digest          string
	counters        map[string]uint64
	hists           map[string]obs.HistogramSnapshot
}

// measure builds the workload's farm setups times and checks that the
// verified builds journal identically, then times the last build
// (untraced), or the last two side by side: an untraced reference and a
// traced build.
func measure(w *workload, o options) (*measurement, error) {
	m := &measurement{metrics: map[string]metric{}}
	var builds []*build
	var first *build
	var heapMB float64
	for i := 0; i < setups; i++ {
		kept := i >= setups-2
		traced := o.trace && i == setups-1
		b, err := newBuild(w, o.seed, traced, i == 0 || kept)
		if err != nil {
			return nil, err
		}
		builds = append(builds, b)
		if first == nil {
			first = b
		} else if b.verified {
			m.compare(first, b, i, traced)
		}
		if !kept || (!o.trace && i < setups-1) {
			b.r = nil // not timed; let it go
		}
		if i == setups-1 && !o.trace {
			heapMB = liveHeapMB()
		}
	}
	m.digest = first.digest
	var setupS, buildS, warmupS []float64
	for _, b := range builds {
		setupS = append(setupS, b.buildS+b.warmupS)
		buildS = append(buildS, b.buildS)
		warmupS = append(warmupS, b.warmupS)
	}

	wall := time.Duration(o.seconds) * time.Second
	if !o.trace {
		r := builds[setups-1].r
		p := timed(r, w, wall, nil)
		m.checks(r, p)
		m.attempted, m.failed = p.attempted, p.failed
		m.metrics = endToEnd(p, median(setupS), heapMB)
		return m, nil
	}

	ref := builds[setups-2].r
	tr := builds[setups-1].r
	refPhase := timed(ref, w, wall/2, nil)
	m.checks(ref, refPhase)
	lay := startLayers(tr)
	trPhase := timed(tr, w, wall/2, lay)
	m.checks(tr, trPhase)
	m.attempted = refPhase.attempted + trPhase.attempted
	m.failed = refPhase.failed + trPhase.failed
	metrics, err := lay.finish(trPhase, median(buildS), median(warmupS), refPhase.simRate)
	if err != nil {
		return nil, err
	}
	m.metrics = metrics
	return m, nil
}

// compare records where build i of the seed simulated differently from
// the first build.
func (m *measurement) compare(first, b *build, i int, traced bool) {
	if b.digest != first.digest {
		m.problems = append(m.problems, fmt.Sprintf("build %d (traced=%v) journal digest %s differs from build 0's %s", i, traced, b.digest, first.digest))
	}
	if !reflect.DeepEqual(b.counters, first.counters) || !reflect.DeepEqual(b.hists, first.hists) {
		m.problems = append(m.problems, fmt.Sprintf("build %d (traced=%v) simulated statistics differ from build 0's", i, traced))
	}
}

// newBuild builds and warms one farm and, if verify is set, runs the
// verification window and records its journal digest and simulated
// statistics.
func newBuild(w *workload, seed int64, traced, verify bool) (*build, error) {
	runtime.GC() // the previous build's garbage is not this build's set-up cost
	t0 := time.Now()
	r, err := newRig(w, seed, traced)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	if err := warmUp(r, w); err != nil {
		return nil, err
	}
	t2 := time.Now()
	b := &build{r: r, buildS: t1.Sub(t0).Seconds(), warmupS: t2.Sub(t1).Seconds(), verified: verify}
	if !verify {
		return b, nil
	}
	for v := time.Duration(0); v < w.verify; v += w.slice {
		r.run(w.slice)
	}
	if b.digest, err = r.journal.sum(); err != nil {
		return nil, err
	}
	snap := r.f.Sim.Obs().Reg.Snapshot(r.f.Sim.Now())
	b.counters, b.hists = snap.Counters, snap.Histograms
	return b, nil
}

// maxWarmup bounds the virtual time a farm may take to boot and infect.
const maxWarmup = 10 * time.Minute

// warmUp runs the farm until every inmate is booted and infected.
func warmUp(r *rig, w *workload) error {
	for v := time.Duration(0); !r.ready(); v += w.slice {
		if v > maxWarmup {
			return errors.New("inmates not ready after " + maxWarmup.String() + " of virtual time")
		}
		r.run(w.slice)
	}
	return nil
}

// phase is what one timed phase measured.
type phase struct {
	attempted, failed, verdicts uint64
	// simRate and the rates below are medians over the phase's chunks.
	simRate, msgsPerS, mbPerS, verdictsPerS float64
	sliceWalls                              []time.Duration
}

// timed advances the farm slice by slice for at least wall and measures
// it. lay, when set, samples layer state after every slice.
func timed(r *rig, w *workload, wall time.Duration, lay *layers) *phase {
	p := &phase{}
	t0 := r.tally()
	v0 := r.verdicts()
	start := time.Now()
	deadline := start.Add(wall)
	chunkLen := wall / chunks
	var simRates, msgRates, mbRates, verdictRates []float64
	cStart, cVirt, cTally, cVerdicts := start, time.Duration(0), t0, v0
	for {
		s := time.Now()
		r.run(w.slice)
		now := time.Now()
		cVirt += w.slice
		if lay != nil {
			p.sliceWalls = append(p.sliceWalls, now.Sub(s))
			lay.sample(r)
		}
		done := !now.Before(deadline)
		if cw := now.Sub(cStart); cw >= chunkLen || done {
			t, v := r.tally(), r.verdicts()
			sec := cw.Seconds()
			simRates = append(simRates, cVirt.Seconds()/sec)
			msgRates = append(msgRates, float64(t.msgs-cTally.msgs)/sec)
			mbRates = append(mbRates, float64(t.bytes-cTally.bytes)/1e6/sec)
			verdictRates = append(verdictRates, float64(v-cVerdicts)/sec)
			cStart, cVirt, cTally, cVerdicts = now, 0, t, v
		}
		if done {
			break
		}
	}
	t1 := r.tally()
	p.attempted, p.failed = t1.attempted-t0.attempted, t1.failed-t0.failed
	p.verdicts = r.verdicts() - v0
	p.simRate = median(simRates)
	p.msgsPerS = median(msgRates)
	p.mbPerS = median(mbRates)
	p.verdictsPerS = median(verdictRates)
	return p
}

// checks records every output check the farm fails, over its whole life
// up to the end of the phase.
func (m *measurement) checks(r *rig, p *phase) {
	if err := r.escapes.err(); err != nil {
		m.problems = append(m.problems, err.Error())
	}
	if wrong := r.tally().wrong; wrong > 0 {
		m.problems = append(m.problems, fmt.Sprintf("%d outcomes contradict their verdicts", wrong))
	}
	if p.attempted == 0 {
		m.problems = append(m.problems, "no operation resolved in the timed phase")
	}
}

// endToEnd assembles the untraced run's metrics.
func endToEnd(p *phase, setupS, heapMB float64) map[string]metric {
	return map[string]metric{
		"sim_rate":       {p.simRate, "sim-s/s"},
		"msgs_per_s":     {p.msgsPerS, "1/s"},
		"goodput_mb_s":   {p.mbPerS, "MB/s"},
		"verdicts_per_s": {p.verdictsPerS, "1/s"},
		"setup_s":        {setupS, "s"},
		"live_heap_mb":   {heapMB, "MB"},
	}
}

// liveHeapMB forces a collection and reports the heap still in use.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates the q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
