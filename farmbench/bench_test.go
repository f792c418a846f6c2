package main

import (
	"strings"
	"testing"
	"time"
)

// pinnedDigests are the journal digests of each workload's verification
// window at seed 1. A refactor that claims to preserve behaviour must not
// move them; a change that alters the journal on purpose updates them and
// says so.
var pinnedDigests = map[string]string{
	"botfarm": "65a0d4b099b43539eba43ebc112c4e9661eb48c0c0cd86fc7a6ea7c382feab22",
	"bulk":    "3ba0e03c0947ee77bd49c47830669c598a981b2a731f08cf8e7fb27fc8d43e0f",
	"churn":   "2b6b7941cc1b388e8bb9a000166c9b7cbb78b24072ce5b0bbb746d69bb3361d6",
}

// TestSmoke runs every workload for one second, untraced and traced, and
// requires every output check to pass.
func TestSmoke(t *testing.T) {
	for _, name := range []string{"botfarm", "bulk", "churn"} {
		for _, trace := range []bool{false, true} {
			m, err := measure(workloads[name], options{workload: name, seed: 1, seconds: 1, trace: trace})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			for _, p := range m.problems {
				t.Errorf("%s trace=%v: %s", name, trace, p)
			}
			if m.attempted == 0 || m.failed != 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d", name, trace, m.attempted, m.failed)
			}
			if len(m.metrics) == 0 {
				t.Errorf("%s trace=%v: no metrics", name, trace)
			}
		}
	}
}

// TestTracingLeavesJournalUnchanged builds each workload traced and
// untraced and requires byte-identical journals through the verification
// window: the wrapping deciders, stream handlers and taps only observe.
// The untraced digest must also match the pinned one.
func TestTracingLeavesJournalUnchanged(t *testing.T) {
	for name, want := range pinnedDigests {
		w := workloads[name]
		plain, err := newBuild(w, 1, false, true)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := newBuild(w, 1, true, true)
		if err != nil {
			t.Fatal(err)
		}
		if traced.digest != plain.digest {
			t.Errorf("%s: traced journal %s, untraced %s", name, traced.digest, plain.digest)
		}
		if plain.digest != want {
			t.Errorf("%s: journal digest %s, pinned %s", name, plain.digest, want)
		}
	}
}

// TestChurnContrast checks what churn is for: its scan router sheds flows
// at the table bound while the exchange router sheds none, and it makes at
// least ten times as many policy decisions per simulated second as bulk.
func TestChurnContrast(t *testing.T) {
	const window = 5 * time.Second
	perSimSecond := func(name string) (float64, *rig) {
		b, err := newBuild(workloads[name], 1, false, false)
		if err != nil {
			t.Fatal(err)
		}
		r := b.r
		decisions := func() uint64 {
			var n uint64
			for k, v := range r.f.Sim.Obs().Reg.Snapshot(0).Counters {
				if strings.HasPrefix(k, "policy.") && strings.HasSuffix(k, ".decisions") {
					n += v
				}
			}
			return n
		}
		d0 := decisions()
		for v := time.Duration(0); v < window; v += workloads[name].slice {
			r.run(workloads[name].slice)
		}
		return float64(decisions()-d0) / window.Seconds(), r
	}
	churnRate, r := perSimSecond("churn")
	bulkRate, _ := perSimSecond("bulk")
	t.Logf("policy decisions per simulated second: churn %.0f, bulk %.0f", churnRate, bulkRate)
	if churnRate < 10*bulkRate {
		t.Errorf("policy decisions per simulated second: churn %.0f, bulk %.0f; want churn >= 10x bulk", churnRate, bulkRate)
	}
	for _, sf := range r.f.Subfarms {
		shed := sf.Router.FlowsShed.Value()
		switch sf.Name {
		case "scan":
			if shed == 0 {
				t.Errorf("scan router shed no flows")
			}
		case "exchange":
			if shed != 0 {
				t.Errorf("exchange router shed %d flows", shed)
			}
		}
	}
}

// TestEscapeCheckCatchesUnreportedForward proves the containment check is
// not vacuous: when the routers' verdicts are hidden from it, the bytes
// that FORWARD lets out count as escapes.
func TestEscapeCheckCatchesUnreportedForward(t *testing.T) {
	w := *workloads["churn"]
	populate := w.populate
	w.populate = func(r *rig, seed int64) error {
		if err := populate(r, seed); err != nil {
			return err
		}
		for _, sf := range r.f.Subfarms {
			sf.Router.OnVerdict = nil
		}
		return nil
	}
	b, err := newBuild(&w, 1, false, true)
	if err != nil {
		t.Fatal(err)
	}
	if b.r.escapes.err() == nil {
		t.Fatalf("escape check passed %d inmate payload frames with no verdict reported", b.r.escapes.frames)
	}
}

func TestParseTop(t *testing.T) {
	out := []byte(`File: farmbench
Type: cpu
Showing nodes accounting for 2s, 100% of 2s total
      flat  flat%   sum%        cum   cum%
     1.20s 60.00% 60.00%      1.50s 75.00%  gq/internal/gateway.(*Router).shedLRU
     500ms 25.00% 85.00%      500ms 25.00%  runtime.mallocgc
     200ms 10.00% 95.00%      200ms 10.00%  gq/internal/sim.(*Simulator).Step
     100ms  5.00%   100%      100ms  5.00%  crypto/sha256.block
`)
	shares, err := parseTop(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"gateway": 0.6, "runtime": 0.25, "sim": 0.1, "other": 0.05}
	for k, v := range want {
		if d := shares[k] - v; d > 1e-9 || d < -1e-9 {
			t.Errorf("share %s = %v, want %v", k, shares[k], v)
		}
	}
}
