package experiments

import (
	"fmt"
	"testing"
)

// TestFleetLockdownSoak is the supervision tree's end-to-end proof, and
// its determinism proof in the same breath: three subfarms under the
// blackout profile — sink crashes, a controller hang, a recycler wedge,
// and a containment-server kill storm dense enough to quarantine alpha's
// whole plane — must recover every survivable fault through the tree,
// escalate the unsurvivable one through subfarm fail-closed lockdown to
// global dead-man lockdown, hold zero probe escapes before/during/after,
// and drain every flow table empty. Run sharded at 1, 2 and 4 workers on
// both the single-internet and the two-shard external topology: within
// each topology the NDJSON journal — the escalation record — must be
// byte-identical and hash to its pin: worker count only decides which OS
// thread runs a domain's window; it must never leak into escalation
// order.
func TestFleetLockdownSoak(t *testing.T) {
	for _, extShards := range []int{1, 2} {
		pin := fmt.Sprintf("fleet/sharded/extShards=%d", extShards)
		checkAcrossWorkers(t, pin, func(workers int) ([]byte, any) {
			out, err := RunFleetSoak(FleetConfig{
				Seed: 11, Sharded: true, Workers: workers, ExtShards: extShards,
			})
			if err != nil {
				t.Fatalf("extShards=%d workers=%d: %v", extShards, workers, err)
			}
			for _, problem := range out.Problems {
				t.Errorf("extShards=%d workers=%d: %s", extShards, workers, problem)
			}
			t.Logf("extShards=%d workers=%d: globalAt=%v drops=%d rearms=%d cycles=%d journal=%dB",
				extShards, workers, out.GlobalLockdownAt, out.LockdownDrops,
				out.Rearms, out.Cycles, len(out.Journal))
			return out.Journal, out.Snapshot
		})
	}
}

// TestFleetSoakSerial pins the unsharded farm: the same ladder must run
// on a single root domain (no PostTo hops at all) and still satisfy
// every fleet invariant.
func TestFleetSoakSerial(t *testing.T) {
	out, err := RunFleetSoak(FleetConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for _, problem := range out.Problems {
		t.Error(problem)
	}
	checkJournalPin(t, "fleet/serial", out.Journal)
}
