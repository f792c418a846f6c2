package experiments

import (
	"fmt"
	"testing"
)

// runRecoverySoak runs one supervised kill-storm soak and fails the test on
// any problem it reports or when no recovery was measured.
func runRecoverySoak(t *testing.T, seed int64, workers int) *RecoveryOutcome {
	t.Helper()
	out, err := RunRecoverySoak(RecoveryConfig{Seed: seed, Sharded: true, Workers: workers})
	if err != nil {
		t.Fatalf("seed %d workers %d: %v", seed, workers, err)
	}
	for _, problem := range out.Problems {
		t.Errorf("seed %d workers %d: %s", seed, workers, problem)
	}
	if len(out.Recoveries) == 0 {
		t.Errorf("seed %d workers %d: no recoveries measured — kill storm never fired?", seed, workers)
	}
	return out
}

// TestRecoverySoak runs the supervised kill-storm soak on the pinned chaos
// seeds: six containment-server kills across a 3-member cluster, each of
// which must be detected by missed heartbeats, failed over (stranded flows
// fail closed, new flows rendezvous onto the healthy subset), and repaired
// by a supervised restart within the recovery bound — all with zero probe
// escapes and an empty flow table after drain.
func TestRecoverySoak(t *testing.T) {
	for _, seed := range chaosSeeds {
		const workers = 4
		out := runRecoverySoak(t, seed, workers)
		checkJournalPin(t, fmt.Sprintf("recovery/seed=%d", seed), out.Journal)
		t.Logf("seed %d workers %d: flows=%d verdicts=%d failclosed=%d crashes=%d recoveries=%v max=%v probe=[%s]",
			seed, workers, out.FlowsCreated, out.Verdicts, out.FlowsFailClosed,
			out.Injector.Crashes, out.Recoveries, out.MaxObserved, out.Probe)
	}
}

// TestRecoverySoakDeterminism re-proves the sharding guarantee under
// supervision and failover: at 1, 2 and 4 workers each pinned seed must
// yield byte-identical journals (health transitions included) and
// identical recovery intervals.
func TestRecoverySoakDeterminism(t *testing.T) {
	for _, seed := range chaosSeeds {
		checkAcrossWorkers(t, fmt.Sprintf("recovery/seed=%d", seed), func(workers int) ([]byte, any) {
			out := runRecoverySoak(t, seed, workers)
			return out.Journal, out.Recoveries
		})
	}
}
