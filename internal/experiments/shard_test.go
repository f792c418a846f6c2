package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"gq/internal/chaos"
)

// TestShardDeterminism is the sharded farm's determinism proof: the full
// chaos soak — loss, reorder, duplication, corruption, flaps, CS crash,
// verdict stall, sink outage, containment probe — run supervised with
// per-subfarm simulation domains at 1, 2 and 4 workers must produce
// byte-identical NDJSON journals (per-endpoint health transitions
// included) and identical metric snapshots. Worker count only decides
// which OS thread runs a domain's window; it must never leak into results.
func TestShardDeterminism(t *testing.T) {
	profile, err := chaos.Parse("soak")
	if err != nil {
		t.Fatal(err)
	}
	const seed = 7

	var refJournal []byte
	var refSnap any
	for _, workers := range []int{1, 2, 4} {
		out, err := RunChaosSoak(ChaosConfig{
			Seed: seed, Profile: profile, Sharded: true, Workers: workers,
			Supervise: true,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for _, problem := range out.Problems {
			t.Errorf("workers=%d: %s", workers, problem)
		}
		t.Logf("workers=%d: flows=%d verdicts=%d crashes=%d failclosed=%d probe=[%s] journal=%dB",
			workers, out.FlowsCreated, out.Verdicts, out.Injector.Crashes,
			out.FlowsFailClosed, out.Probe, len(out.Journal))
		if workers == 1 {
			checkJournalPin(t, "shard/seed=7", out.Journal)
			refJournal, refSnap = out.Journal, out.Snapshot
			continue
		}
		if !bytes.Equal(refJournal, out.Journal) {
			t.Errorf("workers=%d: journal differs from workers=1 (%d vs %d bytes) — sharded execution is not deterministic",
				workers, len(out.Journal), len(refJournal))
		}
		if !reflect.DeepEqual(refSnap, out.Snapshot) {
			t.Errorf("workers=%d: metrics snapshot differs from workers=1", workers)
		}
	}
}
