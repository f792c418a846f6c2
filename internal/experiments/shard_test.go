package experiments

import (
	"testing"

	"gq/internal/chaos"
)

// TestShardDeterminism is the sharded farm's determinism proof: the full
// chaos soak — loss, reorder, duplication, corruption, flaps, CS crash,
// verdict stall, sink outage, containment probe — run supervised with
// per-subfarm simulation domains at 1, 2 and 4 workers must produce
// byte-identical NDJSON journals (per-endpoint health transitions
// included) and identical metric snapshots.
func TestShardDeterminism(t *testing.T) {
	profile, err := chaos.Parse("soak")
	if err != nil {
		t.Fatal(err)
	}
	checkAcrossWorkers(t, "shard/seed=7", func(workers int) ([]byte, any) {
		out, err := RunChaosSoak(ChaosConfig{
			Seed: 7, Profile: profile, Sharded: true, Workers: workers,
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
		return out.Journal, out.Snapshot
	})
}
