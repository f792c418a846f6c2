package chaos

import (
	"testing"
	"time"
)

func TestParsePresets(t *testing.T) {
	for name, want := range presets {
		p, err := Parse(name)
		if err != nil {
			t.Errorf("Parse(%q): %v", name, err)
			continue
		}
		if p.Name != name || len(p.CSCrashAt) != len(want.CSCrashAt) {
			t.Errorf("Parse(%q) = %s, want the preset", name, p)
		}
	}
}

// An explicit cscrash= list replaces the preset's schedule instead of
// extending it, and leaves the preset itself untouched.
func TestParseScheduleReplacesPreset(t *testing.T) {
	p, err := Parse("blackout," +
		"cscrash=2m,cscrash=2m30s,cscrash=3m," +
		"cscrash=4m,cscrash=4m30s,cscrash=5m," +
		"cscrash=6m,cscrash=6m30s,cscrash=7m")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.CSCrashAt) != 9 || p.CSCrashAt[0] != 2*time.Minute || p.CSCrashAt[8] != 7*time.Minute {
		t.Errorf("CSCrashAt = %v, want the nine overrides", p.CSCrashAt)
	}
	if p.Name != "blackout" || len(p.SinkCrashAt) != 2 || len(p.CtlHangAt) != 1 {
		t.Errorf("blackout's other schedules changed: %s", p)
	}
	if n := len(presets["blackout"].CSCrashAt); n != 4 {
		t.Errorf("the blackout preset itself now has %d CS crashes, want 4", n)
	}
}

func TestParseRejects(t *testing.T) {
	for _, spec := range []string{
		"nosuchkey=1",
		"nosuchpreset",
		"loss=0.05,soak", // a preset only in first position
		"loss=2",
		"loss=-0.5",
		"loss=NaN",
		"reorder=1.5",
		"xferstall=3",
		"cscrash=-1m",
		"flapevery=-5s",
		"loss=lots",
		"jitter=soon",
	} {
		if p, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted: %s", spec, p)
		}
	}
}
