package ladder

import (
	"math/rand"
	"testing"
	"time"
)

// countRand counts draws from a seeded source.
type countRand struct {
	r     *rand.Rand
	draws int
}

func (c *countRand) Float64() float64 { c.draws++; return c.r.Float64() }

// zeroRand draws no jitter, exposing the bare backoff schedule.
type zeroRand struct{}

func (zeroRand) Float64() float64 { return 0 }

func TestDelayDoublesAndCaps(t *testing.T) {
	l := Ladder{Base: 5 * time.Second, Max: time.Minute, Jitter: 0.5}
	want := []time.Duration{5 * time.Second, 10 * time.Second, 20 * time.Second,
		40 * time.Second, time.Minute, time.Minute}
	for i, w := range want {
		if got := l.Delay(zeroRand{}); got != w {
			t.Fatalf("delay %d = %v, want %v", i, got, w)
		}
	}
}

// Each delay makes exactly one RNG draw, so a seeded source yields a
// fixed sequence: a change in draws or arithmetic moves it.
func TestDelayOneDrawPinnedSequence(t *testing.T) {
	rng := &countRand{r: rand.New(rand.NewSource(1))}
	l := Ladder{Base: 5 * time.Second, Max: 2 * time.Minute, Jitter: 0.5}
	want := []time.Duration{6511650719, 14702545440, 26645600532, 48754283743,
		96985499882, 161209384372, 123938221153}
	var got []time.Duration
	for i := 0; i < 7; i++ {
		got = append(got, l.Delay(rng))
		if rng.draws != i+1 {
			t.Fatalf("after %d delays: %d draws", i+1, rng.draws)
		}
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delay %d = %v, want %v (sequence %v)", i, got[i], want[i], got)
		}
	}
}

func TestResetBackoffKeepsBreaker(t *testing.T) {
	l := Ladder{Base: time.Second, Max: time.Minute, Window: time.Hour, Threshold: 2}
	l.Delay(zeroRand{})
	l.Delay(zeroRand{})
	l.Strike(0)
	l.Strike(time.Second)
	l.ResetBackoff()
	if got := l.Delay(zeroRand{}); got != time.Second {
		t.Fatalf("delay after recovery = %v, want Base", got)
	}
	if !l.Tripped(2 * time.Second) {
		t.Fatal("recovery forgot the breaker history")
	}
	l.ResetBreaker()
	if l.Tripped(2*time.Second) || l.Load() != 0 {
		t.Fatal("ResetBreaker kept failures")
	}
}

// A failure exactly Window old still counts; one nanosecond older is
// forgotten.
func TestTrippedWindowBoundary(t *testing.T) {
	const window = 10 * time.Minute
	l := Ladder{Window: window, Threshold: 2}
	l.Strike(0)
	l.Strike(time.Minute)
	if !l.Tripped(window) {
		t.Fatal("failure exactly Window old was forgotten")
	}
	if l.Tripped(window + 1) {
		t.Fatal("failure older than Window still counts")
	}
	if l.Load() != 1 {
		t.Fatalf("load %d after pruning, want 1", l.Load())
	}
}

func TestTrippedAtThreshold(t *testing.T) {
	l := Ladder{Window: time.Hour, Threshold: 3}
	for i := 0; i < 2; i++ {
		l.Strike(time.Duration(i) * time.Second)
		if l.Tripped(time.Duration(i) * time.Second) {
			t.Fatalf("tripped at %d failures, threshold 3", i+1)
		}
	}
	l.Strike(2 * time.Second)
	if !l.Tripped(2 * time.Second) {
		t.Fatal("did not trip at the threshold")
	}
}
