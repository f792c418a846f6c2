package supervisor

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"gq/internal/host"
	"gq/internal/netstack"
	"gq/internal/sim"
)

func TestParseHealthGaugeRoundTrip(t *testing.T) {
	for _, c := range []struct {
		kind      Kind
		scope, id string
	}{
		{KindCS, "Alpha", "cs0"},
		{KindSink, "probe", "smtpsink"},
		{KindController, "root", "controller"},
		{KindShard, "root", "steephost.ext"}, // dots after the kind stay in the endpoint
	} {
		name := HealthGaugeName(c.kind, c.scope, c.id)
		kind, ep, ok := ParseHealthGauge(name)
		if !ok || kind != c.kind || ep != c.scope+"-"+c.id {
			t.Errorf("ParseHealthGauge(%q) = %q, %q, %v", name, kind, ep, ok)
		}
	}
}

func TestParseHealthGaugeRejects(t *testing.T) {
	for _, name := range []string{
		"",
		"supervisor.healthy",
		"supervisor.cs.healthy",         // no endpoint
		"supervisor..Alpha-cs0.healthy", // no kind
		"supervisor.cs.Alpha-cs0",       // no suffix
		"gateway.cs.Alpha-cs0.healthy",  // wrong prefix
		"supervisor.Alpha.lockdown",     // a lockdown gauge
		"supervisor.Alpha.restarts",     // a counter
	} {
		if kind, ep, ok := ParseHealthGauge(name); ok {
			t.Errorf("ParseHealthGauge(%q) accepted: %q, %q", name, kind, ep)
		}
	}
}

// Repeated down-reports for the controller — several subfarms see the
// same outage — start one ladder: one down transition and one pending
// restart. Once the breaker has quarantined the controller, further
// reports change nothing.
func TestRootDedupsControllerDown(t *testing.T) {
	s := sim.New(1)
	var journal bytes.Buffer
	sink := s.Obs().Journal.AttachNDJSON(&journal)
	restarts := 0
	r := NewRoot(RootDeps{
		Sim:               s,
		ControllerHost:    host.New(s, "controller", netstack.MAC{2, 0, 0, 0, 0, 1}),
		RestartController: func() error { restarts++; return nil },
	}, Config{BreakerThreshold: 2})

	for _, from := range []string{"Alpha", "Beta", "Alpha"} {
		r.ReportControllerDown(from)
	}
	// One restart, 5s..7.5s in; without a PONG the ladder climbs again
	// 2×HeartbeatEvery later, so the next restart is at least 25s in.
	s.RunFor(16 * time.Second)
	if restarts != 1 {
		t.Fatalf("%d restarts after repeated reports, want 1", restarts)
	}
	// The second restart fills the two-restart breaker; the next climb
	// quarantines.
	s.RunFor(time.Minute)
	if restarts != 2 || r.ControllerHealthy() {
		t.Fatalf("%d restarts, healthy %v; want 2 and quarantined", restarts, r.ControllerHealthy())
	}
	r.ReportControllerDown("Beta")
	r.ReportControllerDown("Gamma")
	s.RunFor(time.Minute)
	if restarts != 2 {
		t.Fatalf("%d restarts, want 2 — reports after quarantine restarted the controller", restarts)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	checkControllerEvents(t, journal.Bytes(), map[string]int{
		EvEndpointDown: 1, EvEndpointRestart: 2, EvEndpointQuarantine: 1, EvEndpointUp: 0,
	})
}

// A controller restart that fails to rebind leaves nothing to probe: the
// root quarantines the controller on the spot — one quarantine, a dump
// naming the error — and never restarts it again, however many reports
// follow.
func TestRootQuarantinesOnFailedRestart(t *testing.T) {
	s := sim.New(1)
	var journal bytes.Buffer
	sink := s.Obs().Journal.AttachNDJSON(&journal)
	restarts := 0
	r := NewRoot(RootDeps{
		Sim:            s,
		ControllerHost: host.New(s, "controller", netstack.MAC{2, 0, 0, 0, 0, 1}),
		RestartController: func() error {
			restarts++
			return errors.New("listen: address in use")
		},
	}, Config{})

	r.ReportControllerDown("Alpha")
	s.RunFor(time.Minute)
	r.ReportControllerDown("Beta")
	s.RunFor(time.Minute)
	if restarts != 1 || r.ControllerHealthy() {
		t.Fatalf("%d restarts, healthy %v; want 1 and quarantined", restarts, r.ControllerHealthy())
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	checkControllerEvents(t, journal.Bytes(), map[string]int{
		EvEndpointDown: 1, EvEndpointRestart: 1, EvEndpointQuarantine: 1, EvEndpointUp: 0,
	})
	named := false
	for _, d := range s.Obs().Journal.Dumps() {
		named = named || strings.Contains(d.Reason, "restart failed: listen: address in use")
	}
	if !named {
		t.Error("no flight-recorder dump names the restart error")
	}
}

// checkControllerEvents counts the journal's controller events of each
// type against want.
func checkControllerEvents(t *testing.T, journal []byte, want map[string]int) {
	t.Helper()
	for typ, n := range want {
		got := 0
		for _, line := range bytes.Split(journal, []byte("\n")) {
			if bytes.Contains(line, []byte(`"type":"`+typ+`"`)) &&
				bytes.Contains(line, []byte(`"detail":"controller:controller`)) {
				got++
			}
		}
		if got != n {
			t.Errorf("journal has %d %s events for the controller, want %d", got, typ, n)
		}
	}
}
