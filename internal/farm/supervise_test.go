package farm

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"gq/internal/supervisor"
)

// superviseFarm builds the probe farm with an aggressive supervisor config
// so health transitions happen on test-friendly timescales.
func superviseFarm(t *testing.T) (*Farm, *Subfarm, *supervisor.Supervisor) {
	t.Helper()
	f, sf := probeFarm(t, "DefaultDeny")
	sup := sf.Supervise(supervisor.Config{
		HeartbeatEvery:   2 * time.Second,
		HeartbeatTimeout: time.Second,
		MissThreshold:    2,
		RestartBackoff:   2 * time.Second,
		BreakerWindow:    10 * time.Minute,
		BreakerThreshold: 2,
	})
	return f, sf, sup
}

// A crashed containment server must be detected by missed heartbeats and
// brought back by a supervised restart — health confirmed by a live echo,
// not assumed.
func TestSupervisorRestartsCrashedCS(t *testing.T) {
	f, sf, sup := superviseFarm(t)
	var journal bytes.Buffer
	sink := f.Sim.Obs().Journal.AttachNDJSON(&journal)
	f.Run(10 * time.Second)
	if !sup.Healthy(0) {
		t.Fatal("endpoint unhealthy before any fault")
	}
	sf.CS.Host.Shutdown()
	// Two missed probes (ticks at 12s and 14s-minus-deadline) mark the
	// endpoint down at 13s; the first restart can fire no earlier than 15s
	// (backoff 2s), so at 14s the crash is detected but not yet healed.
	f.Run(4 * time.Second)
	if sup.Healthy(0) {
		t.Fatal("crash not detected: endpoint still marked healthy")
	}
	f.Run(30 * time.Second)
	if !sup.Healthy(0) {
		t.Fatal("supervised restart did not bring the endpoint back")
	}
	if len(sup.Recoveries) != 1 {
		t.Fatalf("recoveries = %v, want exactly one", sup.Recoveries)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	// The journal is the health history: down, restart, up, in order.
	var got []string
	for _, line := range bytes.Split(journal.Bytes(), []byte("\n")) {
		if !bytes.Contains(line, []byte(`"scope":"supervisor.probe"`)) {
			continue
		}
		for _, typ := range []string{supervisor.EvCSDown, supervisor.EvCSRestart, supervisor.EvCSUp} {
			if bytes.Contains(line, []byte(`"type":"`+typ+`"`)) {
				got = append(got, typ)
			}
		}
	}
	want := []string{supervisor.EvCSDown, supervisor.EvCSRestart, supervisor.EvCSUp}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("journalled cs0 transitions %v, want %v", got, want)
	}
}

// Repeated crashes within the breaker window must trip the circuit breaker:
// the endpoint is quarantined — no more redial attempts — instead of being
// restarted forever.
func TestSupervisorBreakerQuarantine(t *testing.T) {
	f, sf, sup := superviseFarm(t)
	// Three kills with full recovery in between: with BreakerThreshold=2
	// the third restart attempt finds two recent restarts and quarantines.
	for i := 0; i < 3; i++ {
		f.Run(40 * time.Second)
		sf.CS.Host.Shutdown()
	}
	f.Run(40 * time.Second)
	if !sup.Quarantined(0) {
		t.Fatal("circuit breaker did not quarantine the flapping endpoint")
	}
	if sup.Healthy(0) {
		t.Fatal("quarantined endpoint still marked healthy")
	}
	// Quarantine is terminal: no further restarts, the host stays down.
	f.Run(2 * time.Minute)
	if sup.Healthy(0) {
		t.Fatal("quarantined endpoint was restarted anyway")
	}
}

// Repeated containment-probe escapes must quarantine the offending inmate
// through the farm controller, exactly once.
func TestSupervisorInmateQuarantine(t *testing.T) {
	f, sf, sup := superviseFarm(t)
	probe, err := sf.AddInmate("striker")
	if err != nil {
		t.Fatal(err)
	}
	f.Run(5 * time.Second)
	vlan := probe.VLAN
	for i := 0; i < 3; i++ {
		sup.ReportEscape(vlan)
	}
	if !sup.InmateQuarantined(vlan) {
		t.Fatal("three escape strikes did not quarantine the inmate")
	}
	// Further strikes are no-ops once quarantined.
	sup.ReportEscape(vlan)
	f.Run(5 * time.Second)
	snap := f.Sim.Obs().Snapshot()
	if got := snap.Counter("supervisor.probe.inmate_quarantines"); got != 1 {
		t.Fatalf("inmate_quarantines = %d, want exactly 1", got)
	}
}

// A sink whose listeners cannot be reinstalled after a supervised restart
// is quarantined — journalled and dumped — instead of panicking, and the
// rest of the subfarm keeps running.
func TestSupervisorSinkRebindFailureQuarantines(t *testing.T) {
	f, sf := probeFarm(t, "DefaultDeny")
	var journal bytes.Buffer
	sink := f.Sim.Obs().Journal.AttachNDJSON(&journal)
	sinks := sf.sinkEndpoints()
	for i := range sinks {
		if sinks[i].ID == "catchall" {
			sinks[i].Rebind = func() error { return errors.New("address in use") }
		}
	}
	sup := supervisor.New(supervisor.Deps{
		Sim: sf.Sim, Router: sf.Router, Name: sf.Name,
		Endpoints: []supervisor.Endpoint{{Srv: sf.CS, Host: sf.SvcHosts[csName(0)]}},
		Sinks:     sinks, Prober: sf.proberHost(),
	}, supervisor.Config{
		HeartbeatEvery: 2 * time.Second, MissThreshold: 2, RestartBackoff: 2 * time.Second,
	})
	f.Run(10 * time.Second)
	sf.SvcHosts["catchall"].Shutdown()
	f.Run(time.Minute)
	if sup.EndpointHealthy(supervisor.KindSink, "catchall") {
		t.Fatal("catch-all with a failing rebind reads healthy")
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	var quarantines, restarts int
	for _, line := range bytes.Split(journal.Bytes(), []byte("\n")) {
		if !bytes.Contains(line, []byte(`"detail":"sink:catchall"`)) {
			continue
		}
		if bytes.Contains(line, []byte(`"type":"`+supervisor.EvEndpointQuarantine+`"`)) {
			quarantines++
		}
		if bytes.Contains(line, []byte(`"type":"`+supervisor.EvEndpointRestart+`"`)) {
			restarts++
		}
	}
	if quarantines != 1 || restarts != 0 {
		t.Fatalf("journal has %d quarantines and %d restarts of sink:catchall, want 1 and 0",
			quarantines, restarts)
	}
	if got := f.Sim.Obs().Snapshot().Counter("supervisor.probe.sink_quarantines"); got != 1 {
		t.Fatalf("sink_quarantines = %d, want 1", got)
	}
	var dumped bool
	for _, d := range f.FlightDumps() {
		dumped = dumped || d.Reason == "sink catchall quarantined: rebind failed: address in use"
	}
	if !dumped {
		t.Fatal("no flight-recorder dump for the quarantined sink")
	}
	// The run continues: the quarantined sink is no longer probed or
	// restarted, and the containment server stays supervised and healthy.
	f.Run(time.Minute)
	if !sup.Healthy(0) {
		t.Fatal("containment server unhealthy after the sink quarantine")
	}
}
