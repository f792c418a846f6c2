package experiments

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"gq/internal/farm"
	"gq/internal/malware"
	"gq/internal/netstack"
	"gq/internal/obs"
	"gq/internal/policy"
	"gq/internal/smtpx"
)

// drainWindow is how long a soak runs after its specimens are terminated:
// past every sweep horizon, so a healthy farm ends with empty flow tables.
const drainWindow = 12 * time.Minute

// soak is the scaffold the chaos, recovery, recycle and fleet soaks share:
// the farm, its NDJSON journal, the SteepHost C&C, and the wind-down and
// containment checks every soak ends with. Its build order — journal,
// then sink wrapper, then C&C, then the caller's subfarms — is part of
// every pinned soak journal.
type soak struct {
	f        *farm.Farm
	cc       netstack.Addr
	journal  bytes.Buffer
	sink     *obs.NDJSONSink
	problems []string
}

// newSoak builds the farm — single-domain, or sharded over workers
// goroutines with extShards external shards — attaches the journal
// before any traffic so the determinism comparison covers the whole run,
// installs wrap's sink in its place when wrap is set, and brings up the
// C&C.
func newSoak(seed int64, sharded bool, workers, extShards int, wrap func(obs.Sink) obs.Sink) (*soak, error) {
	s := &soak{}
	if sharded {
		s.f = farm.NewShardedN(seed, workers, extShards)
	} else {
		s.f = farm.New(seed)
	}
	j := s.f.Sim.Obs().Journal
	s.sink = j.AttachNDJSON(&s.journal)
	if wrap != nil {
		j.SetSink(wrap(s.sink))
	}
	var err error
	s.cc, err = steephost(s.f)
	return s, err
}

// steephost brings up the Botfarm's C&C at 50.8.207.91
// (50.8.207.91.SteepHost.Net in Fig. 7) and returns its address.
func steephost(f *farm.Farm) (netstack.Addr, error) {
	addr := netstack.MustParseAddr("50.8.207.91")
	_, err := malware.NewCCServer(f.AddExternalHost("steephost", addr), malware.CCConfig{
		Template: "pharma special",
		Targets: []netstack.Addr{
			netstack.MustParseAddr("203.0.113.25"),
			netstack.MustParseAddr("203.0.113.26"),
		},
		Forbidden: []string{"DDOS 203.0.113.99"},
	})
	return addr, err
}

// addRustockSubfarm adds the index'th Rustock-only habitat: a Rustock
// VLAN per inmate from vlanLo up, headroom above them for probe inmates,
// the service VLAN five below, per-index global and infrastructure pools,
// and a containment cluster of servers members (0 = 1).
func (s *soak) addRustockSubfarm(name string, index int, vlanLo uint16, inmates, servers int) (*farm.Subfarm, error) {
	return s.f.AddSubfarm(farm.SubfarmConfig{
		Name:        name,
		VLANLo:      vlanLo,
		VLANHi:      vlanLo + uint16(inmates) + 3,
		ServiceVLAN: vlanLo - 5,
		GlobalPool:  netstack.MustParsePrefix(fmt.Sprintf("192.0.%d.0/24", 2+index)),
		InfraPool:   netstack.MustParsePrefix(fmt.Sprintf("192.0.%d.0/24", 32+index)),
		PolicyConfig: fmt.Sprintf("[VLAN %d-%d]\n", vlanLo, vlanLo+uint16(inmates)-1) +
			"Decider = Rustock\nInfection = rustock.100921.*.exe\n",
		SampleLibrary: []*policy.Sample{
			policy.NewSample("rustock.100921.001.exe", "rustock", []byte("MZ-rustock-1")),
		},
		RepeatBatches: true,
		CCHosts: map[string]policy.AddrPort{
			"Rustock": {Addr: s.cc, Port: 443},
		},
		SinkDropProb:       0.2,
		SinkStrictness:     smtpx.Lenient,
		ContainmentServers: servers,
	})
}

// terminate stops every inmate of every subfarm, each subfarm in VLAN
// order: map iteration order would leak into the journal.
func (s *soak) terminate() {
	for _, sf := range s.f.Subfarms {
		vlans := make([]int, 0, len(sf.Inmates))
		for vlan := range sf.Inmates {
			vlans = append(vlans, int(vlan))
		}
		sort.Ints(vlans)
		for _, vlan := range vlans {
			sf.Inmates[uint16(vlan)].Terminate()
		}
	}
}

// drain runs the farm through drainWindow, flushes the journal, and
// returns a copy of its bytes.
func (s *soak) drain() ([]byte, error) {
	s.f.Run(drainWindow)
	if err := s.sink.Flush(); err != nil {
		return nil, err
	}
	return append([]byte(nil), s.journal.Bytes()...), nil
}

// bad records one violated invariant.
func (s *soak) bad(format string, args ...any) {
	s.problems = append(s.problems, fmt.Sprintf(format, args...))
}

// checkDrained flags a flow table that did not drain empty and returns
// the number of entries left in it.
func (s *soak) checkDrained(sf *farm.Subfarm) int {
	n := sf.Router.ActiveFlows()
	if n != 0 {
		s.bad("%s flow table leaked: %d entries after drain", sf.Name, n)
	}
	return n
}

// checkProbe flags a containment probe that let traffic escape; label
// names the probe in the problem.
func (s *soak) checkProbe(label string, probe *farm.ProbeOutcome) {
	if escaped := probe.Escaped(); len(escaped) > 0 {
		s.bad("%s containment probe escaped: %v", label, escaped)
	}
}
