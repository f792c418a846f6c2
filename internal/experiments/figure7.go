package experiments

import (
	"strconv"
	"time"

	"gq/internal/farm"
	"gq/internal/netstack"
	"gq/internal/policy"
	"gq/internal/shim"
	"gq/internal/smtpx"
)

// Figure7Config tunes the Botfarm reproduction.
type Figure7Config struct {
	Seed     int64
	Duration time.Duration
	// DropProb makes the SMTP sink drop connections probabilistically,
	// producing the Fig. 7 flows-vs-sessions gap.
	DropProb float64
	// RustockInmates / GrumInmates sizes the population.
	RustockInmates, GrumInmates int
}

// Figure7Outcome carries the regenerated report plus the numeric shape.
type Figure7Outcome struct {
	Farm    *farm.Farm
	Subfarm *farm.Subfarm
	Report  string

	ReflectedSMTPFlows int
	SMTPSessions       uint64
	SMTPDataTransfers  uint64
}

// RunFigure7 builds the "Botfarm" from Fig. 6/Fig. 7 — Rustock and Grum
// inmates under their per-family policies, auto-infection, SMTP sinks with
// probabilistic dropping — runs it, and renders the activity report.
func RunFigure7(cfg Figure7Config) (*Figure7Outcome, error) {
	if cfg.Duration == 0 {
		cfg.Duration = time.Hour
	}
	if cfg.RustockInmates == 0 {
		cfg.RustockInmates = 1
	}
	if cfg.GrumInmates == 0 {
		cfg.GrumInmates = 1
	}
	f := farm.New(cfg.Seed)
	ccAddr, err := steephost(f)
	if err != nil {
		return nil, err
	}

	rustockHi := 15 + cfg.RustockInmates
	grumHi := rustockHi + cfg.GrumInmates
	policyText := "[VLAN 16-" + itoa(rustockHi) + "]\n" +
		"Decider = Rustock\nInfection = rustock.100921.*.exe\n\n" +
		"[VLAN " + itoa(rustockHi+1) + "-" + itoa(grumHi) + "]\n" +
		"Decider = Grum\nInfection = grum.100818.*.exe\n\n" +
		"[VLAN 16-" + itoa(grumHi) + "]\n" +
		"Trigger = *:25/tcp / 30min < 1 -> revert\n"

	sf, err := f.AddSubfarm(farm.SubfarmConfig{
		Name:   "Botfarm",
		VLANLo: 16, VLANHi: uint16(grumHi + 2),
		ServiceVLAN:  11,
		GlobalPool:   netstack.MustParsePrefix("192.0.2.0/24"),
		InfraPool:    netstack.MustParsePrefix("192.0.9.0/24"),
		PolicyConfig: policyText,
		SampleLibrary: []*policy.Sample{
			policy.NewSample("rustock.100921.001.exe", "rustock", []byte("MZ-rustock-1")),
			policy.NewSample("grum.100818.001.exe", "grum", []byte("MZ-grum-1")),
		},
		RepeatBatches: true,
		CCHosts: map[string]policy.AddrPort{
			"Rustock": {Addr: ccAddr, Port: 443},
			"Grum":    {Addr: ccAddr, Port: 80},
		},
		SinkDropProb:   cfg.DropProb,
		SinkStrictness: smtpx.Lenient,
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.RustockInmates+cfg.GrumInmates; i++ {
		if _, err := sf.AddInmate("bot"); err != nil {
			return nil, err
		}
	}
	f.Run(cfg.Duration)

	out := &Figure7Outcome{Farm: f, Subfarm: sf}
	out.Report = f.Reporter(true).Generate()
	for _, rec := range sf.Router.Records() {
		if rec.RespPort == 25 && rec.Verdict.Has(shim.Reflect) {
			out.ReflectedSMTPFlows++
		}
	}
	for _, st := range sf.SMTPAnalyzer.PerInmate {
		out.SMTPSessions += st.Sessions
		out.SMTPDataTransfers += st.DataTransfers
	}
	return out, nil
}

func itoa(v int) string { return strconv.Itoa(v) }
