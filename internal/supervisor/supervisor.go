// Package supervisor makes the farm's measurement plane self-healing
// while keeping it provably fail-closed. It is organised as a supervision
// tree (DESIGN.md §3k): one per-subfarm node watches every endpoint kind
// an escape could route through — containment servers (sim-clock
// heartbeat probes over the shim channel), sink servers (TCP liveness
// probes from a dedicated prober host) and the farm-wide inmate
// controller (an application-level PING over the management network) —
// and a farm-root node (see Root) watches the root-level dependencies:
// the controller's restart authority, recycler progress, and
// external-shard service hosts.
//
// Every node escalates deterministically on sim-clock budgets:
//
//	probe miss ×K  →  supervised restart (capped exponential backoff plus
//	sim-RNG jitter, behind a circuit breaker)  →  component quarantine
//	→  subfarm fail-closed lockdown (Router.SetLockdown: every live flow
//	resolved through the fail-close path, new traffic dropped)  →
//	global dead-man lockdown when a root-level dependency stays dead
//	past its budget.
//
// Determinism: every timer runs on the owning node's simulation domain
// clock, every random choice (restart jitter) draws from that domain's
// RNG, and every cross-domain escalation travels sim.PostTo — so a
// (seed, profile) pair replays byte-identically at any worker count; the
// tree is just more events in the same ordered world. All state is
// touched only from the owning domain goroutine, like the router's.
package supervisor

import (
	"fmt"
	"strings"
	"time"

	"gq/internal/containment"
	"gq/internal/gateway"
	"gq/internal/host"
	"gq/internal/inmate"
	"gq/internal/netstack"
	"gq/internal/obs"
	"gq/internal/sim"
	"gq/internal/supervisor/ladder"
)

// Kind names an endpoint class in the supervision tree. It appears in
// health-gauge names (supervisor.<kind>.<id>.healthy) and journal events.
type Kind string

// Supervised endpoint kinds.
const (
	KindCS         Kind = "cs"         // containment server (shim heartbeats)
	KindSink       Kind = "sink"       // sink server (TCP liveness probe)
	KindController Kind = "controller" // inmate controller (PING/PONG probe)
	KindRecycler   Kind = "recycler"   // recycling pipeline (progress watch)
	KindShard      Kind = "shard"      // external-shard service host (aliveness)
)

// Journalled supervision events (all under obs.EvSupervisorPrefix). The
// containment-server kind keeps its original vocabulary; every other kind
// uses the generic endpoint events with "<kind>:<id>" in Detail. A
// subfarm node journals everything — endpoint transitions, escalations,
// its lockdowns and releases — on its own "supervisor.<subfarm>" scope;
// the farm root journals under "supervisor.tree".
const (
	EvCSDown           = obs.EvSupervisorPrefix + "cs_down"
	EvCSUp             = obs.EvSupervisorPrefix + "cs_up"
	EvCSRestart        = obs.EvSupervisorPrefix + "cs_restart"
	EvCSQuarantine     = obs.EvSupervisorPrefix + "cs_quarantine"
	EvInmateQuarantine = obs.EvSupervisorPrefix + "inmate_quarantine"

	EvEndpointDown       = obs.EvSupervisorPrefix + "down"
	EvEndpointUp         = obs.EvSupervisorPrefix + "up"
	EvEndpointRestart    = obs.EvSupervisorPrefix + "restart"
	EvEndpointQuarantine = obs.EvSupervisorPrefix + "quarantine"

	EvEscalate        = obs.EvSupervisorPrefix + "escalate"
	EvLockdown        = obs.EvSupervisorPrefix + "lockdown"
	EvLockdownRelease = obs.EvSupervisorPrefix + "lockdown_release"
	EvGlobalLockdown  = obs.EvSupervisorPrefix + "global_lockdown"
	EvGlobalRelease   = obs.EvSupervisorPrefix + "global_release"
)

// TreeScope is the farm-root node's journal scope, bound to the root
// domain's stream.
const TreeScope = "supervisor.tree"

// Config tunes the supervision loops. Zero values select the defaults.
type Config struct {
	// HeartbeatEvery is the probe cadence per endpoint, every kind.
	HeartbeatEvery time.Duration // default 5s
	// HeartbeatTimeout is how long one probe may go unanswered.
	HeartbeatTimeout time.Duration // default 1s
	// MissThreshold is K: consecutive missed deadlines marking an endpoint
	// unhealthy.
	MissThreshold int // default 3

	// RestartBackoff is the initial restart delay after an endpoint goes
	// down; it doubles per attempt up to restartBackoffMax, each attempt
	// jittered by up to restartJitter of the delay (sim RNG).
	RestartBackoff time.Duration // default 5s

	// BreakerThreshold restarts within BreakerWindow trip the circuit
	// breaker: the endpoint is drained and no longer redialed.
	BreakerWindow    time.Duration // default 10m
	BreakerThreshold int           // default 5

	// LockdownBudget is how long the subfarm's containment plane may stay
	// fully dead — every containment server down or quarantined,
	// continuously — before the node escalates to subfarm fail-closed
	// lockdown.
	LockdownBudget time.Duration // default 2m
	// DeadManBudget is how long a root-level dependency (the controller,
	// or a subfarm already in lockdown) may stay dead before the root
	// node escalates to global dead-man lockdown.
	DeadManBudget time.Duration // default 5m
	// WedgeBudget is how long a progress-watched component may go without
	// advancing its mark, while active, before it is declared wedged and
	// re-armed.
	WedgeBudget time.Duration // default 15m
}

func (c Config) withDefaults() Config {
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 5 * time.Second
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = time.Second
	}
	if c.MissThreshold <= 0 {
		c.MissThreshold = 3
	}
	if c.RestartBackoff <= 0 {
		c.RestartBackoff = 5 * time.Second
	}
	if c.BreakerWindow <= 0 {
		c.BreakerWindow = 10 * time.Minute
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.LockdownBudget <= 0 {
		c.LockdownBudget = 2 * time.Minute
	}
	if c.DeadManBudget <= 0 {
		c.DeadManBudget = 5 * time.Minute
	}
	if c.WedgeBudget <= 0 {
		c.WedgeBudget = 15 * time.Minute
	}
	return c
}

// Fixed supervision tuning.
const (
	restartBackoffMax = 2 * time.Minute
	restartJitter     = 0.5

	// inmateStrikeThreshold strikes (trigger firings or containment-probe
	// escapes) within inmateStrikeWindow quarantine an inmate via the
	// controller with the inmateQuarantineAction lifecycle verb.
	inmateStrikeWindow     = 30 * time.Minute
	inmateStrikeThreshold  = 3
	inmateQuarantineAction = "stop"

	// progressEvery is the root node's progress-watch poll cadence
	// (recyclers, external-shard hosts).
	progressEvery = 30 * time.Second
)

// restartLadder is the backoff schedule and circuit breaker every
// restartable endpoint (and every progress watch) climbs.
func (c Config) restartLadder() ladder.Ladder {
	return ladder.Ladder{
		Base: c.RestartBackoff, Max: restartBackoffMax, Jitter: restartJitter,
		Window: c.BreakerWindow, Threshold: c.BreakerThreshold,
	}
}

// Endpoint pairs a containment server with the host it runs on.
type Endpoint struct {
	Srv  *containment.Server
	Host *host.Host
}

// SinkEndpoint describes one supervised sink server: the host it runs
// on, a TCP port a liveness probe can dial, and the Rebind closure that
// reinstalls its listeners after a supervised host reset.
type SinkEndpoint struct {
	ID     string // SvcHosts role, e.g. "catchall", "smtpsink"
	Host   *host.Host
	Port   uint16
	Rebind func() error
}

// Deps wires a Supervisor into its subfarm. Everything lives in (or is
// reachable from) the subfarm's simulation domain.
type Deps struct {
	Sim    *sim.Simulator
	Router *gateway.Router
	Name   string // subfarm name, used in metric and scope names
	// Endpoints lists the containment servers in router endpoint-index
	// order (cluster order, or the single server).
	Endpoints []Endpoint
	// Sinks lists the subfarm's supervised sink servers. Each is probed
	// with a TCP dial from Prober and restarted in place (host reset +
	// Rebind) on its own breaker-guarded ladder.
	Sinks []SinkEndpoint
	// Prober is the service-VLAN host sink liveness probes dial from.
	// Required when Sinks is non-empty.
	Prober *host.Host
	// Mgmt is the subfarm's management-network host; inmate-quarantine
	// actions are sent from it to Controller over the real management
	// network, cross-posting into the inmate's shard domain like any other
	// controller action. It is also where controller liveness probes dial
	// from.
	Mgmt       *host.Host
	Controller *host.Host

	// WatchController probes the farm-wide inmate controller with an
	// application-level PING from Mgmt. The subfarm node only detects —
	// restart authority belongs to the farm root, which owns the
	// controller's domain — so down/up transitions are reported through
	// the two callbacks below (invoked on the subfarm's goroutine; the
	// farm wiring posts them into the root domain).
	WatchController  bool
	OnControllerDown func()
	OnControllerUp   func()
}

// Health gauges, one per supervised endpoint, named
// supervisor.<kind>.<scope>-<id>.healthy (1 healthy, 0 down). The ops
// plane's /healthz handler scans the registry snapshot for them and
// reports a per-kind breakdown; degraded when any reads 0 or an expected
// kind registered none.
const (
	HealthGaugePrefix = "supervisor."
	HealthGaugeSuffix = ".healthy"
)

// HealthGaugeName returns the registry gauge name for one endpoint's
// health bit. scope is the owning node ("<subfarm>" or "root").
func HealthGaugeName(kind Kind, scope, id string) string {
	return HealthGaugePrefix + string(kind) + "." + scope + "-" + id + HealthGaugeSuffix
}

// ParseHealthGauge splits a registry gauge name produced by
// HealthGaugeName back into its kind and "<scope>-<id>" endpoint name.
func ParseHealthGauge(name string) (kind Kind, endpoint string, ok bool) {
	if !strings.HasPrefix(name, HealthGaugePrefix) || !strings.HasSuffix(name, HealthGaugeSuffix) {
		return "", "", false
	}
	body := strings.TrimSuffix(strings.TrimPrefix(name, HealthGaugePrefix), HealthGaugeSuffix)
	k, ep, found := strings.Cut(body, ".")
	if !found || k == "" || ep == "" {
		return "", "", false
	}
	return Kind(k), ep, true
}

// LockdownGaugeSuffix suffixes the per-node lockdown gauges
// ("supervisor.<name>.lockdown", 1 while the node is in fail-closed
// lockdown).
const LockdownGaugeSuffix = ".lockdown"

// endpoint is the supervisor's per-endpoint state, shared by every kind.
type endpoint struct {
	kind Kind
	id   string // "cs0", "catchall", "controller", ...

	srv    *containment.Server // KindCS
	csIdx  int                 // router endpoint index (KindCS)
	host   *host.Host
	port   uint16       // probe port (sink, controller)
	prober *host.Host   // host TCP probes dial from
	rebind func() error // reinstalls app listeners after host reset (sink)

	// watchOnly endpoints (the controller) are probed and journalled but
	// never restarted here: restart authority lives at the tree root, and
	// transitions are reported through the notify hooks.
	watchOnly    bool
	onDown, onUp func()

	// Addressing snapshot taken at attach time, replayed on restart.
	addr netstack.Addr
	bits int
	gw   netstack.Addr

	healthy     bool
	quarantined bool
	misses      int // consecutive missed probe deadlines
	seq         uint64
	replied     bool // current probe answered

	ladder      ladder.Ladder // restart backoff; strikes are restarts
	restartPend bool
	downAt      time.Duration

	gauge *obs.Gauge // supervisor.<kind>.<subfarm>-<id>.healthy
}

// climb arms the endpoint's next restart attempt on s, backed off and
// jittered by its ladder. It reports false, arming nothing, when the
// breaker has tripped instead.
func (ep *endpoint) climb(s *sim.Simulator, restart func()) bool {
	if ep.ladder.Tripped(s.Now()) {
		return false
	}
	ep.restartPend = true
	s.Schedule(ep.ladder.Delay(s.Rand()), restart)
	return true
}

// Supervisor is one subfarm's supervision-tree node.
type Supervisor struct {
	cfg  Config
	deps Deps
	s    *sim.Simulator
	sc   *obs.Scope // "supervisor.<name>": transitions and escalations

	eps    []*endpoint // every supervised endpoint, probe order
	csEps  []*endpoint // the containment servers, router index order
	ticker *sim.Ticker

	// Inmate quarantine state: a strike breaker per VLAN, and which VLANs
	// have already been quarantined.
	strikes     map[uint16]*ladder.Ladder
	quarantined map[uint16]bool

	// Escalation state: containment fully dead since (or -1), and
	// lockdown engaged.
	deadSince time.Duration
	lockdown  bool

	// parent links this node under a farm-root node (Root.Attach).
	parent    *Root
	parentDom *sim.Simulator

	restartsTotal     *obs.Counter
	quarantinesTotal  *obs.Counter
	sinkQuarantines   *obs.Counter
	missesTotal       *obs.Counter
	inmateQuarantines *obs.Counter
	lockdownsTotal    *obs.Counter
	recoveryMS        *obs.Histogram
	lockGauge         *obs.Gauge

	// watchCounts is the build-time endpoint census per kind, read by the
	// ops plane's /healthz to detect expected-but-absent kinds. Fixed
	// after New, so it is safe to read from alien goroutines.
	watchCounts map[string]int

	// Recoveries records each containment-server down->healthy interval,
	// in order. The recovery-time benchmark and the recovery soak's
	// bounded-recovery assertion read it.
	Recoveries []time.Duration
}

// New attaches a supervisor to its subfarm and starts the probe loop.
func New(deps Deps, cfg Config) *Supervisor {
	cfg = cfg.withDefaults()
	s := deps.Sim
	o := s.Obs()
	sup := &Supervisor{
		cfg: cfg, deps: deps, s: s,
		sc:          o.Scope("supervisor."+deps.Name, obs.DefaultRingSize),
		strikes:     make(map[uint16]*ladder.Ladder),
		quarantined: make(map[uint16]bool),
		deadSince:   -1,
		watchCounts: make(map[string]int),
	}
	pfx := "supervisor." + deps.Name + "."
	sup.restartsTotal = o.Reg.Counter(pfx + "restarts")
	sup.quarantinesTotal = o.Reg.Counter(pfx + "cs_quarantines")
	sup.sinkQuarantines = o.Reg.Counter(pfx + "sink_quarantines")
	sup.missesTotal = o.Reg.Counter(pfx + "heartbeats_missed")
	sup.inmateQuarantines = o.Reg.Counter(pfx + "inmate_quarantines")
	sup.lockdownsTotal = o.Reg.Counter(pfx + "lockdowns")
	sup.lockGauge = o.Reg.Gauge("supervisor." + deps.Name + LockdownGaugeSuffix)
	sup.recoveryMS = o.Reg.Histogram(pfx+"recovery_ms",
		10, 50, 100, 500, 1000, 5000, 15000, 30000, 60000, 120000)
	add := func(ep *endpoint) {
		ep.healthy = true
		ep.ladder = cfg.restartLadder()
		ep.gauge = o.Reg.Gauge(HealthGaugeName(ep.kind, deps.Name, ep.id))
		ep.gauge.Set(1)
		sup.eps = append(sup.eps, ep)
		sup.watchCounts[string(ep.kind)]++
	}
	for i, e := range deps.Endpoints {
		ep := &endpoint{
			kind: KindCS, id: fmt.Sprintf("cs%d", i), csIdx: i,
			srv: e.Srv, host: e.Host,
			addr: e.Host.Addr(), bits: e.Host.PrefixBits(), gw: e.Host.Gateway(),
		}
		add(ep)
		sup.csEps = append(sup.csEps, ep)
	}
	for _, se := range deps.Sinks {
		add(&endpoint{
			kind: KindSink, id: se.ID, host: se.Host, port: se.Port,
			prober: deps.Prober, rebind: se.Rebind,
			addr: se.Host.Addr(), bits: se.Host.PrefixBits(), gw: se.Host.Gateway(),
		})
	}
	if deps.WatchController && deps.Controller != nil && deps.Mgmt != nil {
		add(&endpoint{
			kind: KindController, id: "controller",
			host: deps.Controller, port: inmate.ControllerPort, prober: deps.Mgmt,
			watchOnly: true, onDown: deps.OnControllerDown, onUp: deps.OnControllerUp,
			addr: deps.Controller.Addr(),
		})
	}
	deps.Router.SetHealthObserver(sup.onHealthReply)
	sup.ticker = s.Every(cfg.HeartbeatEvery, sup.tick)
	return sup
}

// Stop halts the probe loop (pending restarts still fire).
func (sup *Supervisor) Stop() { sup.ticker.Stop() }

// Name returns the node's subfarm name.
func (sup *Supervisor) Name() string { return sup.deps.Name }

// WatchCounts reports how many endpoints of each kind this node
// supervises. Fixed at build time; safe from any goroutine.
func (sup *Supervisor) WatchCounts() map[string]int {
	out := make(map[string]int, len(sup.watchCounts))
	for k, v := range sup.watchCounts {
		out[k] = v
	}
	return out
}

// tick probes every non-quarantined endpoint, in attach order, and arms
// the per-probe deadline.
func (sup *Supervisor) tick() {
	for _, ep := range sup.eps {
		if ep.quarantined {
			continue
		}
		ep.seq++
		ep.replied = false
		seq := ep.seq
		switch ep.kind {
		case KindCS:
			sup.deps.Router.SendHealthProbe(ep.csIdx, seq)
		case KindController:
			sup.probePing(ep, seq)
		default:
			sup.probeTCP(ep, seq)
		}
		e := ep
		sup.s.Schedule(sup.cfg.HeartbeatTimeout, func() { sup.checkDeadline(e, seq) })
	}
}

// probeTCP checks a sink endpoint with a bare TCP dial from the prober
// host: reaching ESTABLISHED within the deadline is alive. The probe
// connection is aborted immediately — it exists only for the handshake.
func (sup *Supervisor) probeTCP(ep *endpoint, seq uint64) {
	c := ep.prober.Dial(ep.host.Addr(), ep.port)
	done := false
	c.OnConnect = func() {
		done = true
		c.Abort()
		sup.onProbeReply(ep, seq)
	}
	sup.s.Schedule(sup.cfg.HeartbeatTimeout, func() {
		if !done {
			c.Abort()
		}
	})
}

// probePing checks the inmate controller with an application-level PING
// over the management network: only a PONG line within the deadline is
// alive, so a hung controller (accepting but not answering) reads as
// down even though its SYN backlog is healthy.
func (sup *Supervisor) probePing(ep *endpoint, seq uint64) {
	c := ep.prober.Dial(ep.host.Addr(), ep.port)
	done := false
	var buf []byte
	c.OnConnect = func() { c.Write([]byte("PING\n")) }
	c.OnData = func(d []byte) {
		if done {
			return
		}
		buf = append(buf, d...)
		nl := strings.IndexByte(string(buf), '\n')
		if nl < 0 {
			return
		}
		done = true
		if strings.TrimSpace(string(buf[:nl])) == "PONG" {
			sup.onProbeReply(ep, seq)
		}
		c.Close()
	}
	sup.s.Schedule(sup.cfg.HeartbeatTimeout, func() {
		if !done {
			done = true
			c.Abort()
		}
	})
}

// onHealthReply receives containment-server heartbeat echoes from the
// router.
func (sup *Supervisor) onHealthReply(idx int, seq uint64) {
	if idx < 0 || idx >= len(sup.csEps) {
		return
	}
	sup.onProbeReply(sup.csEps[idx], seq)
}

// onProbeReply handles a live probe answer for any endpoint kind.
func (sup *Supervisor) onProbeReply(ep *endpoint, seq uint64) {
	if ep.quarantined || seq != ep.seq {
		return // stale echo from before a restart; ignore
	}
	ep.replied = true
	ep.misses = 0
	if !ep.healthy {
		sup.markUp(ep)
	}
}

// checkDeadline runs HeartbeatTimeout after each probe: a missing echo is
// one miss; K consecutive misses mark the endpoint down and (re)schedule a
// restart. The miss count resets at each threshold crossing so an endpoint
// that crashes again mid-recovery earns a fresh (backed-off) restart
// instead of being forgotten. Watch-only endpoints re-notify the tree
// root at each crossing instead of restarting.
func (sup *Supervisor) checkDeadline(ep *endpoint, seq uint64) {
	if ep.quarantined || seq != ep.seq || ep.replied {
		return
	}
	ep.misses++
	sup.missesTotal.Inc()
	if ep.misses < sup.cfg.MissThreshold {
		return
	}
	ep.misses = 0
	if ep.healthy {
		sup.markDown(ep)
	} else if ep.watchOnly && ep.onDown != nil {
		// Still dead at the next threshold crossing: remind the restart
		// authority, which dedups and owns the backoff ladder.
		ep.onDown()
	}
	if !ep.watchOnly && !ep.restartPend {
		sup.scheduleRestart(ep)
	}
}

// markDown transitions an endpoint to unhealthy. A containment server
// additionally drops out of dispatch and has its stranded flows resolved
// fail-closed; every kind dumps the flight recorder for post-mortem.
func (sup *Supervisor) markDown(ep *endpoint) {
	ep.healthy = false
	ep.downAt = sup.s.Now()
	ep.gauge.Set(0)
	switch ep.kind {
	case KindCS:
		sup.deps.Router.SetEndpointHealth(ep.csIdx, false)
		failed := sup.deps.Router.FailCloseEndpoint(ep.csIdx, "containment server down")
		sup.emit(ep, EvCSDown, EvEndpointDown)
		sup.sc.Dump(fmt.Sprintf("containment server %s down (%d flows failed closed)", ep.id, failed))
		sup.checkContainment()
	default:
		sup.emit(ep, EvCSDown, EvEndpointDown)
		sup.sc.Dump(fmt.Sprintf("%s %s down", ep.kind, ep.id))
	}
	if ep.onDown != nil {
		ep.onDown()
	}
}

// markUp transitions an endpoint back to healthy once a probe confirms
// the restart took. Containment servers resume dispatch and record the
// down->up recovery time.
func (sup *Supervisor) markUp(ep *endpoint) {
	ep.healthy = true
	ep.ladder.ResetBackoff()
	ep.gauge.Set(1)
	switch ep.kind {
	case KindCS:
		sup.deps.Router.SetEndpointHealth(ep.csIdx, true)
		recovery := sup.s.Now() - ep.downAt
		sup.Recoveries = append(sup.Recoveries, recovery)
		sup.recoveryMS.Observe(int64(recovery / time.Millisecond))
		sup.emit(ep, EvCSUp, EvEndpointUp)
		sup.checkContainment()
	default:
		sup.emit(ep, EvCSUp, EvEndpointUp)
	}
	if ep.onUp != nil {
		ep.onUp()
	}
}

// scheduleRestart arms the next restart attempt on the endpoint's ladder,
// or quarantines it once the breaker has tripped.
func (sup *Supervisor) scheduleRestart(ep *endpoint) {
	if !ep.climb(sup.s, func() { sup.restart(ep) }) {
		sup.quarantine(ep, "")
	}
}

// restart brings a crashed endpoint back: reset the host, replay its
// addressing, rebind the listeners, re-announce ARP. Health is NOT
// assumed — only the next probe answer marks the endpoint up. A rebind
// that fails leaves nothing to probe, so the endpoint is quarantined.
func (sup *Supervisor) restart(ep *endpoint) {
	ep.restartPend = false
	if ep.quarantined || ep.healthy {
		return
	}
	ep.host.Reset()
	ep.host.ConfigureStatic(ep.addr, ep.bits, ep.gw)
	var err error
	switch {
	case ep.kind == KindCS:
		err = ep.srv.Rebind()
	case ep.rebind != nil:
		err = ep.rebind()
	}
	if err != nil {
		sup.quarantine(ep, "rebind failed: "+err.Error())
		return
	}
	ep.host.AnnounceARP()
	ep.ladder.Strike(sup.s.Now())
	sup.restartsTotal.Inc()
	sup.emit(ep, EvCSRestart, EvEndpointRestart)
}

// emit journals one endpoint transition. Containment servers keep their
// cs_* vocabulary with the bare id (and router index in N); every other
// kind uses the generic event with "<kind>:<id>".
func (sup *Supervisor) emit(ep *endpoint, csType, genericType string) {
	typ, detail := genericType, string(ep.kind)+":"+ep.id
	if ep.kind == KindCS {
		typ, detail = csType, ep.id
	}
	sup.sc.Emit(obs.Event{Type: typ, N: uint64(ep.csIdx), SrcIP: uint32(ep.addr), Detail: detail})
}

// quarantine takes an endpoint out of service for good — the restart
// breaker tripped, or (why non-empty) a restart could not complete: the
// endpoint is drained (a containment server's remaining dependent flows
// fail-closed), excluded from dispatch, and no longer probed or restarted.
func (sup *Supervisor) quarantine(ep *endpoint, why string) {
	if ep.quarantined {
		return
	}
	ep.quarantined = true
	ep.healthy = false
	ep.gauge.Set(0)
	if why != "" {
		why = ": " + why
	}
	switch ep.kind {
	case KindCS:
		sup.deps.Router.SetEndpointHealth(ep.csIdx, false)
		failed := sup.deps.Router.FailCloseEndpoint(ep.csIdx, "containment server quarantined")
		sup.quarantinesTotal.Inc()
		sup.emit(ep, EvCSQuarantine, EvEndpointQuarantine)
		sup.sc.Dump(fmt.Sprintf("containment server %s quarantined (%d flows failed closed)%s", ep.id, failed, why))
		sup.checkContainment()
	default:
		sup.sinkQuarantines.Inc()
		sup.emit(ep, EvCSQuarantine, EvEndpointQuarantine)
		sup.sc.Dump(fmt.Sprintf("%s %s quarantined%s", ep.kind, ep.id, why))
	}
}

// containmentDead reports whether every containment server is down or
// quarantined — the state no flow can be adjudicated in.
func (sup *Supervisor) containmentDead() bool {
	for _, ep := range sup.csEps {
		if ep.healthy {
			return false
		}
	}
	return len(sup.csEps) > 0
}

// checkContainment runs after every containment-server health transition:
// the moment the whole plane goes dark the lockdown clock starts, and if
// it is still dark LockdownBudget later the node fails the subfarm
// closed. Any single recovery resets the clock.
func (sup *Supervisor) checkContainment() {
	if !sup.containmentDead() {
		sup.deadSince = -1
		return
	}
	if sup.deadSince >= 0 || sup.lockdown {
		return
	}
	stamp := sup.s.Now()
	sup.deadSince = stamp
	sup.sc.Emit(obs.Event{Type: EvEscalate, Detail: sup.deps.Name + ": containment plane dead"})
	sup.s.Schedule(sup.cfg.LockdownBudget, func() {
		if sup.deadSince == stamp && !sup.lockdown && sup.containmentDead() {
			sup.EngageLockdown("containment plane dead past budget")
		}
	})
}

// EngageLockdown fails the whole subfarm closed: every live flow is
// resolved through the router's fail-close path and new traffic is
// dropped at the router until release. The escalation is journalled
// under the node's own scope with a flight-recorder dump and reported to the
// tree root, which starts the global dead-man clock. Runs on the
// subfarm's domain goroutine; idempotent. Returns the number of flows
// failed closed.
func (sup *Supervisor) EngageLockdown(reason string) int {
	if sup.lockdown {
		return 0
	}
	sup.lockdown = true
	sup.lockGauge.Set(1)
	sup.lockdownsTotal.Inc()
	failed := sup.deps.Router.SetLockdown(true, "subfarm lockdown: "+reason)
	sup.sc.Emit(obs.Event{Type: EvLockdown, N: uint64(failed), Detail: sup.deps.Name + ": " + reason})
	sup.sc.Dump(fmt.Sprintf("subfarm %s locked down (%s; %d flows failed closed)", sup.deps.Name, reason, failed))
	if sup.parent != nil {
		name := sup.deps.Name
		root := sup.parent
		if sup.parentDom == sup.s {
			root.onSubfarmLockdown(name)
		} else {
			sup.s.PostTo(sup.parentDom, 0, func() { root.onSubfarmLockdown(name) })
		}
	}
	return failed
}

// ReleaseLockdown reopens the subfarm: the router accepts new flows
// again, and if the containment plane is still dead a fresh lockdown
// budget starts counting. Runs on the subfarm's domain goroutine.
func (sup *Supervisor) ReleaseLockdown(reason string) {
	if !sup.lockdown {
		return
	}
	sup.lockdown = false
	sup.lockGauge.Set(0)
	sup.deps.Router.SetLockdown(false, reason)
	sup.sc.Emit(obs.Event{Type: EvLockdownRelease, Detail: sup.deps.Name + ": " + reason})
	if sup.parent != nil {
		name := sup.deps.Name
		root := sup.parent
		if sup.parentDom == sup.s {
			root.onSubfarmRelease(name)
		} else {
			sup.s.PostTo(sup.parentDom, 0, func() { root.onSubfarmRelease(name) })
		}
	}
	sup.deadSince = -1
	sup.checkContainment()
}

// LockedDown reports whether the subfarm is in fail-closed lockdown.
func (sup *Supervisor) LockedDown() bool { return sup.lockdown }

// ObserveLifecycle records a trigger-driven lifecycle action against the
// inmate's strike count. Called from the subfarm's lifecycle sink, in the
// subfarm's domain.
func (sup *Supervisor) ObserveLifecycle(action string, vlan uint16) {
	sup.strike(vlan, "trigger:"+action)
}

// ReportEscape records a containment-probe escape against the inmate's
// strike count.
func (sup *Supervisor) ReportEscape(vlan uint16) {
	sup.strike(vlan, "probe-escape")
}

// strike adds one strike for an inmate and quarantines it at the
// threshold: repeated trigger firings or probe escapes mean containment is
// not holding the specimen — revert/stop it rather than keep fighting.
func (sup *Supervisor) strike(vlan uint16, why string) {
	if sup.quarantined[vlan] {
		return
	}
	b := sup.strikes[vlan]
	if b == nil {
		b = &ladder.Ladder{Window: inmateStrikeWindow, Threshold: inmateStrikeThreshold}
		sup.strikes[vlan] = b
	}
	now := sup.s.Now()
	b.Strike(now)
	if !b.Tripped(now) {
		return
	}
	sup.quarantined[vlan] = true
	sup.inmateQuarantines.Inc()
	sup.sc.Emit(obs.Event{Type: EvInmateQuarantine, VLAN: vlan, Detail: why})
	sup.sc.Dump(fmt.Sprintf("inmate VLAN %d quarantined (%s)", vlan, why))
	// The quarantine action travels the real management network to the
	// farm controller, which cross-posts the execution into the inmate's
	// shard domain exactly like trigger-driven lifecycle actions.
	inmate.SendAction(sup.deps.Mgmt, sup.deps.Controller, inmateQuarantineAction, vlan, nil)
}

// Healthy reports containment-server endpoint idx's current health.
func (sup *Supervisor) Healthy(idx int) bool {
	if idx < 0 || idx >= len(sup.csEps) {
		return false
	}
	return sup.csEps[idx].healthy
}

// Quarantined reports whether containment-server endpoint idx tripped the
// circuit breaker.
func (sup *Supervisor) Quarantined(idx int) bool {
	if idx < 0 || idx >= len(sup.csEps) {
		return false
	}
	return sup.csEps[idx].quarantined
}

// EndpointHealthy reports the current health of any supervised endpoint
// by kind and id ("cs0", "catchall", "controller", ...).
func (sup *Supervisor) EndpointHealthy(kind Kind, id string) bool {
	for _, ep := range sup.eps {
		if ep.kind == kind && ep.id == id {
			return ep.healthy
		}
	}
	return false
}

// InmateQuarantined reports whether the supervisor quarantined a VLAN.
func (sup *Supervisor) InmateQuarantined(vlan uint16) bool { return sup.quarantined[vlan] }
