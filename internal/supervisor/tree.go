package supervisor

import (
	"fmt"
	"time"

	"gq/internal/host"
	"gq/internal/obs"
	"gq/internal/sim"
	"gq/internal/supervisor/ladder"
)

// Root is the farm-root node of the supervision tree. It runs on the
// farm's root simulation domain and watches the dependencies no single
// subfarm owns: the inmate controller's restart authority (subfarm nodes
// probe it and report here; the root dedups those reports and drives the
// breaker-guarded restart ladder, because the controller lives in the
// root domain), recycler progress per subfarm (wedge detection plus
// re-arm), external-shard service hosts (aliveness), and each subfarm's
// lockdown state. When a root-level dependency stays dead past
// DeadManBudget — the controller unrestartable, or a subfarm still
// locked down — the root escalates to global dead-man lockdown: every
// attached subfarm fails closed at once.
//
// Cross-domain rules match the rest of the tree: subfarm→root reports
// and root→subfarm lockdown commands travel sim.PostTo, so escalation
// order is part of the deterministic event order at any worker count.
// Operator commands (POST /lockdown, the ops dead-man switch) enter from
// alien goroutines via ops.Driver.DoIn, which posts through
// sim.Coordinator.Post onto the root domain before touching any of this
// state.
type Root struct {
	cfg  Config
	deps RootDeps
	s    *sim.Simulator
	sc   *obs.Scope // "supervisor.tree" on the root domain

	subfarms []*subLink

	// ctl is the inmate controller as a root endpoint (nil without a
	// ControllerHost): an ordinary restart ladder, fed by subfarm down/up
	// reports instead of the root's own probes.
	ctl *endpoint

	watches []*progressWatch
	hosts   []*hostWatch

	global   bool
	globalAt time.Duration

	restartsTotal *obs.Counter
	quarantines   *obs.Counter
	rearmsTotal   *obs.Counter
	globalLocks   *obs.Counter
	lockGauge     *obs.Gauge
	watchCounts   map[string]int
}

// RootDeps wires the root node into the farm.
type RootDeps struct {
	Sim *sim.Simulator
	// ControllerHost, when non-nil, is the inmate controller's host;
	// RestartController power-cycles it (reset, re-address, rebind). Both
	// live on the root domain. A restart that returns an error leaves
	// nothing to probe, so the root quarantines the controller.
	ControllerHost    *host.Host
	RestartController func() error
}

type subLink struct {
	name     string
	dom      *sim.Simulator
	sup      *Supervisor
	locked   bool
	lockedAt time.Duration
}

// progressWatch tracks one progress-marked component (a recycler): its
// mark must keep advancing while it is active, or the root declares it
// wedged, journals it, and re-arms it — behind the same circuit breaker
// as restarts (the ladder's strikes are re-arms; its backoff is unused).
type progressWatch struct {
	kind  Kind
	id    string
	dom   *sim.Simulator
	read  func() (mark int, active bool)
	rearm func()

	lastMark    int
	lastChange  time.Duration
	wedged      bool
	quarantined bool
	rearms      ladder.Ladder
	gauge       *obs.Gauge
}

// hostWatch is a pure aliveness watch over a service host (external
// shards): journalled and gauged, never restarted — shard hosts have no
// supervised restart path, they are infrastructure the operator owns.
type hostWatch struct {
	kind  Kind
	id    string
	h     *host.Host
	alive bool
	gauge *obs.Gauge
}

// NewRoot builds the farm-root node and starts its progress poll.
func NewRoot(deps RootDeps, cfg Config) *Root {
	cfg = cfg.withDefaults()
	s := deps.Sim
	o := s.Obs()
	r := &Root{
		cfg: cfg, deps: deps, s: s,
		sc:          o.Scope(TreeScope, obs.DefaultRingSize),
		watchCounts: make(map[string]int),
	}
	const pfx = "supervisor.root."
	r.restartsTotal = o.Reg.Counter(pfx + "restarts")
	r.quarantines = o.Reg.Counter(pfx + "quarantines")
	r.rearmsTotal = o.Reg.Counter(pfx + "rearms")
	r.globalLocks = o.Reg.Counter(pfx + "global_lockdowns")
	r.lockGauge = o.Reg.Gauge("supervisor.root" + LockdownGaugeSuffix)
	if deps.ControllerHost != nil {
		r.ctl = &endpoint{
			kind: KindController, id: "controller", host: deps.ControllerHost,
			healthy: true, ladder: cfg.restartLadder(),
			gauge: o.Reg.Gauge(HealthGaugeName(KindController, "root", "controller")),
		}
		r.ctl.gauge.Set(1)
		r.watchCounts[string(KindController)]++
	}
	s.Every(progressEvery, r.poll)
	return r
}

// Attach links a subfarm node under this root. Called at wiring time,
// before the farm runs. Idempotent per node.
func (r *Root) Attach(sup *Supervisor) {
	if sup.parent != nil {
		return
	}
	sup.parent = r
	sup.parentDom = r.s
	r.subfarms = append(r.subfarms, &subLink{name: sup.deps.Name, dom: sup.s, sup: sup})
}

// WatchProgress registers a progress-marked component owned by domain
// dom. read and rearm are invoked on dom's goroutine (the root
// round-trips via sim.PostTo); read returns the current monotone
// progress mark and whether the component is active — an inactive
// component is never wedged.
func (r *Root) WatchProgress(kind Kind, id string, dom *sim.Simulator, read func() (int, bool), rearm func()) {
	w := &progressWatch{
		kind: kind, id: id, dom: dom, read: read, rearm: rearm,
		lastMark: -1, lastChange: r.s.Now(), rearms: r.cfg.restartLadder(),
		gauge: r.s.Obs().Reg.Gauge(HealthGaugeName(kind, "root", id)),
	}
	w.gauge.Set(1)
	r.watches = append(r.watches, w)
	r.watchCounts[string(kind)]++
}

// WatchHost registers an aliveness watch over a root-domain-reachable
// service host (external-shard hosts are bridged, but their Alive bit is
// plain memory the root may read after a PostTo round trip).
func (r *Root) WatchHost(kind Kind, id string, h *host.Host) {
	w := &hostWatch{
		kind: kind, id: id, h: h, alive: true,
		gauge: r.s.Obs().Reg.Gauge(HealthGaugeName(kind, "root", id)),
	}
	w.gauge.Set(1)
	r.hosts = append(r.hosts, w)
	r.watchCounts[string(kind)]++
}

// WatchCounts reports how many dependencies of each kind the root
// watches. Fixed once wiring completes (before the farm runs); safe to
// read from the ops plane.
func (r *Root) WatchCounts() map[string]int {
	out := make(map[string]int, len(r.watchCounts))
	for k, v := range r.watchCounts {
		out[k] = v
	}
	return out
}

// poll advances every progress and host watch. Watches owned by other
// domains are read with a PostTo round trip — out to the owning domain,
// result posted back — which keeps both sides' event order deterministic.
func (r *Root) poll() {
	for _, w := range r.watches {
		if w.quarantined {
			continue
		}
		w := w
		if w.dom == r.s {
			mark, active := w.read()
			r.noteProgress(w, mark, active)
		} else {
			r.s.PostTo(w.dom, 0, func() {
				mark, active := w.read()
				w.dom.PostTo(r.s, 0, func() { r.noteProgress(w, mark, active) })
			})
		}
	}
	for _, w := range r.hosts {
		w := w
		if w.h.Sim() == r.s {
			r.noteAlive(w, w.h.Alive())
		} else {
			r.s.PostTo(w.h.Sim(), 0, func() {
				alive := w.h.Alive()
				w.h.Sim().PostTo(r.s, 0, func() { r.noteAlive(w, alive) })
			})
		}
	}
}

// noteProgress folds one progress reading into the watch: any mark
// advance (or inactivity) is health; an active mark frozen past
// WedgeBudget is a wedge — journalled, dumped, and re-armed behind the
// breaker.
func (r *Root) noteProgress(w *progressWatch, mark int, active bool) {
	now := r.s.Now()
	if !active || mark != w.lastMark {
		w.lastMark = mark
		w.lastChange = now
		if w.wedged {
			w.wedged = false
			w.gauge.Set(1)
			r.sc.Emit(obs.Event{Type: EvEndpointUp, Detail: string(w.kind) + ":" + w.id})
		}
		return
	}
	if now-w.lastChange <= r.cfg.WedgeBudget || w.wedged {
		return
	}
	w.wedged = true
	w.gauge.Set(0)
	r.sc.Emit(obs.Event{Type: EvEndpointDown, Detail: string(w.kind) + ":" + w.id})
	r.sc.Dump(fmt.Sprintf("%s %s wedged (no progress for %s)", w.kind, w.id, now-w.lastChange))
	// Re-arm behind the breaker: a component that keeps wedging inside
	// the window is quarantined rather than kicked forever.
	if w.rearms.Tripped(now) {
		w.quarantined = true
		r.quarantines.Inc()
		r.sc.Emit(obs.Event{Type: EvEndpointQuarantine, Detail: string(w.kind) + ":" + w.id})
		return
	}
	w.rearms.Strike(now)
	w.lastChange = now // grant a fresh budget after the kick
	r.rearmsTotal.Inc()
	r.sc.Emit(obs.Event{Type: EvEndpointRestart, Detail: string(w.kind) + ":" + w.id + " rearm"})
	if w.dom == r.s {
		w.rearm()
	} else {
		r.s.PostTo(w.dom, 0, w.rearm)
	}
}

// noteAlive folds one aliveness reading into a host watch.
func (r *Root) noteAlive(w *hostWatch, alive bool) {
	if alive == w.alive {
		return
	}
	w.alive = alive
	if alive {
		w.gauge.Set(1)
		r.sc.Emit(obs.Event{Type: EvEndpointUp, Detail: string(w.kind) + ":" + w.id})
		return
	}
	w.gauge.Set(0)
	r.sc.Emit(obs.Event{Type: EvEndpointDown, Detail: string(w.kind) + ":" + w.id})
	r.sc.Dump(fmt.Sprintf("%s %s down", w.kind, w.id))
}

// ReportControllerDown is how subfarm nodes escalate a dead controller:
// the first report starts the restart ladder and the dead-man clock;
// repeats while a restart is pending or the breaker has tripped are
// dedup'd. Runs on the root domain goroutine (callers post).
func (r *Root) ReportControllerDown(from string) {
	ep := r.ctl
	if ep == nil || ep.quarantined {
		return
	}
	if ep.healthy {
		ep.healthy = false
		ep.downAt = r.s.Now()
		ep.gauge.Set(0)
		r.sc.Emit(obs.Event{Type: EvEndpointDown, Detail: "controller:controller by " + from})
		r.sc.Dump("inmate controller down (reported by " + from + ")")
		// Dead-man clock: a controller that stays dead past the budget —
		// restarts failing or breaker tripped — means no lifecycle verbs,
		// no quarantine actions, no recycle: fail the whole farm closed.
		stamp := ep.downAt
		r.s.Schedule(r.cfg.DeadManBudget, func() {
			if !ep.healthy && ep.downAt == stamp && !r.global {
				r.GlobalLockdown("inmate controller dead past budget")
			}
		})
	}
	if !ep.restartPend {
		r.scheduleCtlRestart()
	}
}

// ReportControllerUp is the matching recovery report, sent when a
// subfarm's controller probe answers again.
func (r *Root) ReportControllerUp(from string) {
	ep := r.ctl
	if ep == nil || ep.healthy {
		return
	}
	ep.healthy = true
	ep.ladder.ResetBackoff()
	ep.gauge.Set(1)
	r.sc.Emit(obs.Event{Type: EvEndpointUp, Detail: "controller:controller by " + from})
}

// scheduleCtlRestart arms the next controller restart on its ladder, or
// quarantines the controller once the breaker has tripped.
func (r *Root) scheduleCtlRestart() {
	ep := r.ctl
	if !ep.climb(r.s, r.restartCtl) {
		r.quarantineCtl("restart breaker tripped")
	}
}

// quarantineCtl takes the controller out of the restart ladder for good;
// why names the cause in the flight-recorder dump. The dead-man clock
// started by its down-report keeps running.
func (r *Root) quarantineCtl(why string) {
	r.ctl.quarantined = true
	r.quarantines.Inc()
	r.sc.Emit(obs.Event{Type: EvEndpointQuarantine, Detail: "controller:controller"})
	r.sc.Dump("inmate controller quarantined (" + why + "); dead-man clock running")
}

// restartCtl fires one controller restart. Subfarm probes confirm
// recovery; if none has within two probe cycles, the ladder climbs again.
// A restart that fails quarantines the controller.
func (r *Root) restartCtl() {
	ep := r.ctl
	ep.restartPend = false
	if ep.healthy || ep.quarantined {
		return
	}
	ep.ladder.Strike(r.s.Now())
	r.restartsTotal.Inc()
	r.sc.Emit(obs.Event{Type: EvEndpointRestart, Detail: "controller:controller"})
	if r.deps.RestartController != nil {
		if err := r.deps.RestartController(); err != nil {
			r.quarantineCtl("restart failed: " + err.Error())
			return
		}
	}
	r.s.Schedule(2*r.cfg.HeartbeatEvery, func() {
		if !ep.healthy && !ep.restartPend && !ep.quarantined {
			r.scheduleCtlRestart()
		}
	})
}

// onSubfarmLockdown starts the dead-man clock for a locked-down subfarm:
// lockdown is a holding state, not a resolution, and one that persists
// past DeadManBudget means the farm as a whole can no longer be trusted
// to contain.
func (r *Root) onSubfarmLockdown(name string) {
	for _, l := range r.subfarms {
		if l.name != name {
			continue
		}
		if l.locked {
			return
		}
		l.locked = true
		l.lockedAt = r.s.Now()
		r.sc.Emit(obs.Event{Type: EvEscalate, Detail: "subfarm " + name + " locked down"})
		stamp := l.lockedAt
		r.s.Schedule(r.cfg.DeadManBudget, func() {
			if l.locked && l.lockedAt == stamp && !r.global {
				r.GlobalLockdown("subfarm " + name + " locked down past budget")
			}
		})
		return
	}
}

// onSubfarmRelease clears the dead-man clock for a released subfarm.
func (r *Root) onSubfarmRelease(name string) {
	for _, l := range r.subfarms {
		if l.name == name && l.locked {
			l.locked = false
			return
		}
	}
}

// GlobalLockdown is the dead-man switch: every attached subfarm fails
// closed at once. Runs on the root domain goroutine; the per-subfarm
// engage commands cross-post into each subfarm's domain. Idempotent.
func (r *Root) GlobalLockdown(reason string) {
	if r.global {
		return
	}
	r.global = true
	r.globalAt = r.s.Now()
	r.lockGauge.Set(1)
	r.globalLocks.Inc()
	r.sc.Emit(obs.Event{Type: EvGlobalLockdown, Detail: reason})
	r.sc.Dump("GLOBAL DEAD-MAN LOCKDOWN: " + reason)
	for _, l := range r.subfarms {
		l := l
		if l.dom == r.s {
			l.sup.EngageLockdown("dead-man: " + reason)
		} else {
			r.s.PostTo(l.dom, 0, func() { l.sup.EngageLockdown("dead-man: " + reason) })
		}
	}
}

// Release lifts a global lockdown: every attached subfarm reopens (its
// own escalation clocks restart if its containment plane is still dead).
// Runs on the root domain goroutine.
func (r *Root) Release(reason string) {
	if !r.global {
		return
	}
	r.global = false
	r.lockGauge.Set(0)
	r.sc.Emit(obs.Event{Type: EvGlobalRelease, Detail: reason})
	for _, l := range r.subfarms {
		l := l
		if l.dom == r.s {
			l.sup.ReleaseLockdown("global release: " + reason)
		} else {
			r.s.PostTo(l.dom, 0, func() { l.sup.ReleaseLockdown("global release: " + reason) })
		}
	}
}

// GlobalLockedDown reports whether the dead-man switch is engaged.
func (r *Root) GlobalLockedDown() bool { return r.global }

// GlobalLockdownAt returns the sim time the dead-man switch engaged
// (zero if it never did) — the lockdown-latency benchmark reads it.
func (r *Root) GlobalLockdownAt() time.Duration { return r.globalAt }

// ControllerHealthy reports the controller's current state as the tree
// sees it.
func (r *Root) ControllerHealthy() bool {
	return r.ctl == nil || r.ctl.healthy && !r.ctl.quarantined
}
