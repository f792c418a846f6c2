package farm

import (
	"fmt"
	"time"

	"gq/internal/supervisor"
)

// ctlRestartDedup bounds how often the no-tree fallback path restarts
// the controller.
const ctlRestartDedup = 30 * time.Second

// This file wires the farm-root supervision node (supervisor.Root) into
// the farm: controller restart authority, recycler progress watches, and
// external-shard host watches. See DESIGN.md §3k.

// SuperviseTree builds the complete supervision tree: a root node on the
// farm's root domain, every subfarm supervised (Supervise, idempotent)
// and attached under it, progress watches over the recyclers attached so
// far, and aliveness watches over the external hosts present at wiring
// time. Controller down-reports from subfarm probes then feed the root's
// breaker-guarded restart ladder, and a subfarm lockdown that persists
// past DeadManBudget — or a controller that cannot be restarted —
// escalates to global dead-man lockdown. Call once, after the topology
// is built and before Run.
func (f *Farm) SuperviseTree(cfg supervisor.Config) *supervisor.Root {
	if f.Tree != nil {
		return f.Tree
	}
	f.Tree = supervisor.NewRoot(supervisor.RootDeps{
		Sim:               f.Sim,
		ControllerHost:    f.ControllerHost,
		RestartController: f.restartController,
	}, cfg)
	for _, h := range f.extHosts {
		f.Tree.WatchHost(supervisor.KindShard, h.Name, h)
	}
	for _, sf := range f.Subfarms {
		sup := sf.Supervise(cfg)
		f.Tree.Attach(sup)
		f.watchRecycler(sf)
	}
	return f.Tree
}

// watchRecycler registers the tree's progress watch over a subfarm's
// recycler, if both exist. The read and re-arm closures run on the
// subfarm's domain goroutine (the root round-trips via sim.PostTo).
func (f *Farm) watchRecycler(sf *Subfarm) {
	r := sf.Recycler
	if f.Tree == nil || r == nil || r.watched {
		return
	}
	r.watched = true
	f.Tree.WatchProgress(supervisor.KindRecycler, sf.Name, sf.Sim,
		func() (int, bool) { return r.Progress(), r.Active() },
		r.Rearm)
}

// controllerDown receives a subfarm node's controller down-report on the
// root domain goroutine. With a tree, the root's ladder dedups reports
// and owns backoff/breaker; without one, the farm restarts the
// controller directly, deduped to one restart per 30s of sim time so
// multiple subfarms' probes don't stack resets.
func (f *Farm) controllerDown(from string) {
	if f.Tree != nil {
		f.Tree.ReportControllerDown(from)
		return
	}
	now := f.Sim.Now()
	if f.ctlRestarted && now-f.ctlRestartAt < ctlRestartDedup {
		return
	}
	f.ctlRestarted = true
	f.ctlRestartAt = now
	// A failed rebind leaves the controller down; the next report past
	// the dedup window retries.
	_ = f.restartController()
}

// controllerUp receives the matching recovery report.
func (f *Farm) controllerUp(from string) {
	if f.Tree != nil {
		f.Tree.ReportControllerUp(from)
	}
}

// restartController power-cycles the inmate controller host and rebinds
// the control listener, replaying the addressing snapshot taken at
// build. Runs on the root domain goroutine. A failed rebind is returned
// and leaves the host without a control listener.
func (f *Farm) restartController() error {
	h := f.ControllerHost
	h.Reset()
	h.ConfigureStatic(f.ctlAddr, f.ctlBits, 0)
	if err := f.Controller.Rebind(); err != nil {
		return fmt.Errorf("controller rebind: %w", err)
	}
	h.AnnounceARP()
	return nil
}
