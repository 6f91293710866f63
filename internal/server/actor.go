package server

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"gdr/internal/core"
	"gdr/internal/faultfs"
	"gdr/internal/metrics"
	"gdr/internal/obs"
)

// ErrSessionClosed is returned for requests against a deleted or evicted
// session.
var ErrSessionClosed = errors.New("server: session closed")

// actor serializes the commands on one core.Session, which is single-writer
// by design. A command runs on its caller's goroutine while it holds the
// session's turn, a one-slot channel: Go hands a freed channel slot to its
// blocked senders in arrival order, so commands run one at a time, first
// come first served, and no goroutine is parked per session. A sync.Mutex
// would do neither: it cannot be abandoned when the request context
// expires, and it does not queue its waiters in order. CPU time across all
// sessions is budgeted by the store's fair slot scheduler: a command holds
// as many slots as its session's worker fan-out while it runs, charged to
// the session's tenant, so M live sessions make progress in parallel up to
// the budget and no tenant can monopolize it.
type actor struct {
	sess    *core.Session
	turn    chan struct{} // one slot: a command holds it while it runs
	done    chan struct{}
	once    sync.Once
	waiting atomic.Int32 // commands waiting for the turn
	depth   int          // how many commands may wait while one runs
	slots   int          // slots one command occupies: the session's worker fan-out
	tenant  string
	sched   *sched
	reg     *metrics.Registry
	faults  *faultfs.Injector

	// cur is the trace of the command being executed right now. Only the
	// turn holder writes or reads it (set before fn runs, cleared after),
	// and the session's phase hook fires inside fn, so engine phases can
	// attach spans to the request that triggered them; the turn's channel
	// handoff orders one holder's accesses before the next's.
	cur *obs.Trace
}

// defaultQueueDepth bounds how many commands one session may have waiting
// when Config.QueueDepth is unset. Beyond it the command is shed, not
// queued — backpressure must reach the client as Retry-After, not stall
// the handler goroutine.
const defaultQueueDepth = 64

func newActor(sess *core.Session, sch *sched, slots int, tenant string, queueDepth int, reg *metrics.Registry, faults *faultfs.Injector) *actor {
	if queueDepth < 1 {
		queueDepth = defaultQueueDepth
	}
	a := &actor{
		sess:   sess,
		turn:   make(chan struct{}, 1),
		done:   make(chan struct{}),
		depth:  queueDepth,
		slots:  sch.clampSlots(slots),
		tenant: tenant,
		sched:  sch,
		reg:    reg,
		faults: faults,
	}
	// The phase hook lets the repair engine attribute its internal phases
	// (suggest/rerank/retrain) to the request being executed. It fires
	// inside a command, on the turn holder's goroutine, so reading a.cur
	// needs no lock.
	sess.SetPhaseHook(func(phase string) func() {
		t := a.cur
		if t == nil {
			return nil
		}
		h := t.StartChild("exec", phase)
		return h.End
	})
	return a
}

func (a *actor) queueGauge() *metrics.Gauge {
	return a.reg.Gauge("gdrd_actor_queue_depth")
}

func (a *actor) shed(reason string) {
	a.reg.LabeledCounter("gdrd_shed_total", "reason", reason, "tenant", metricTenant(a.tenant)).Inc()
}

// metricTenant renders a tenant ownership tag for metric labels; unowned
// (open-mode) sessions report as the implicit default tenant.
func metricTenant(tenant string) string {
	if tenant == "" {
		return defaultTenantName
	}
	return tenant
}

// closed reports whether close has begun.
func (a *actor) closed() bool {
	select {
	case <-a.done:
		return true
	default:
		return false
	}
}

// do runs fn with exclusive access to the session and returns once it has
// finished. Overload never blocks: a command that finds QueueDepth others
// waiting for the turn fails immediately with ErrOverloaded (the caller
// maps it to 503 + Retry-After), and a command whose context expires while
// it waits — for the turn or for CPU slots — is dropped before it spends
// any, with the same deterministic overload error. Once fn has started it
// always runs to completion (the session must never be left mid-command);
// a caller whose context expires mid-run still gets nil, because the
// decision was applied.
//
// A panic inside fn is contained to this one command: in a multi-tenant
// daemon, one session tripping an edge case must not take every other
// tenant down. The panic comes back as this call's error (the session may
// be mid-mutation — the caller decides whether to keep using it).
func (a *actor) do(ctx context.Context, name string, fn func(sess *core.Session)) error {
	if a.closed() {
		return ErrSessionClosed
	}
	if int(a.waiting.Add(1)) > a.depth {
		a.waiting.Add(-1)
		// Queue saturated: shed now, never block the handler. The client
		// retries after backoff; waiting here would pile goroutines up
		// behind a session that is already drowning.
		a.shed("queue")
		return errQueueFull()
	}
	enq := time.Now()
	queued := a.queueGauge()
	queued.Add(1)
	held := false
	select {
	case a.turn <- struct{}{}:
		held = true
	case <-a.done:
	case <-ctx.Done():
	}
	a.waiting.Add(-1)
	queued.Add(-1)
	// A closing session wins over a granted turn, and a command whose
	// deadline budget was spent waiting is dropped before it costs
	// anything.
	var err error
	switch {
	case a.closed():
		err = ErrSessionClosed
	case ctx.Err() != nil:
		a.shed("deadline")
		err = errExpiredQueued()
	}
	if err != nil {
		if held {
			<-a.turn
		}
		return err
	}
	defer func() { <-a.turn }()
	t := obs.FromContext(ctx)
	parent := obs.SpanParent(ctx)
	t.RecordSince("queue", parent, enq)
	slotStart := time.Now()
	if err := a.sched.acquire(ctx, a.tenant, a.slots); err != nil {
		a.shed("deadline")
		return errExpiredQueued()
	}
	t.RecordSince("slot", parent, slotStart)
	a.faults.Fault(faultfs.Actor) // chaos: slow command, turn and slots held
	err = a.runLabeled(ctx, t, parent, name, fn)
	a.sched.release(a.tenant, a.slots)
	return err
}

// runLabeled executes one command under an exec span and pprof labels
// (tenant, route, cmd), so CPU profiles attribute session work to the
// traffic that caused it. A panic in fn comes back as the error.
func (a *actor) runLabeled(ctx context.Context, t *obs.Trace, parent, name string, fn func(*core.Session)) (err error) {
	h := t.StartChild(parent, "exec")
	a.cur = t
	route := t.Route()
	if route == "" {
		route = "none"
	}
	pprof.Do(ctx, pprof.Labels("tenant", metricTenant(a.tenant), "route", route, "cmd", name), func(context.Context) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("server: session command panicked: %v", p)
			}
		}()
		fn(a.sess)
	})
	a.cur = nil
	h.End()
	return err
}

// close stops the session: commands still waiting for the turn get
// ErrSessionClosed, and none starts once close has begun. close takes the
// turn and keeps it, so it returns only after the running command, if any,
// has finished. It is idempotent and safe to call concurrently with do.
func (a *actor) close() {
	a.once.Do(func() {
		close(a.done)
		a.turn <- struct{}{}
	})
}
