package app

import (
	"fmt"

	"firm/internal/cluster"
	"firm/internal/sim"
	"firm/internal/topology"
	"firm/internal/trace"
)

// frame is one in-flight workflow call. It is the call's engine event (a
// sim.Action, scheduled for the request hop, the response hop and a retry
// backoff), its container work handler, and the parent its awaited children
// report to — so a call costs no closure, and at steady state no allocation:
// frames cycle through the App's freelist.
//
// Lifecycle: begin routes the call (routing) and schedules the request hop
// (arriving); on arrival the frame is submitted to the picked replica
// (queued); when the work completes it walks the call's children (children); when
// the last awaited group has reported it schedules the response hop
// (responding), and on that hop emits its span, reports to its parent and is
// released. A shed, lost or queue-dropped attempt either waits out a backoff
// and begins again on the same frame, or reports failure and is released.
//
// A frame has at most one engine event or one container work item pending
// at any time, and is released exactly once, by finish.
type frame struct {
	ctx *reqCtx
	// up is the frame awaiting this call's outcome; nil for an endpoint
	// root (which reports to ctx) and for a background call (which reports
	// to no one — a released parent is never reachable from a straggler).
	up         *frame
	node       *node        // the call, resolved
	caller     string       // calling service, "client" for a root: the edge-fault key
	parent     trace.SpanID // calling span, 0 for a root
	background bool
	attempt    int // re-submissions so far
	state      frameState

	// Set by begin for the current attempt.
	target   *cluster.Container
	span     trace.SpanID
	dispatch sim.Time
	hop      sim.Time

	queued sim.Time // queueing delay of the attempt that was served

	// Child walk. next is the first child not yet in a started group;
	// remaining counts the current group's unreported calls; ok turns false
	// when any awaited child fails.
	next      int
	remaining int
	ok        bool
}

type frameState uint8

const (
	frameFree       frameState = iota // on the freelist (or poisoned)
	frameRouting                      // begin is picking a replica
	frameArriving                     // request hop scheduled
	frameQueued                       // submitted to the target container
	frameChildren                     // local work done, awaiting child groups
	frameResponding                   // response hop scheduled
	frameBackoff                      // retry backoff scheduled
)

// call starts one workflow call on a recycled frame: route to a replica,
// wait in its queue, do local compute, run the child groups, respond.
//
//firmvet:noalloc
func (a *App) call(ctx *reqCtx, up *frame, parent trace.SpanID, caller string, n *node, background bool) {
	var f *frame
	if n := len(a.free); n > 0 {
		f = a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
	} else {
		//firmvet:allow noalloc -- freelist warm-up miss; an App allocates one frame per concurrently in-flight call, then recycles them
		f = &frame{}
	}
	f.ctx, f.up, f.parent, f.caller, f.node, f.background = ctx, up, parent, caller, n, background
	f.begin()
}

// release returns f to the freelist. Clearing it drops the request, parent
// and container references and leaves state == frameFree, which every entry
// point rejects.
//
//firmvet:noalloc
func (a *App) release(f *frame) {
	if f.state == frameFree {
		panic("app: call frame released twice")
	}
	*f = frame{}
	if !a.poison {
		a.free = append(a.free, f)
	}
}

// begin is one attempt of the call. ctx.outstanding is held from here until
// finish — across the backoff of a retry too, so a trace cannot seal under a
// pending re-attempt (including background stragglers).
//
//firmvet:noalloc
func (f *frame) begin() {
	a := f.ctx.app
	f.state = frameRouting
	f.ctx.outstanding++
	var target *cluster.Container
	if rs := f.node.rs; rs != nil {
		target = rs.Pick()
	}
	if target == nil { // no ready replica: request shed at routing
		f.fail()
		return
	}
	f.target = target
	f.span = a.Coord.NewSpanID()
	// Spans are client-observed (Dapper-style): they cover the full RPC
	// boundary including both network hops, so a tc-delay anomaly on the
	// callee shows up in the callee's span — which is what the paper's
	// localization relies on.
	f.dispatch = a.eng.Now()
	f.hop = a.Spec.BaseRPCDelay + target.NetDelay()
	if len(a.edgeFaults) > 0 {
		if ef, ok := a.edgeFaults[Edge{From: f.caller, To: f.node.call.Service}]; ok {
			if ef.Drop > 0 && a.faultRng != nil && a.faultRng.Float64() < ef.Drop {
				f.fail() // RPC lost in the partition before reaching the callee
				return
			}
			f.hop += ef.Delay
		}
	}
	f.state = frameArriving
	a.eng.ScheduleAction(f.hop, f)
}

// Fire is the frame's engine event: arrival at the callee, the response
// reaching the caller, or the end of a retry backoff.
//
//firmvet:noalloc
func (f *frame) Fire() {
	switch f.state {
	case frameArriving:
		f.state = frameQueued
		f.target.Submit(cluster.Work{
			Base:    f.node.call.Compute,
			Demand:  f.node.demand,
			Handler: f,
		})
	case frameResponding:
		f.emit(f.queued)
		f.finish(f.ok)
	case frameBackoff:
		f.ctx.outstanding--
		f.attempt++
		f.begin()
	default:
		f.misuse("fired")
	}
}

// WorkDone implements cluster.WorkHandler: local compute finished, run the
// children. Every Background child of the call starts here, before the
// first awaited group — not when the walk reaches its position — and is
// never awaited. (The experiment goldens pin this order.)
//
//firmvet:noalloc
func (f *frame) WorkDone(queued, _ sim.Time) {
	if f.state != frameQueued {
		f.misuse("completed")
	}
	f.state, f.queued, f.ok, f.next = frameChildren, queued, true, 0
	ctx, span, service := f.ctx, f.span, f.node.call.Service
	for i, ch := range f.node.call.Children {
		if ch.Mode == topology.Background {
			ctx.app.call(ctx, nil, span, service, f.node.kids[i], true)
		}
	}
	f.advance()
}

// WorkDropped implements cluster.WorkHandler: the container shed the work
// (queue full, or retired with the call still queued). The attempt leaves a
// zero-queue span ending now, then fails.
//
//firmvet:noalloc
func (f *frame) WorkDropped() {
	if f.state != frameQueued {
		f.misuse("dropped")
	}
	f.emit(0)
	f.fail()
}

// emit seals the current attempt's span, ending now.
//
//firmvet:noalloc
func (f *frame) emit(queued sim.Time) {
	a := f.ctx.app
	a.Coord.Emit(f.ctx.trace, trace.Span{
		ID:         f.span,
		Parent:     f.parent,
		Service:    f.node.rs.ID,
		Instance:   f.target.ID,
		Start:      f.dispatch,
		End:        a.eng.Now(),
		Queued:     queued,
		Background: f.background,
	})
}

// advance starts the next awaited group of call.Children from the cursor: a
// maximal run of consecutive Par children runs concurrently, a Seq child is
// a group of one (a barrier), Background children were started by WorkDone
// and are skipped (so one sitting between two Par children splits them into
// two groups). With no group left, the response hop is scheduled.
//
// The group's bounds and size are fixed before its first call starts: a
// child that sheds synchronously reports back — and, if it is the group's
// last, re-enters advance — from inside this loop.
//
//firmvet:noalloc
func (f *frame) advance() {
	children := f.node.call.Children
	i := f.next
	for i < len(children) && children[i].Mode == topology.Background {
		i++
	}
	if i == len(children) {
		f.state = frameResponding
		f.ctx.app.eng.ScheduleAction(f.hop, f)
		return
	}
	j := i + 1
	if children[i].Mode == topology.Par {
		for j < len(children) && children[j].Mode == topology.Par {
			j++
		}
	}
	f.next, f.remaining = j, j-i
	ctx, span, service := f.ctx, f.span, f.node.call.Service
	for _, kid := range f.node.kids[i:j] {
		ctx.app.call(ctx, f, span, service, kid, false)
	}
}

// childDone is an awaited child reporting its outcome.
//
//firmvet:noalloc
func (f *frame) childDone(ok bool) {
	if f.state != frameChildren {
		f.misuse("reported to")
	}
	if !ok {
		f.ok = false
	}
	f.remaining--
	if f.remaining == 0 {
		f.advance()
	}
}

// fail ends a shed, lost or dropped attempt: with retries left the frame
// waits out the backoff, still holding its outstanding slot, and begins
// again; otherwise the call has failed.
//
//firmvet:noalloc
func (f *frame) fail() {
	a := f.ctx.app
	if p := a.retry; p != nil && f.attempt < p.MaxRetries {
		f.state = frameBackoff
		a.eng.ScheduleAction(p.Backoff, f)
		return
	}
	f.finish(false)
}

// finish reports the call's outcome to whoever awaits it and releases the
// frame. The trailing maybeFinish is a no-op on synchronous paths (the root
// is never done yet) but seals traces whose last pending work was a
// background call or a failed asynchronous retry.
//
//firmvet:noalloc
func (f *frame) finish(ok bool) {
	ctx := f.ctx
	ctx.outstanding--
	switch {
	case f.up != nil:
		f.up.childDone(ok)
	case !f.background: // endpoint root
		ctx.rootDone = true
		ctx.latency = ctx.app.eng.Now() - ctx.start
		ctx.dropped = !ok
	}
	ctx.maybeFinish()
	ctx.app.release(f)
}

// misuse reports a frame driven from the wrong state — in practice, touched
// after release. Only a bug can get here.
func (f *frame) misuse(verb string) {
	panic(fmt.Sprintf("app: call frame %s in state %d", verb, f.state))
}
