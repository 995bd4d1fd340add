package app

import (
	"fmt"
	"math"

	"firm/internal/cluster"
	"firm/internal/sim"
	"firm/internal/topology"
	"firm/internal/trace"
)

// frame is one in-flight workflow call. It is the call's engine event (a
// sim.Action, scheduled for the request hop, the response hop and a retry
// backoff), its container work handler, and the caller its children report
// to and drain into — so a call costs no closure, and at steady state no
// allocation: frames cycle through the freelist of the shard they are on.
//
// Lifecycle: route picks a replica (routing) and schedules the request hop
// (arriving); on arrival the frame is submitted to the replica (queued); when
// the work completes it starts the call's Background children and walks the
// awaited ones (children); when the last awaited group has reported it
// schedules the response hop (responding), and on that hop emits its span and
// reports the outcome. Then it settles: with every call it made drained —
// Background ones too — it drains into its own caller and is released;
// otherwise it waits for them (draining). So a caller outlives its callees,
// and the root frame, which drains last, finishes the request. A shed, lost
// or queue-dropped attempt waits out a backoff and routes again on the same
// frame, or reports failure and settles.
//
// On a sharded deployment the frame is also the mail, and a frame belongs to
// the shard it was last mailed to: call mails it to the callee's shard
// (calling), which routes it, and the response hop — or a failed attempt
// (failed) — is the mail back to shard from, where its caller lives untouched
// in between. A call whose outcome is ready while children still run cannot
// leave, because they drain into it where it is: the outcome travels on a
// second pooled frame (result), and the call, once drained, is released where
// it stayed and mails home its caller's address, as a drainedMail. Every pool
// gets back what it hands out — the result frame stands in for the call frame
// on the caller's shard, and the other way round on the callee's.
//
// A frame has at most one engine event, mail or container work item pending
// at any time, and is released exactly once.
type frame struct {
	ctx *reqCtx
	// up is the calling frame, which this call reports to (unless background)
	// and drains into; nil for an endpoint root, which reports to ctx.
	up     *frame
	node   *node        // the call, resolved
	caller string       // calling service, "client" for a root: the edge-fault key
	parent trace.SpanID // calling span, 0 for a root

	// Set by route for the current attempt.
	target   *cluster.Container
	span     trace.SpanID
	dispatch sim.Time
	hop      sim.Time

	queued sim.Time // queueing delay of the attempt that was served

	attempt int // re-submissions so far
	// Child walk. next is the first child not yet in a started group;
	// remaining counts the current group's unreported calls; ok turns false
	// when any awaited child, or the call's own last attempt, fails.
	next       int
	remaining  int
	drain      int32 // calls this one made that have not drained
	from       int32 // the caller's shard: where the frame was taken and the outcome goes
	state      frameState
	background bool
	ok         bool
}

type frameState uint8

const (
	frameFree       frameState = iota // on the freelist (or poisoned)
	frameRouting                      // route is picking a replica
	frameArriving                     // request hop scheduled
	frameQueued                       // submitted to the target container
	frameChildren                     // local work done, awaiting child groups
	frameResponding                   // response hop scheduled, or mailed
	frameBackoff                      // retry backoff scheduled
	frameDraining                     // outcome reported, children still running
	// Sharded deployments only: what a frame in the mail carries.
	frameCalling // the call, to be routed on the callee's shard
	frameFailed  // a failed attempt: outcome and drained, no span
	frameResult  // second frame: the outcome of a call that has not drained
)

// Mail directions. A key is (trace << 22) | (call number << 2) | direction;
// each triple is sent at most once per request (a retry routes again where it
// failed, it is not mailed again), so keys are unique among mails sharing a
// timestamp: the ShardedEngine contract.
const (
	dirCall    = 0
	dirResult  = 1
	dirDrained = 2
)

//firmvet:noalloc
func (f *frame) key(dir uint64) uint64 {
	return uint64(f.ctx.id)<<22 | uint64(f.node.idx)<<2 | dir
}

// reply mails act from the callee's shard, where f is, to the caller's.
//
//firmvet:noalloc
func (f *frame) reply(dir uint64, act sim.Action) {
	f.ctx.app.se.Send(int(f.node.shard), int(f.from), f.hop, f.key(dir), act)
}

// drainedMail is a calling frame, and finishedMail a request, as the mail
// that tells it a call it made has drained. The callee's shard only passes
// the address back: it is dereferenced where it fires, on the caller's.
type (
	drainedMail  frame
	finishedMail reqCtx
)

func (m *drainedMail) Fire()  { (*frame)(m).childDrained() }
func (m *finishedMail) Fire() { (*reqCtx)(m).finish() }

// take pops a frame off the freelist of the shard the caller is executing on.
//
//firmvet:noalloc
func (a *App) take(on int32) *frame {
	sh := &a.shards[on]
	if n := len(sh.free); n > 0 {
		f := sh.free[n-1]
		sh.free[n-1] = nil
		sh.free = sh.free[:n-1]
		return f
	}
	//firmvet:allow noalloc -- freelist warm-up miss; a shard allocates one frame per concurrently in-flight call, then recycles them
	return &frame{}
}

// call starts one workflow call on a recycled frame: route to a replica,
// wait in its queue, do local compute, run the child groups, respond. up is
// the calling frame, executing now (nil for an endpoint root); it counts the
// call from here until settle — across the backoff of a retry too, so a trace
// cannot seal under a pending re-attempt (including background stragglers).
//
//firmvet:noalloc
func (a *App) call(ctx *reqCtx, up *frame, parent trace.SpanID, caller string, n *node, background bool) {
	from := a.home
	if up != nil {
		from = up.node.shard
		up.drain++
	}
	f := a.take(from)
	f.ctx, f.up, f.from, f.parent, f.caller, f.node, f.background = ctx, up, from, parent, caller, n, background
	if a.se != nil {
		// The one difference of a sharded deployment: the callee's replica
		// cursor belongs to its shard, so the call is routed there — by mail
		// even within a shard, so that every shard count sends the same mails.
		f.state = frameCalling
		a.se.Send(int(from), int(n.shard), a.Spec.BaseRPCDelay, f.key(dirCall), f)
		return
	}
	f.route()
}

// release returns f to the freelist of the shard it ends on. Clearing it
// drops the request, parent and container references and leaves
// state == frameFree, which every entry point rejects.
//
//firmvet:noalloc
func (a *App) release(f *frame, on int32) {
	if f.state == frameFree {
		panic("app: call frame released twice")
	}
	sh := &a.shards[on]
	*f = frame{}
	if !a.poison {
		sh.free = append(sh.free, f)
	}
}

// route is one attempt of the call: pick a replica and schedule the arrival.
//
//firmvet:noalloc
func (f *frame) route() {
	a := f.ctx.app
	f.state = frameRouting
	f.hop = a.Spec.BaseRPCDelay
	var target *cluster.Container
	if rs := f.node.rs; rs != nil {
		target = rs.Pick()
	}
	if target == nil { // no ready replica: request shed at routing
		f.fail()
		return
	}
	f.target = target
	if a.Coord != nil {
		f.span = a.Coord.NewSpanID()
	}
	// Spans are client-observed (Dapper-style): they cover the full RPC
	// boundary including both network hops, so a tc-delay anomaly on the
	// callee shows up in the callee's span — which is what the paper's
	// localization relies on.
	sh := &a.shards[f.node.shard]
	f.dispatch = sh.eng.Now()
	f.hop += target.NetDelay()
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
	arrive := f.hop
	if a.se != nil {
		arrive -= a.Spec.BaseRPCDelay // paid by the call mail
	}
	sh.after(arrive, f)
}

// Fire is the frame's engine event: the call reaching the callee's shard,
// arrival at the callee, the response (or its outcome alone) reaching the
// caller, or the end of a retry backoff.
//
//firmvet:noalloc
func (f *frame) Fire() {
	switch f.state {
	case frameCalling:
		f.route()
	case frameArriving:
		f.state = frameQueued
		f.target.Submit(cluster.Work{
			Base:    f.node.call.Compute,
			Demand:  f.node.demand,
			Handler: f,
		})
	case frameResponding:
		f.emit(f.queued)
		f.report()
		f.settle()
	case frameBackoff:
		f.attempt++
		f.route()
	case frameFailed:
		f.report()
		f.settle()
	case frameResult:
		f.report()
		f.ctx.app.release(f, f.from)
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
			ctx.app.call(ctx, f, span, service, f.node.kids[i], true)
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

// emit seals the current attempt's span, ending now. Span.Dur and
// Span.Queued are 32 bits of µs, so a span or a queueing delay past
// ≈ 71.6 min panics instead of truncating. Service fits its 16 bits: the
// cluster mints no larger ReplicaSet.ID.
//
//firmvet:noalloc
func (f *frame) emit(queued sim.Time) {
	a := f.ctx.app
	if a.Coord == nil {
		return
	}
	dur := a.eng.Now() - f.dispatch
	if dur > math.MaxUint32 {
		panic("app: span duration exceeds Span.Dur (2^32-1 µs)")
	}
	if queued > math.MaxUint32 {
		panic("app: queueing delay exceeds Span.Queued (2^32-1 µs)")
	}
	a.Coord.Emit(f.ctx.trace, trace.Span{
		ID:         f.span,
		Parent:     f.parent,
		Instance:   f.target.ID,
		Service:    uint16(f.node.rs.ID),
		Background: f.background,
		Start:      f.dispatch,
		Dur:        uint32(dur),
		Queued:     uint32(queued),
	})
}

// advance starts the next awaited group of call.Children from the cursor: a
// maximal run of consecutive Par children runs concurrently, a Seq child is
// a group of one (a barrier), Background children were started by WorkDone
// and are skipped (so one sitting between two Par children splits them into
// two groups). With no group left, the call responds.
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
		f.respond()
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

// respond starts the response hop. Sharded, that is the mail home, which the
// frame takes only with every child drained; otherwise a result frame does —
// the rule with awaited children, the last of which reports before it drains
// (result and drained then leave as two mails in one event).
//
//firmvet:noalloc
func (f *frame) respond() {
	a := f.ctx.app
	switch {
	case a.se == nil:
		f.state = frameResponding
		a.shards[f.node.shard].after(f.hop, f)
	case f.drain == 0:
		f.state = frameResponding
		f.reply(dirResult, f)
	default:
		r := a.take(f.node.shard)
		r.ctx, r.up, r.from, r.background, r.ok, r.state = f.ctx, f.up, f.from, f.background, f.ok, frameResult
		f.reply(dirResult, r)
		f.state = frameDraining
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

// childDrained is a call this one started settling; the last one settles a
// draining call in turn.
//
//firmvet:noalloc
func (f *frame) childDrained() {
	if f.drain == 0 {
		f.misuse("drained into")
	}
	f.drain--
	if f.drain == 0 && f.state == frameDraining {
		f.settle()
	}
}

// fail ends a shed, lost or dropped attempt: with retries left the frame
// waits out the backoff where it is and routes again; otherwise the call has
// failed — which a sharded caller learns one hop later.
//
//firmvet:noalloc
func (f *frame) fail() {
	a := f.ctx.app
	if p := a.retry; p != nil && f.attempt < p.MaxRetries {
		f.state = frameBackoff
		a.shards[f.node.shard].eng.ScheduleAction(p.Backoff, f)
		return
	}
	f.ok = false
	if a.se != nil {
		f.state = frameFailed
		f.reply(dirResult, f)
		return
	}
	f.report()
	f.settle()
}

// report hands the call's outcome, f.ok, to whoever awaits it: the caller,
// no one for a background call, the request for an endpoint root.
//
//firmvet:noalloc
func (f *frame) report() {
	switch {
	case f.background:
	case f.up != nil:
		f.up.childDone(f.ok)
	default:
		ctx := f.ctx
		ctx.latency = ctx.app.eng.Now() - ctx.start
		ctx.dropped = !f.ok
	}
}

// settle follows report. A call with nothing left running drains into its
// caller (a root finishes the request) and the frame is released; otherwise
// it waits, and the last child to drain settles it. A sharded call that
// waited did so on the callee's shard, a hop from its caller.
//
//firmvet:noalloc
func (f *frame) settle() {
	a, on := f.ctx.app, f.from
	switch {
	case f.drain > 0:
		f.state = frameDraining
		return
	case a.se != nil && f.state == frameDraining:
		on = f.node.shard
		if f.up != nil {
			f.reply(dirDrained, (*drainedMail)(f.up))
		} else {
			f.reply(dirDrained, (*finishedMail)(f.ctx))
		}
	case f.up != nil:
		f.up.childDrained()
	default:
		f.ctx.finish()
	}
	a.release(f, on)
}

// misuse reports a frame driven from the wrong state — in practice, touched
// after release. Only a bug can get here.
func (f *frame) misuse(verb string) {
	panic(fmt.Sprintf("app: call frame %s in state %d", verb, f.state))
}
