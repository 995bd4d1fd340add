// Package cpath implements FIRM's Critical Path Extractor (§3.2, Alg. 1):
// the weighted longest-path computation over a request's execution history
// graph, honoring the three microservice workflow patterns — sequential,
// parallel, and background.
//
// The critical path (Def. 2.3) is the path of maximal duration from the
// client request to the service response. Background spans never join the
// CP (they do not return values to their parents), though the critical
// component extractor may still consider them as culprits.
package cpath

import (
	"slices"
	"sort"
	"strings"

	"firm/internal/sim"
	"firm/internal/trace"
)

// Path is an extracted critical path.
type Path struct {
	// Spans lists the CP spans in execution order starting at the root.
	Spans []trace.Span
	// Index holds each CP span's position in the extracting Extractor's
	// Kids.Spans(), so per-span results computed over those (one
	// SelfDurations pass) are read without a lookup.
	Index []int32
	// Latency is the end-to-end duration bounded by the CP (root span).
	Latency sim.Time
	names   trace.Names // the extracted trace's, for Services
}

// Services returns the CP's service names in order.
func (p Path) Services() []string {
	out := make([]string, len(p.Spans))
	for i, s := range p.Spans {
		out[i] = p.names.ServiceName(uint32(s.Service))
	}
	return out
}

// Signature returns a canonical string identifying the CP's service
// sequence, used to detect CP changes (Insight 1) and to group traces by CP.
func (p Path) Signature() string { return strings.Join(p.Services(), "→") }

// Contains reports whether the service appears on the CP.
func (p Path) Contains(service string) bool {
	return slices.Contains(p.Services(), service)
}

// Extract computes the critical path of a trace per Alg. 1. For each span,
// the last-returned (non-background) child is on the CP; any child that
// happens-before that child (ends at or before its start) chains onto the
// CP as its sequential predecessor; children overlapping the last-returned
// child are parallel and strictly shorter, so they are excluded.
func Extract(t *trace.Trace) Path {
	var e Extractor
	return e.Extract(t)
}

// Extractor is Extract with its per-trace working set kept between calls:
// a consumer walking a window of traces indexes each one once and allocates
// nothing once warm. The zero value is ready to use.
type Extractor struct {
	// Kids is the child index of the trace last extracted — its decoded
	// spans (Kids.Spans) and the per-span questions (SelfDuration) callers
	// ask about that same trace.
	Kids  trace.ChildIndex
	spans []trace.Span
	index []int32
	stack []int32 // pending happens-before chains, one run per open visit
}

// Extract is the package-level Extract; the returned Path's Spans and Index
// alias the extractor's buffers and are valid until its next Extract.
func (e *Extractor) Extract(t *trace.Trace) Path {
	e.Kids.Reset(t)
	spans := e.Kids.Spans()
	root := trace.RootIndex(spans)
	if root < 0 || (spans[root].ID == 0 && spans[root].End() == 0) {
		return Path{}
	}
	e.spans, e.index = e.spans[:0], e.index[:0]
	e.visit(int32(root))
	return Path{Spans: e.spans, Index: e.index, Latency: spans[root].Duration(), names: t.Names}
}

func (e *Extractor) visit(si int32) {
	spans := e.Kids.Spans()
	e.spans = append(e.spans, spans[si])
	e.index = append(e.index, si)
	kids := e.Kids.Of(spans[si].ID) // background children are skipped below
	// lastReturnedChild: maximal End (ties broken by later start, then
	// id, for determinism).
	lrc := int32(-1)
	for _, ki := range kids {
		k := &spans[ki]
		if k.Background {
			continue
		}
		if lrc < 0 {
			lrc = ki
			continue
		}
		l := &spans[lrc]
		if k.End() > l.End() || (k.End() == l.End() && k.Start > l.Start) ||
			(k.End() == l.End() && k.Start == l.Start && k.ID > l.ID) {
			lrc = ki
		}
	}
	if lrc < 0 {
		return
	}
	// Chain happens-before predecessors: repeatedly take the latest-
	// ending child that precedes the head of the chain. The chain is found
	// back to front, so it is stacked and then visited from the top down;
	// nested visits stack above it and unwind first.
	base := len(e.stack)
	e.stack = append(e.stack, lrc)
	head := &spans[lrc]
	for {
		best := int32(-1)
		for _, ki := range kids {
			k := &spans[ki]
			if k.Background || !precedes(k, head) {
				continue
			}
			if best < 0 || k.End() > spans[best].End() ||
				(k.End() == spans[best].End() && k.ID > spans[best].ID) {
				best = ki
			}
		}
		if best < 0 {
			break
		}
		e.stack = append(e.stack, best)
		head = &spans[best]
	}
	for i := len(e.stack) - 1; i >= base; i-- {
		e.visit(e.stack[i])
	}
	e.stack = e.stack[:base]
}

// happensBefore reports the paper's sequential-workflow condition: i
// completes and returns before j starts (§3.2: t(r,i→p) ≤ t(s,p→j)).
func happensBefore(i, j trace.Span) bool { return i.End() <= j.Start }

// precedes reports whether k chains onto the CP ahead of head: it
// happens-before it and comes strictly earlier in (End, ID) order. A span
// that takes any time at all ends after everything that happens-before it,
// so the order decides only between zero-length siblings at one instant —
// each of which happens-before the other, and without it the chain would
// alternate between them forever.
func precedes(k, head *trace.Span) bool {
	return happensBefore(*k, *head) && (k.End() < head.End() || (k.End() == head.End() && k.ID < head.ID))
}

// Group clusters traces by CP signature. It returns, per signature, the
// end-to-end latencies (ms) of the traces whose CP matched it. Fig. 3 plots
// the min- and max-latency groups.
func Group(traces []*trace.Trace) map[string][]float64 {
	out := map[string][]float64{}
	var e Extractor
	for _, t := range traces {
		if t.Dropped {
			continue
		}
		p := e.Extract(t)
		if len(p.Spans) == 0 {
			continue
		}
		out[p.Signature()] = append(out[p.Signature()], t.Latency().Millis())
	}
	return out
}

// MinMaxCP returns the signatures and latency samples of the CP groups with
// the minimum and maximum median latency, considering only groups with at
// least minSamples traces. ok is false when fewer than two groups qualify.
func MinMaxCP(traces []*trace.Trace, minSamples int) (minSig string, minLat []float64, maxSig string, maxLat []float64, ok bool) {
	groups := Group(traces)
	type entry struct {
		sig string
		med float64
		lat []float64
	}
	var entries []entry
	for sig, lats := range groups {
		if len(lats) < minSamples {
			continue
		}
		entries = append(entries, entry{sig, median(lats), lats})
	}
	if len(entries) < 2 {
		return "", nil, "", nil, false
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].med != entries[j].med {
			return entries[i].med < entries[j].med
		}
		return entries[i].sig < entries[j].sig
	})
	lo, hi := entries[0], entries[len(entries)-1]
	return lo.sig, lo.lat, hi.sig, hi.lat, true
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
