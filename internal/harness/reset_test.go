package harness

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"reflect"
	"strings"
	"testing"

	"firm/internal/app"
	"firm/internal/core"
	"firm/internal/detect"
	"firm/internal/injector"
	"firm/internal/rl"
	"firm/internal/sim"
	"firm/internal/topology"
	"firm/internal/trace"
	"firm/internal/tracedb"
	"firm/internal/workload"
)

// episode is what the Reset property compares: everything observable about
// one FIRM-attached run.
type episode struct {
	Requests    uint64 // every request's outcome and every stored trace's spans
	Transitions uint64 // every transition the controller emitted
	Steps       uint64
	History     []string // injector records: kind, target ID, intensity, start, end
	Actions     uint64
	Reward      float64
	SLO         sim.Time
	Latencies   []float64
}

// digest folds values into an FNV-64a hash.
type digest struct{ h hash.Hash64 }

func (d digest) put(vs ...uint64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], v)
		d.h.Write(buf[:])
	}
}

func (d digest) floats(xs []float64) {
	d.put(uint64(len(xs)))
	for _, x := range xs {
		d.put(math.Float64bits(x))
	}
}

func bit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// spanDigest is a tracedb observer hashing every stored trace.
type spanDigest struct {
	digest
	spans []trace.Span
}

func (s *spanDigest) TraceStored(t *trace.Trace) {
	s.put(uint64(t.ID), uint64(t.Start), uint64(t.End), bit(t.Dropped))
	s.spans = t.AppendSpans(s.spans[:0])
	s.put(uint64(len(s.spans)))
	for _, sp := range s.spans {
		s.put(uint64(sp.ID), uint64(sp.Parent), uint64(sp.Instance), uint64(sp.Service), bit(sp.Background),
			uint64(sp.Start), uint64(sp.Dur), uint64(sp.Queued))
	}
}

func (s *spanDigest) TraceEvicted(*trace.Trace) {}

// runEpisode drives b the way a training episode does — load, the anomaly
// campaign, a training FIRM controller whose transitions go to a sink — for
// d, and records the outcome. agentSeed seeds a fresh agent, so two runs
// start from the same weights.
func runEpisode(b *Bench, ext *detect.Extractor, rps float64, d sim.Time, agentSeed int64) episode {
	req := &spanDigest{digest: digest{fnv.New64a()}}
	b.DB.Observe(req)
	b.App.SetResultHook(func(r app.Result) {
		req.put(uint64(r.Trace), uint64(len(r.Type)), uint64(r.Latency), bit(r.Dropped))
	})
	tr := digest{fnv.New64a()}
	b.AttachWorkload(workload.Constant{RPS: rps})
	cfg := core.DefaultConfig()
	cfg.Training = true
	cfg.Sink = func(service string, t rl.Transition) {
		tr.put(uint64(len(service)), math.Float64bits(t.R), bit(t.Done))
		tr.floats(t.S)
		tr.floats(t.A)
		tr.floats(t.S2)
	}
	ctl := b.AttachFIRM(cfg, SharedAgent(agentSeed), ext)
	camp := injector.DefaultCampaign(b.Injector, b.Containers())
	camp.MeanInterarrival = 2 * sim.Second
	camp.MinDuration, camp.MaxDuration = 6*sim.Second, 10*sim.Second
	camp.MinIntensity = 0.6
	camp.Start()
	b.Eng.RunFor(d)
	camp.Stop()
	out := episode{
		Requests: req.h.Sum64(), Steps: b.Eng.Steps(),
		Actions: ctl.Actions, Reward: ctl.EpisodeReward, SLO: b.App.SLO,
		Latencies: b.DB.Latencies(tracedb.Query{IncludeDrop: true}),
	}
	ctl.ResetEpisode()
	out.Transitions = tr.h.Sum64()
	for _, r := range b.Injector.History() {
		out.History = append(out.History, fmt.Sprintf("%v %d %.17g %v %v", r.Kind, r.Target.ID, r.Intensity, r.Start, r.End))
	}
	return out
}

// dirty leaves b in the middle of everything Reset must abandon: a run under
// heavier load with a controller whose actions are still pending, an
// injection that has not ended, a scaled-out service, client retries, an
// edge fault, a result hook, a changed SLO, and requests in flight.
func dirty(t *testing.T, b *Bench, ext *detect.Extractor) {
	t.Helper()
	completed := 0
	b.App.SetResultHook(func(app.Result) { completed++ })
	b.App.SLO /= 2 // a caller's own objective
	b.App.SetRetryPolicy(&app.RetryPolicy{MaxRetries: 2, Backoff: 20 * sim.Millisecond})
	root := b.Opts.Spec.Endpoints[0].Root.Service
	b.App.SetEdgeFaults(map[app.Edge]app.EdgeFault{{From: "client", To: root}: {Delay: 5 * sim.Millisecond, Drop: 0.05}},
		sim.Stream(b.Opts.Seed, "reset-test-faults"))
	svcs := b.Cluster.ReplicaSets()
	b.AttachWorkload(workload.Constant{RPS: 400})
	cfg := core.DefaultConfig()
	cfg.Training = true
	cfg.Sink = func(string, rl.Transition) {}
	ctl := b.AttachFIRM(cfg, SharedAgent(b.Opts.Seed), ext)
	rs := svcs[len(svcs)-1]
	if _, err := b.Deploy.ScaleOut(rs, rs.Containers()[0].Limits(), false, nil); err != nil {
		t.Fatal(err)
	}
	victim := b.Containers()[1]
	if _, err := b.Injector.Inject(injector.Injection{Kind: injector.CPUStress, Target: victim, Intensity: 0.9, Duration: sim.Minute}); err != nil {
		t.Fatal(err)
	}
	injector.DefaultCampaign(b.Injector, b.Containers()).Start()
	b.Eng.RunFor(6*sim.Second + 333*sim.Millisecond)
	if b.Coord.PendingCount() == 0 || b.Eng.Pending() == 0 || ctl.Ticks == 0 || completed == 0 {
		t.Fatalf("dirty run left %d traces pending, %d events, %d ticks, %d results: nothing for Reset to abandon",
			b.Coord.PendingCount(), b.Eng.Pending(), ctl.Ticks, completed)
	}
}

// state is what a testbed shows before anything is attached to it.
func state(b *Bench) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "seed %d workload %v; clock %v, %d events pending, %d run; traces %d kept of %d, %d pending, %d collected, %d spans; SLO %v, %d/%d/%d; %d injections; meter %v %v\n",
		b.Opts.Seed, b.Gen != nil, b.Eng.Now(), b.Eng.Pending(), b.Eng.Steps(), b.DB.Len(), b.DB.Total(), b.Coord.PendingCount(), b.Coord.Collected, b.Coord.SpansSeen,
		b.App.SLO, b.App.Completed, b.App.Dropped, b.App.Violations, len(b.Injector.History()), b.Meter.Rate(), b.Meter.Composition())
	for _, c := range b.Containers() {
		s, ok := b.Col.Latest(c.ID)
		fmt.Fprintf(&sb, "%d %s on %s: %v; latest sample %+v %v\n", c.ID, c.Name, c.Node().ID, c.Limits(), s, ok)
	}
	return sb.String()
}

// TestResetEquivalentToNew: a testbed driven into a dirty state and Reset(s)
// is the testbed New(s) builds, and runs a FIRM-attached episode exactly as
// it does — same request outcomes and spans, engine steps, injections,
// controller actions, transitions and reward, calibrated SLO and latency
// column — on random seeds, on Train-Ticket and Social Network (and, so that
// telemetry left from before the Reset would show, an uncalibrated Hotel
// Reservation), over repeated Resets.
func TestResetEquivalentToNew(t *testing.T) {
	ext := NewExtractor(1)
	seeds := sim.Stream(7, "reset-property")
	for _, tc := range []struct {
		name   string
		spec   *topology.Spec
		margin float64
		rps    float64
	}{
		{"trainticket", topology.TrainTicket(), 1.6, 120},
		{"socialnetwork", topology.SocialNetwork(), 1.6, 200},
		{"hotel-uncalibrated", topology.HotelReservation(), 0, 150},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{Spec: tc.spec, SLOMargin: tc.margin, CalibrationN: 6, Seed: seeds.Int63()}
			reused, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 3; round++ {
				s := seeds.Int63()
				dirty(t, reused, ext)
				reused.Reset(s)
				opts.Seed = s
				fresh, err := New(opts)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := state(reused), state(fresh); got != want {
					t.Fatalf("seed %d: after Reset\n%s\nafter New\n%s", s, got, want)
				}
				got := runEpisode(reused, ext, tc.rps, 20*sim.Second, s)
				want := runEpisode(fresh, ext, tc.rps, 20*sim.Second, s)
				if want.Actions == 0 || len(want.History) == 0 {
					t.Fatalf("seed %d: the episode took %d actions and injected %d anomalies; it tests nothing", s, want.Actions, len(want.History))
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: Reset then run differs from New then run:\nreset %+v\nnew   %+v", s, summary(got), summary(want))
				}
			}
		})
	}
}

// summary is an episode without its latency column, for failure messages.
func summary(e episode) string {
	return fmt.Sprintf("requests %x transitions %x steps %d actions %d reward %v SLO %v latencies %d history %v",
		e.Requests, e.Transitions, e.Steps, e.Actions, e.Reward, e.SLO, len(e.Latencies), e.History)
}
