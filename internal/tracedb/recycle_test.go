package tracedb_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"firm/internal/core"
	"firm/internal/harness"
	"firm/internal/injector"
	"firm/internal/sim"
	"firm/internal/topology"
	"firm/internal/trace"
	"firm/internal/tracedb"
	"firm/internal/workload"
)

// requestLog digests every trace the store consumes — header and decoded
// spans — and counts the distinct Trace headers they came in. It keeps the
// first trace evicted, against the Observer contract, so the poisoned run
// can show that reading it trips.
type requestLog struct {
	digest  uint64
	traces  map[*trace.Trace]bool
	evicted *trace.Trace
	spans   []trace.Span
}

func (l *requestLog) TraceStored(t *trace.Trace) {
	h := fnv.New64a()
	var b []byte
	b = binary.LittleEndian.AppendUint64(b, l.digest)
	b = binary.LittleEndian.AppendUint64(b, uint64(t.ID))
	b = append(b, t.Type...)
	b = binary.LittleEndian.AppendUint64(b, uint64(t.Start))
	b = binary.LittleEndian.AppendUint64(b, uint64(t.End))
	if t.Dropped {
		b = append(b, 1)
	}
	l.spans = t.AppendSpans(l.spans[:0])
	for _, s := range l.spans {
		b = binary.LittleEndian.AppendUint32(b, uint32(s.ID))
		b = binary.LittleEndian.AppendUint32(b, uint32(s.Parent))
		b = binary.LittleEndian.AppendUint32(b, s.Instance)
		b = binary.LittleEndian.AppendUint64(b, uint64(s.Start))
		b = binary.LittleEndian.AppendUint32(b, s.Dur)
		b = binary.LittleEndian.AppendUint32(b, s.Queued)
	}
	h.Write(b)
	l.digest = h.Sum64()
	l.traces[t] = true
}

func (l *requestLog) TraceEvicted(t *trace.Trace) {
	if l.evicted == nil {
		l.evicted = t
	}
}

// TestRecycledTracesInvisible runs a short controller + default anomaly
// campaign twice: with evicted traces recycled into new requests, and with
// them poisoned — cleared and never reused, so a reader that kept one
// trips. Both runs must give the same fingerprint and the same digest of
// every request; the pooled run must have reused headers, the poisoned run
// none, and reading a poisoned trace must panic.
func TestRecycledTracesInvisible(t *testing.T) {
	ext := harness.NewExtractor(7)
	run := func(poison bool) (fingerprint uint64, log *requestLog, total uint64) {
		b, err := harness.New(harness.Options{Seed: 7, Spec: topology.SocialNetwork(), SLOMargin: 1.6})
		if err != nil {
			t.Fatal(err)
		}
		if poison {
			tracedb.SetPoison(b.DB)
		}
		log = &requestLog{traces: map[*trace.Trace]bool{}}
		b.DB.Observe(log)
		b.AttachWorkload(workload.Constant{RPS: 250})
		ctl := b.AttachFIRM(core.DefaultConfig(), harness.SharedAgent(7), ext)
		injector.DefaultCampaign(b.Injector, b.Containers()).Start()
		b.Eng.RunFor(20 * sim.Second)
		h := fnv.New64a()
		var buf []byte
		for _, v := range []uint64{b.Eng.Steps(), b.Gen.Submitted, b.App.Completed, b.App.Dropped, b.App.Violations, ctl.Actions} {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
		for _, l := range b.DB.Latencies(tracedb.Query{IncludeDrop: true}) {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(l))
		}
		h.Write(buf)
		return h.Sum64(), log, b.DB.Total()
	}
	pooledFP, pooled, total := run(false)
	poisonedFP, poisoned, _ := run(true)
	if pooledFP != poisonedFP || pooled.digest != poisoned.digest {
		t.Fatalf("pooled and poisoned runs differ: fingerprint %x/%x, request digest %x/%x",
			pooledFP, poisonedFP, pooled.digest, poisoned.digest)
	}
	if uint64(len(poisoned.traces)) != total || uint64(len(pooled.traces)) >= total/2 {
		t.Fatalf("%d traces in %d headers pooled, %d poisoned; want far fewer pooled, one each poisoned",
			total, len(pooled.traces), len(poisoned.traces))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("reading a trace after its eviction did not trip in poison mode")
		}
	}()
	poisoned.evicted.AppendSpans(nil)
}
