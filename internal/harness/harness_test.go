package harness

import (
	"testing"

	"firm/internal/sim"
	"firm/internal/topology"
	"firm/internal/workload"
)

// TestTelemetryKeepsLatestOnly: the testbed's readers only ever ask the
// collector for Latest, so after a run it holds at most one sample per
// container — and every container has one.
func TestTelemetryKeepsLatestOnly(t *testing.T) {
	b, err := New(Options{Seed: 3, Spec: topology.HotelReservation()})
	if err != nil {
		t.Fatal(err)
	}
	b.AttachWorkload(workload.Constant{RPS: 100})
	b.Eng.RunFor(5 * sim.Second)
	for _, c := range b.Containers() {
		if n := len(b.Col.Window(c.ID, 0)); n > 1 {
			t.Fatalf("container %s holds %d samples, want at most 1", c.Name, n)
		}
		if s, ok := b.Col.Latest(c.ID); !ok || s.At != b.Eng.Now() {
			t.Fatalf("container %s: Latest = %+v (%v), want the sample taken at %v", c.Name, s, ok, b.Eng.Now())
		}
	}
}
