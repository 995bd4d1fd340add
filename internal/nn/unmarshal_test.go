package nn

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"strings"
	"testing"
)

func encodeState(t testing.TB, st netState) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestUnmarshalRejectsMalformedState feeds Unmarshal payloads that decode
// cleanly but describe no network. Each used to panic (index out of range,
// or New's own size check); all must come back as errors.
func TestUnmarshalRejectsMalformedState(t *testing.T) {
	good := func() netState {
		return netState{
			Sizes: []int{2, 3, 1},
			Acts:  []Activation{ReLU, Linear},
			W:     [][]float64{make([]float64, 6), make([]float64, 3)},
			B:     [][]float64{make([]float64, 3), make([]float64, 1)},
		}
	}
	if _, err := Unmarshal(encodeState(t, good())); err != nil {
		t.Fatalf("well-formed state rejected: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mangle func(*netState)
	}{
		{"short W", func(s *netState) { s.W = s.W[:1] }},
		{"short B", func(s *netState) { s.B = s.B[:1] }},
		{"zero size", func(s *netState) { s.Sizes[1] = 0 }},
		{"negative size", func(s *netState) { s.Sizes[2] = -1 }},
		{"Acts length mismatch", func(s *netState) { s.Acts = s.Acts[:1] }},
		{"one size", func(s *netState) { s.Sizes = s.Sizes[:1] }},
		{"layer W shape", func(s *netState) { s.W[0] = s.W[0][:5] }},
		{"layer B shape", func(s *netState) { s.B[1] = append(s.B[1], 0) }},
		{"sizes larger than payload", func(s *netState) { s.Sizes[0] = 1 << 40 }},
	} {
		st := good()
		tc.mangle(&st)
		n, err := Unmarshal(encodeState(t, st))
		if err == nil || n != nil {
			t.Errorf("%s: Unmarshal = %v, %v; want an error", tc.name, n, err)
		} else if !strings.Contains(err.Error(), "corrupt") {
			t.Errorf("%s: error %q does not say corrupt", tc.name, err)
		}
	}
}

// FuzzUnmarshal: no payload may panic Unmarshal, and whatever it accepts
// must be a usable net that survives a Marshal round trip.
func FuzzUnmarshal(f *testing.F) {
	net := New(rand.New(rand.NewSource(1)), []int{8, 40, 40, 5}, []Activation{ReLU, ReLU, Tanh})
	seed, err := net.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(encodeState(f, netState{Sizes: []int{1, 1}, Acts: []Activation{Linear}, W: [][]float64{{1}}}))
	f.Add(encodeState(f, netState{Sizes: []int{0, 1}, Acts: []Activation{Linear}, W: [][]float64{{}}, B: [][]float64{{0}}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := Unmarshal(data)
		if err != nil {
			return
		}
		n.Forward(make([]float64, n.InputDim()))
		again, err := n.Marshal()
		if err != nil {
			t.Fatalf("accepted net does not marshal: %v", err)
		}
		if _, err := Unmarshal(again); err != nil {
			t.Fatalf("accepted net does not round-trip: %v", err)
		}
	})
}
