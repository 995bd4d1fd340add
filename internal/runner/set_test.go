package runner

import (
	"encoding/json"
	"fmt"
	"testing"

	"firm/internal/sim"
)

// testSet registers a tiny arithmetic job set and returns its name.
// Results depend only on (seed, key), mirroring the determinism contract
// real sets inherit from DeriveSeed; the execution value (an offset here)
// is handed through to Run untouched.
func testSet(t *testing.T, reg *Registry[int64], name string, keys []string) string {
	t.Helper()
	reg.Register(name, Set[int64]{
		Keys: func(scale string, seed int64) ([]string, error) {
			return append([]string(nil), keys...), nil
		},
		Run: func(off int64, scale string, seed int64, key string) ([]byte, error) {
			return json.Marshal(off + sim.DeriveSeed(seed, key)%1000)
		},
	})
	return name
}

func TestSetRegistryLookup(t *testing.T) {
	var reg Registry[int64]
	if _, ok := reg.Lookup("set-test/lookup"); ok || len(reg.Names()) != 0 {
		t.Fatal("zero registry must be empty")
	}
	name := testSet(t, &reg, "set-test/lookup", []string{"a", "b"})
	s, ok := reg.Lookup(name)
	if !ok {
		t.Fatalf("registered set %q not found", name)
	}
	keys, err := s.Keys("tiny", 42)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(keys) != "[a b]" {
		t.Fatalf("keys = %v", keys)
	}
	if _, ok := reg.Lookup("set-test/missing"); ok {
		t.Fatal("lookup of unregistered set succeeded")
	}
	testSet(t, &reg, "set-test/a-first", nil)
	if got := fmt.Sprint(reg.Names()); got != "[set-test/a-first set-test/lookup]" {
		t.Fatalf("Names() = %s, want both sets sorted", got)
	}
}

func TestSetRunMatchesDeriveSeed(t *testing.T) {
	var reg Registry[int64]
	name := testSet(t, &reg, "set-test/derive", []string{"k0", "k1"})
	s, _ := reg.Lookup(name)
	got, err := s.Run(5000, "tiny", 7, "k1")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(5000 + sim.DeriveSeed(7, "k1")%1000)
	if string(got) != string(want) {
		t.Fatalf("Run = %s, want %s", got, want)
	}
}

func TestRegisterRejectsDuplicatesAndNil(t *testing.T) {
	var reg Registry[int64]
	name := testSet(t, &reg, "set-test/dup", []string{"a"})
	for _, bad := range []func(){
		func() { testSet(t, &reg, name, []string{"a"}) },
		func() { reg.Register("", Set[int64]{}) },
		func() { reg.Register("set-test/nil", Set[int64]{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			bad()
		}()
	}
}
