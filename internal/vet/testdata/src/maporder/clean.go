package maporder

import "sort"

// sortedKeys is the collect-then-sort idiom: the appended slice is passed
// to a sort call after the loop, so the map's order never escapes.
func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

type perKeyStats struct{ hits []int }

// goodPerKey appends to state reached through the range value: each key's
// slice sees only its own iterations, and integer accumulation commutes.
func goodPerKey(m map[string]*perKeyStats, n int) int {
	total := 0
	for _, st := range m {
		total += n
		st.hits = append(st.hits, n)
	}
	return total
}

// waivedSum demonstrates the waiver path: one allow directive on the range
// line covers every finding inside the loop.
func waivedSum(m map[string]float64) float64 {
	var sum float64
	//firmvet:allow maporder -- corpus: demonstrates the range-line waiver; this sum feeds no golden output
	for _, v := range m {
		sum += v
	}
	return sum
}

// goodArgMaxSorted ranges over sorted keys: ties go to the smallest key.
func goodArgMaxSorted(count map[string]int) string {
	best, bestN := "", 0
	for _, k := range sortedKeys(count) {
		if n := count[k]; n > bestN {
			best, bestN = k, n
		}
	}
	return best
}

type perKeyBest struct {
	vals []float64
	max  float64
}

// goodPerKeySelect selects within one key's state: no entry competes with
// another key's.
func goodPerKeySelect(m map[string]*perKeyBest) {
	for _, st := range m {
		for _, v := range st.vals {
			if v > st.max {
				st.max = v
			}
		}
	}
}

// goodAnyMatch records only that some entry matched, never which.
func goodAnyMatch(m map[string]bool) bool {
	found := false
	for _, ok := range m {
		if ok {
			found = true
		}
	}
	return found
}
