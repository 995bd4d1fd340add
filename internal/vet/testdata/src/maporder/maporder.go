// Package maporder is firmvet corpus: order-sensitive operations inside map
// iteration that the maporder analyzer must flag.
package maporder

import (
	"fmt"
	"strings"
)

// badSum rounds in map order.
func badSum(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v
	}
	return sum
}

// badCollect builds a map-ordered slice that is never sorted.
func badCollect(m map[string]int) []string {
	var names []string
	for k := range m {
		names = append(names, k)
	}
	return names
}

// badEmit sends bytes and messages in map order three ways.
func badEmit(m map[string]int, ch chan string, sb *strings.Builder) {
	for k, v := range m {
		fmt.Println(k, v)
		sb.WriteString(k)
		ch <- k
	}
}

// badArgMax keeps the first key map order reaches among tied counts.
func badArgMax(count map[string]int) string {
	best, bestN := "", 0
	for k, n := range count {
		if n > bestN {
			best, bestN = k, n
		}
	}
	return best
}

// badArgMin selects through a value derived from the range value.
func badArgMin(lat map[string][]float64) string {
	var pick string
	lo := -1.0
	for name, xs := range lat {
		m := xs[0]
		if lo < 0 || m < lo {
			lo = m
			pick = name
		}
	}
	return pick
}

// badFirstMatch returns whichever matching key map order reaches first.
func badFirstMatch(m map[string]bool) (hit string) {
	for k, ok := range m {
		switch {
		case ok:
			hit = k
		}
		if hit != "" {
			break
		}
	}
	return hit
}
