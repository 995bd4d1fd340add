package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// withProfiles runs f with optional pprof CPU/heap capture around it: the
// CPU profile covers f, the heap profile snapshots f's end state (after a
// GC, so it reflects live retention, not garbage). Profile-file errors are
// operational failures (exit 1), not flag misuse — flags were validated.
func withProfiles(cpuPath, memPath string, f func() int) int {
	if cpuPath != "" {
		cf, err := os.Create(cpuPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "firmbench: -cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(cf); err != nil {
			cf.Close()
			fmt.Fprintf(os.Stderr, "firmbench: -cpuprofile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			cf.Close()
		}()
	}
	code := f()
	if memPath != "" {
		mf, err := os.Create(memPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "firmbench: -memprofile: %v\n", err)
			return 1
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(mf); err != nil {
			mf.Close()
			fmt.Fprintf(os.Stderr, "firmbench: -memprofile: %v\n", err)
			return 1
		}
		if err := mf.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "firmbench: -memprofile: %v\n", err)
			return 1
		}
	}
	return code
}
