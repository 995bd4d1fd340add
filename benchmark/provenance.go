package main

import (
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// provenance is the machine and build a set of numbers was taken on.
type provenance struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	// AVX is the /proc/cpuinfo flag: internal/nn switches to its AVX
	// kernels on it but does not export which one it picked.
	AVX       bool   `json:"avx"`
	GitCommit string `json:"git_commit"`
	Seed      int64  `json:"seed"`
}

func readProvenance(seed int64) provenance {
	p := provenance{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       "100",
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		CPUModel:   "unknown",
		GitCommit:  "unknown",
		Seed:       seed,
	}
	if v := os.Getenv("GOGC"); v != "" {
		p.GOGC = v
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		p.CPUModel, p.AVX = parseCPUInfo(string(data))
	}
	// Absent in an exported checkout, where there is no repository to ask.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		p.GitCommit = strings.TrimSpace(string(out))
	}
	return p
}

// parseCPUInfo extracts the first processor's model name and whether its
// flags include avx.
func parseCPUInfo(cpuinfo string) (model string, avx bool) {
	model = "unknown"
	for _, line := range strings.Split(cpuinfo, "\n") {
		key, val, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(key) {
		case "model name":
			if model == "unknown" {
				model = strings.TrimSpace(val)
			}
		case "flags":
			for _, f := range strings.Fields(val) {
				if f == "avx" {
					return model, true
				}
			}
			return model, false
		}
	}
	return model, false
}
