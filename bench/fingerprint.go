package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// fingerprint identifies the machine and build a result came from; it
// is printed with every run and stored with every -out record, so two
// result files can be told apart before they are compared.
type fingerprint struct {
	NProc          int    `json:"nproc"`
	GOMAXPROCS     int    `json:"gomaxprocs"`
	CPU            string `json:"cpu"`
	GoVersion      string `json:"go_version"`
	Commit         string `json:"commit"`
	Seed           uint64 `json:"seed"`
	Workers        int    `json:"workers"`
	Oversubscribed bool   `json:"oversubscribed"` // K > cores: ranks time-share, wall-clock scaling is not meaningful
}

// maxProcs caps GOMAXPROCS so a run on a large host still resembles the
// box the workloads were sized on.
const maxProcs = 4

func machineFingerprint(seed uint64, workers int) fingerprint {
	n := runtime.NumCPU()
	return fingerprint{
		NProc:          n,
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		CPU:            cpuModel(),
		GoVersion:      runtime.Version(),
		Commit:         buildCommit(),
		Seed:           seed,
		Workers:        workers,
		Oversubscribed: workers > n,
	}
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

// buildCommit is the VCS revision the toolchain stamped into the
// binary; a checkout that is not a repository has none.
func buildCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}
