package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// header identifies the code and machine a set of numbers came from; it
// heads every output the benchmark writes.
type header struct {
	Commit     string `json:"commit"`
	Modified   bool   `json:"modified,omitempty"`
	GoVersion  string `json:"go_version"`
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Seed       uint64 `json:"seed"`
	Date       string `json:"date"`
}

func newHeader(seed uint64) header {
	h := header{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Seed:       seed,
		Date:       time.Now().UTC().Format(time.RFC3339),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				h.Modified = s.Value == "true"
			}
		}
	}
	return h
}

// cpuModel reads the first "model name" of /proc/cpuinfo, "unknown"
// where the kernel does not expose it.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MB,
// 0 where procfs is absent.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64) // a malformed line reads 0, like a missing one
				return kb / 1024
			}
		}
	}
	return 0
}
