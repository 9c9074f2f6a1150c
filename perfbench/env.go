package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
)

// envStamp identifies the machine and build a report was measured on.
type envStamp struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Traced     bool   `json:"traced"`
	Commit     string `json:"commit"`
	GoVersion  string `json:"go"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// stamp builds the environment stamp. The commit comes from
// PERFBENCH_COMMIT, which run.sh sets from git when the tree is a
// checkout with history, and reads "unknown" otherwise.
func stamp(workload string, cfg runConfig) envStamp {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return envStamp{
		Workload:   workload,
		Seed:       cfg.seed,
		Traced:     cfg.traced,
		Commit:     commit,
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
