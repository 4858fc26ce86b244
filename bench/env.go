package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// environment is the block every run prints beside its numbers: a figure
// recorded without its core count is not a measurement.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	W          int     `json:"w"` // worker count of the parallel workloads: min(nproc, 4)
	GoVersion  string  `json:"go_version"`
	Kernel     string  `json:"kernel"`
	Commit     string  `json:"commit"`
	RmemMax    int64   `json:"rmem_max"`
	Load1      float64 `json:"load1"`
	Warning    string  `json:"warning,omitempty"`
}

func readEnvironment() environment {
	e := environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     firstField("/proc/sys/kernel/osrelease"),
		Commit:     commit(),
	}
	e.W = workers()
	e.RmemMax, _ = strconv.ParseInt(firstField("/proc/sys/net/core/rmem_max"), 10, 64)
	e.Load1, _ = strconv.ParseFloat(firstField("/proc/loadavg"), 64)
	if e.Load1 > float64(e.NProc)/2 {
		e.Warning = fmt.Sprintf("1-min load average %.2f exceeds nproc/2 = %.1f: timings will carry the other load", e.Load1, float64(e.NProc)/2)
	}
	return e
}

// workers is W, the worker count of the parallel workloads.
func workers() int { return min(runtime.NumCPU(), 4) }

func (e environment) String() string {
	s := fmt.Sprintf("environment: nproc=%d GOMAXPROCS=%d W=%d go=%s kernel=%s commit=%s rmem_max=%d load1=%.2f",
		e.NProc, e.GOMAXPROCS, e.W, e.GoVersion, e.Kernel, e.Commit, e.RmemMax, e.Load1)
	if e.Warning != "" {
		s += "\nWARNING: " + e.Warning
	}
	return s
}

// firstField returns the first whitespace-separated field of a /proc file,
// "" when the file cannot be read (not Linux).
func firstField(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	if f := strings.Fields(string(data)); len(f) > 0 {
		return f[0]
	}
	return ""
}

// commit names the source the bench was built from: the VCS stamp when the
// toolchain embedded one, else `git rev-parse`, else "unknown" (the bench
// also runs in a plain copy of the tree that is not a git checkout).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// cpuTime is user+system time a process has consumed.
type cpuTime struct{ user, sys time.Duration }

func (c cpuTime) total() time.Duration { return c.user + c.sys }

func (c cpuTime) sub(o cpuTime) cpuTime { return cpuTime{c.user - o.user, c.sys - o.sys} }

func tv(t syscall.Timeval) time.Duration {
	return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
}

// inUs and inMs convert a duration to a float without rounding it first: a
// reported time keeps all its digits.
func inUs(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func inMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// selfUsage reads this process's CPU time and peak resident set (MB).
func selfUsage() (cpuTime, float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return cpuTime{}, 0
	}
	return cpuTime{tv(ru.Utime), tv(ru.Stime)}, float64(ru.Maxrss) / 1024
}
