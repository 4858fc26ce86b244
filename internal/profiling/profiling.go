// Package profiling gives every command the same -cpuprofile and
// -memprofile flags: a CPU profile of the whole run and a heap profile
// written at exit, both complete on every way out of the command.
package profiling

import (
	"flag"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags registers -cpuprofile and -memprofile on fs.
func Flags(fs *flag.FlagSet) (cpuPath, memPath *string) {
	return fs.String("cpuprofile", "", "write a CPU profile of the run to this file"),
		fs.String("memprofile", "", "write a heap profile to this file on exit")
}

// Start starts the CPU profile and returns the function that stops it and
// writes the heap profile; either path may be empty. The caller runs stop
// on every way out, before any os.Exit.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		if cpuFile, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if memPath == "" {
			return nil
		}
		f, err := os.Create(memPath)
		if err != nil {
			return err
		}
		runtime.GC() // so the profile shows what is live, not what is garbage
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}
