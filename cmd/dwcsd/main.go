// Command dwcsd streams synthetic MPEG-1 frames over real UDP, paced by the
// same DWCS scheduler core the simulated NI runs. It has three modes, each a
// configuration of one run (run.go): serve is a send half, recv a receive
// half, soak both in one process over loopback.
//
//	dwcsd -recv 127.0.0.1:9961 -dur 5s
//	dwcsd -dest 127.0.0.1:9961 -streams 2 -period 50ms -dur 5s
//	dwcsd -soak 2000 -dur 5s -flash -artifacts /tmp/soak
//
// Frames travel as MTU-sized datagrams in the internal/proto media framing;
// recv reports per-stream goodput and inter-arrival jitter, soak per-session
// goodput and jitter distributions over its set-up/teardown churn.
//
// Every mode carries the observability stack the simulated NI carries:
// causal spans in the sim stage vocabulary, a flight recorder that dumps on
// SLO violation or abnormal exit, SLO burn rates from each stream's DWCS
// (x,y) window, a live Prometheus endpoint under -metrics, and with
// -artifacts DIR the sim's artifact directory format, so `tracetool -diff
// -conformance` compares a real run with a simulated one directly.
// -cpuprofile and -memprofile are complete on every way out.
//
// SIGINT or SIGTERM shuts any mode down gracefully: the send half stops
// injecting and drains what the scheduler holds (bounded by -drain), the run
// dumps an "interrupted" incident and reports the partial run, the metrics
// listener finishes in-flight scrapes. A second signal aborts.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/profiling"
)

func main() {
	dest := flag.String("dest", "", "serve mode: destination UDP address")
	recv := flag.String("recv", "", "receive mode: UDP listen address")
	soak := flag.Int("soak", 0, "soak mode: spawn N in-process UDP client sessions against a loopback receiver")
	streams := flag.Int("streams", 2, "number of concurrent streams")
	period := flag.Duration("period", 50*time.Millisecond, "per-stream frame period")
	dur := flag.Duration("dur", 5*time.Second, "run duration")
	metricsAddr := flag.String("metrics", "", "serve Prometheus metrics on this HTTP address while running")
	artifacts := flag.String("artifacts", "", "write the sim-format artifact directory (stages.txt, metrics.csv, slo.txt, incidents.txt) here on exit")
	drain := flag.Duration("drain", 2*time.Second, "graceful-shutdown deadline for draining queued frames on SIGINT/SIGTERM")
	flash := flag.Bool("flash", false, "soak mode: flash-crowd arrivals (every session sets up inside the first 100ms)")
	churn := flag.Float64("churn", 0.25, "soak mode: fraction of sessions torn down and replaced mid-run")
	throttle := flag.Duration("throttle", 0, "soak mode: stall injected before every dispatch (validates the regression gate)")
	cpuProfile, memProfile := profiling.Flags()
	flag.Parse()

	cfg := runConfig{period: *period, dur: *dur, drain: *drain, metrics: *metricsAddr, dir: *artifacts}
	var err error
	switch {
	case *soak > 0:
		cfg, err = cfg.soak(*soak, *flash, *churn, *throttle)
	case *recv != "":
		cfg = cfg.recv(*recv)
	case *dest != "":
		cfg = cfg.serve(*dest, *streams)
	default:
		fmt.Fprintln(os.Stderr, "dwcsd: need -dest (send), -recv (receive), or -soak N; see -h")
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}

	lc := newLifecycle()
	lc.watch(os.Interrupt, syscall.SIGTERM)

	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	err = run(cfg, lc, os.Stdout)
	// Every way out of the run — full run, signal drain, error — comes back
	// here, so the profiles are complete before fatal's os.Exit.
	if perr := stopProfiles(); err == nil {
		err = perr
	}
	if err != nil {
		fatal(err)
	}
}

// lifecycle coordinates signal-driven graceful shutdown: the run's loops
// watch stop and wind down early when a watched signal (or a test)
// triggers it.
type lifecycle struct {
	stop chan struct{}
	once sync.Once
}

func newLifecycle() *lifecycle { return &lifecycle{stop: make(chan struct{})} }

// watch triggers shutdown on the first of the given signals, then
// unregisters the handler — so a second signal falls back to the default
// disposition and kills a wedged drain.
func (l *lifecycle) watch(sigs ...os.Signal) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, sigs...)
	go func() {
		s := <-ch
		signal.Stop(ch)
		fmt.Fprintf(os.Stderr, "dwcsd: %v: draining and shutting down (signal again to abort)\n", s)
		l.trigger()
	}()
}

func (l *lifecycle) trigger() { l.once.Do(func() { close(l.stop) }) }

func (l *lifecycle) stopped() bool {
	select {
	case <-l.stop:
		return true
	default:
		return false
	}
}

// metricsHandler serves a Prometheus text dump under /metrics. render is
// called per scrape; the obs bundle's render locks against the send and
// receive halves, so a scrape arriving mid-frame is race-free.
func metricsHandler(render func() string) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		io.WriteString(w, render())
	})
	return mux
}

// serveMetrics starts the metrics endpoint on addr and returns the bound
// address (addr may end in :0) and a stopper. The stopper closes the
// listener gracefully: an in-flight scrape gets a second to finish before
// the connection is torn down.
func serveMetrics(addr string, render func() string) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: metricsHandler(render)}
	go srv.Serve(ln)
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		if srv.Shutdown(ctx) != nil {
			srv.Close()
		}
	}
	return ln.Addr().String(), stop, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dwcsd:", err)
	os.Exit(1)
}
