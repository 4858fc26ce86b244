// Package webload reproduces the paper's server-loading setup (Figure 5):
// an Apache 1.3.12-style web server loaded by remote `httperf` clients.
//
// httperf "allows web pages to be requested at a certain rate by a number
// of connections"; the paper applies two load levels, averaging 45% and 60%
// CPU utilization on the host, with visible burstiness (Figure 6 shows
// excursions above 80% during the 60% run). The generator therefore emits
// request *bursts* at a fixed interval; every request costs a fixed CPU
// demand served by the hostos time-sharing queues, like Apache worker
// processes would.
package webload

import (
	"fmt"
	"math"

	"repro/internal/hostos"
	"repro/internal/sim"
)

// Profile describes one httperf run.
type Profile struct {
	Name          string
	BurstEvery    sim.Time // interval between request bursts
	BurstSize     int      // requests per burst (jittered ±50%)
	PerRequestCPU sim.Time // CPU demand of serving one request
	CPU           int      // hostos CPU to load, or hostos.AnyCPU
	// Spread assigns requests round-robin across all CPUs instead of
	// least-loaded placement: Apache worker processes do not migrate away
	// from the processor the media scheduler is bound to, which is exactly
	// why host-based scheduling degrades (§4.2.3).
	Spread bool
	// ModPeriod/ModDepth modulate the burst size over a slow cycle:
	// Figure 6's 60%-average run sustains >80% utilization for tens-of-second
	// stretches. Burst size is scaled by 1 + ModDepth·sin(2πt/ModPeriod).
	ModPeriod sim.Time
	ModDepth  float64
}

// NoLoad is the quiescent profile: only background daemons run.
func NoLoad() Profile { return Profile{Name: "no-load"} }

// TargetUtilization builds a profile that averages roughly pct percent
// utilization across nCPU processors.
//
// demand per second = pct/100 × nCPU seconds; with 6 ms per request that
// sets the burst size at a 250 ms burst interval.
func TargetUtilization(name string, pct float64, nCPU int) Profile {
	const perReq = 6 * sim.Millisecond
	const every = 250 * sim.Millisecond
	demandPerSec := pct / 100 * float64(nCPU) // CPU-seconds per second
	reqPerSec := demandPerSec / perReq.Seconds()
	return Profile{
		Name:          name,
		BurstEvery:    every,
		BurstSize:     int(reqPerSec*every.Seconds() + 0.5),
		PerRequestCPU: perReq,
		CPU:           hostos.AnyCPU,
		Spread:        true,
		ModPeriod:     50 * sim.Second,
		ModDepth:      1.0,
	}
}

// Generator drives a Profile against a host.
type Generator struct {
	eng  *sim.Engine
	sys  *hostos.System
	prof Profile

	// Requests counts requests issued; Completed counts served.
	Requests  int64
	Completed int64

	stop       func()
	completeFn func() // counts one served request, built once
}

// NewGenerator returns an idle generator.
func NewGenerator(eng *sim.Engine, sys *hostos.System, prof Profile) *Generator {
	g := &Generator{eng: eng, sys: sys, prof: prof}
	g.completeFn = func() { g.Completed++ }
	return g
}

// Start begins emitting bursts until Stop (idempotent for NoLoad).
func (g *Generator) Start() {
	if g.prof.BurstSize == 0 || g.prof.BurstEvery == 0 {
		return
	}
	g.stop = g.eng.Every(g.prof.BurstEvery, func() {
		n := g.prof.BurstSize
		if g.prof.ModPeriod > 0 {
			phase := 2 * math.Pi * float64(g.eng.Now()%g.prof.ModPeriod) / float64(g.prof.ModPeriod)
			n = int(float64(n) * (1 + g.prof.ModDepth*math.Sin(phase)))
		}
		// ±50% deterministic jitter from the engine RNG: the Figure 6
		// curves are spiky, not flat.
		n = n/2 + g.eng.Rand().Intn(n+1)
		for i := 0; i < n; i++ {
			g.Requests++
			cpu := g.prof.CPU
			if g.prof.Spread {
				cpu = int(g.Requests) % g.sys.NumCPU()
			}
			g.sys.Submit(cpu, g.prof.PerRequestCPU, g.completeFn)
		}
	})
}

// Stop halts the generator.
func (g *Generator) Stop() {
	if g.stop != nil {
		g.stop()
		g.stop = nil
	}
}

// String describes the profile.
func (g *Generator) String() string {
	p := g.prof
	if p.BurstSize == 0 {
		return p.Name
	}
	return fmt.Sprintf("%s: %d req / %v, %v CPU each", p.Name, p.BurstSize, p.BurstEvery, p.PerRequestCPU)
}

// Daemons submits the steady trickle of system-daemon work even a "minimal
// installation" runs (§4.2.3) — a small periodic demand on every CPU plus a
// heavier housekeeping burst every few seconds on the last CPU (cron jobs,
// page-scanner activity), which gives the quiescent Figure 6 curve its
// 30–35% excursions without touching the processor the scheduler is bound
// to.
func Daemons(eng *sim.Engine, sys *hostos.System) (stop func()) {
	s1 := eng.Every(100*sim.Millisecond, func() {
		for i := 0; i < sys.NumCPU(); i++ {
			sys.Submit(i, 500*sim.Microsecond, nil)
		}
	})
	s2 := eng.Every(7*sim.Second, func() {
		sys.Submit(sys.NumCPU()-1, 400*sim.Millisecond, nil)
	})
	return func() { s1(); s2() }
}
