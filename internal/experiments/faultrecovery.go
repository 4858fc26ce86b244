// Fault-recovery experiment: the robustness counterpart to Figures 7/9.
// A scheduler-NI testbed streams through a chaos schedule — the card
// crashes mid-run, its hardware watchdog detects the hang, streams fall
// back to the host-resident DWCS (§4.2.3's configuration, now a graceful-
// degradation tier), the card resets after a delay, and streams migrate
// home. The report plots per-stream bandwidth through fail → recover and
// counts DWCS violations outside the outage (there must be none: fault
// handling must not bleed into steady-state QoS).
package experiments

import (
	"repro/internal/bus"
	"repro/internal/dwcs"
	"repro/internal/faults"
	"repro/internal/host"
	"repro/internal/hostos"
	"repro/internal/mpeg"
	"repro/internal/netsim"
	"repro/internal/nic"
	"repro/internal/sim"
	"repro/internal/stats"
)

// FaultConfig parameterizes RunFaultRecovery.
type FaultConfig struct {
	Dur sim.Time // observation length; 0 = 30 s
}

const (
	// faultResetDelay is how long a watchdog-initiated card reset takes
	// (firmware reload).
	faultResetDelay = sim.Second
	// faultWatchdogTimeout is the card deadman period.
	faultWatchdogTimeout = 250 * sim.Millisecond
)

// Chaos-plan target names understood by the fault-recovery testbed.
const (
	TargetSchedNI = "ni-sched" // CardCrash / TaskHang
	TargetUplink  = "uplink"   // LinkDown / LossBurst on the card's Ethernet
)

// DefaultFaultPlan is the canonical schedule: a card crash a third of the
// way in (recovery is the watchdog's job, so no Duration), then a loss
// burst on the card's uplink in the post-recovery phase.
func DefaultFaultPlan(dur sim.Time) *faults.Plan {
	return &faults.Plan{Events: []faults.Event{
		{At: dur / 3, Kind: faults.CardCrash, Target: TargetSchedNI},
		{At: 2 * dur / 3, Duration: dur / 10, Kind: faults.LossBurst, Target: TargetUplink, Factor: 16},
	}}
}

// FaultRecovery is everything one chaos run produces.
type FaultRecovery struct {
	Dur sim.Time

	// Timeline of the first card crash (zero if the plan has none).
	CrashAt sim.Time // injection
	BiteAt  sim.Time // watchdog detection → failover to host
	ResetAt sim.Time // card back up → migrate home

	// Per-stream mean bandwidth by phase, and time from crash until the
	// stream's delivered bandwidth is back within 90% of its pre-fault
	// value (recovery includes detection + reset + resettling).
	PreBW     map[string]float64
	OutageBW  map[string]float64
	PostBW    map[string]float64
	RecoverIn map[string]sim.Time
	BW        map[string]*stats.Series // full per-stream curves

	// ViolationsOutsideOutage sums DWCS window violations recorded before
	// the crash and after recovery, on both schedulers. Must be zero: the
	// chaos window is the only place QoS may be hurt.
	ViolationsOutsideOutage int64
	// DetectionLoss counts frames injected into the dead card between the
	// crash and the watchdog bite — the price of the detection window.
	DetectionLoss int64

	Bites, Crashes, Resets int64
	Switches               int64 // failover transitions (2 = out and back)
	NISent, HostSent       int64
	Log                    *faults.Log
}

// RunFaultRecovery builds the testbed, arms the chaos plan, and runs it.
func RunFaultRecovery(cfg FaultConfig) *FaultRecovery {
	if cfg.Dur == 0 {
		cfg.Dur = 30 * sim.Second
	}

	eng := sim.NewEngine(42)
	sys := hostos.New(eng, 2, 10*sim.Millisecond)
	sw := netsim.NewSwitch(eng, "sw0", 90*sim.Microsecond)

	fr := &FaultRecovery{
		Dur:       cfg.Dur,
		PreBW:     make(map[string]float64),
		OutageBW:  make(map[string]float64),
		PostBW:    make(map[string]float64),
		RecoverIn: make(map[string]sim.Time),
		BW:        make(map[string]*stats.Series),
		Log:       &faults.Log{},
	}

	specs := figureStreams()
	clients := attachClients(eng, sw, specs)
	for i, spec := range specs {
		clients[i].BW = stats.NewBandwidthMeter(spec.Name, bwWindow)
	}

	// Primary: the dedicated scheduler NI.
	seg := bus.New(eng, bus.PCI("pci0"))
	card := nic.New(eng, nic.Config{Name: TargetSchedNI, PCI: seg, CacheOn: true})
	uplink := netsim.Fast100(eng, TargetUplink, sw)
	card.ConnectEthernet(uplink)
	ext, err := card.LoadScheduler(nic.SchedulerConfig{EligibleEarly: eligibleEarly})
	if err != nil {
		panic(err)
	}
	// Backup: the host-resident DWCS through a dumb 82557 NI.
	hsched := host.NewScheduler(eng, sys, netsim.Fast100(eng, "host-eth", sw),
		host.SchedulerConfig{CPU: 0, EligibleEarly: eligibleEarly})
	for i, spec := range specs {
		if err := ext.AddStream(spec); err != nil {
			panic(err)
		}
		if err := hsched.AddStream(spec, clients[i].Name); err != nil {
			panic(err)
		}
	}

	// Producers inject at exactly the service rate (no oversubscription:
	// steady state must be violation-free) through the failover switch. The
	// NI path needs each frame tagged with its client address (the host
	// scheduler keeps its own stream→client map instead).
	dst := make(map[int]string, len(specs))
	for _, spec := range specs {
		dst[spec.ID] = "client-" + spec.Name
	}
	ft := &host.FailoverTarget{Primary: addrTarget{ext, dst}, Backup: hsched}
	clip := mpeg.GenerateDefault()
	for _, spec := range specs {
		host.StartProducer(eng, sys, ft, host.ProducerConfig{
			Clip: clip, StreamID: spec.ID, Every: streamPeriod,
			PerFrameCPU: producerFrameCPU, CPU: hostos.AnyCPU,
		})
	}

	// Self-healing loop: the watchdog detects the crashed kernel, fails
	// streams over to the host tier, and schedules the delayed card reset.
	// On reset the card's DWCS state is reloaded fresh (the backlog died
	// with the card) and streams migrate home.
	var violationsBeforeCrash int64
	var injectedAtCrash int64
	resetArmed := false
	card.StartWatchdog(faultWatchdogTimeout, func() {
		if !card.Crashed() || resetArmed {
			return // spurious bite (e.g. a task hang that clears itself)
		}
		resetArmed = true
		fr.BiteAt = eng.Now()
		fr.DetectionLoss = ft.ToPrimary - injectedAtCrash
		ft.FailToBackup()
		eng.After(faultResetDelay, func() {
			for _, spec := range specs {
				_ = ext.Sched.RemoveStream(spec.ID)
			}
			card.Reset()
			fr.ResetAt = eng.Now()
			for _, spec := range specs {
				if err := ext.AddStream(spec); err != nil {
					panic(err)
				}
			}
			ft.RestorePrimary()
			resetArmed = false
		})
	})

	err = DefaultFaultPlan(cfg.Dur).Arm(eng, faults.InjectorFuncs{
		OnInject: func(e faults.Event) {
			switch e.Kind {
			case faults.CardCrash:
				if fr.CrashAt == 0 {
					fr.CrashAt = eng.Now()
					injectedAtCrash = ft.ToPrimary
					for _, spec := range specs {
						if st, err := ext.Sched.Stats(spec.ID); err == nil {
							violationsBeforeCrash += st.Violations
						}
					}
				}
				card.Crash()
			case faults.TaskHang:
				card.HangHog(e.Duration)
			case faults.LinkDown:
				uplink.SetDown(true)
			case faults.LossBurst:
				uplink.DropEvery = e.Factor
			}
		},
		OnRecover: func(e faults.Event) {
			switch e.Kind {
			case faults.CardCrash:
				// Recovery belongs to the watchdog; a plan Duration on a
				// crash is only an annotation.
			case faults.LinkDown:
				uplink.SetDown(false)
			case faults.LossBurst:
				uplink.DropEvery = 0
			}
		},
	}, fr.Log)
	if err != nil {
		panic(err)
	}

	eng.RunUntil(cfg.Dur)

	fr.Bites = card.Watchdog.Bites
	fr.Crashes = card.Crashes
	fr.Resets = card.Resets
	fr.Switches = ft.Switches
	fr.NISent = ext.Sent
	fr.HostSent = hsched.Sent

	// Violations outside the outage: pre-crash plus post-recovery (the NI
	// stream stats were reloaded at reset, so they cover only the post
	// phase) plus everything the host tier recorded.
	fr.ViolationsOutsideOutage = violationsBeforeCrash
	for _, spec := range specs {
		if st, err := ext.Sched.Stats(spec.ID); err == nil {
			fr.ViolationsOutsideOutage += st.Violations
		}
		if st, err := hsched.Sched.Stats(spec.ID); err == nil {
			fr.ViolationsOutsideOutage += st.Violations
		}
	}

	for i, spec := range specs {
		clients[i].BW.FlushUntil(cfg.Dur)
		s := &clients[i].BW.Series
		fr.BW[spec.Name] = s
		if fr.CrashAt == 0 { // no crash in the plan: one long steady phase
			fr.PreBW[spec.Name] = s.Mean()
			continue
		}
		fr.PreBW[spec.Name] = meanWindow(s, 0, fr.CrashAt)
		fr.OutageBW[spec.Name] = meanWindow(s, fr.CrashAt, fr.ResetAt+bwWindow)
		fr.PostBW[spec.Name] = meanWindow(s, fr.ResetAt+bwWindow, cfg.Dur)
		fr.RecoverIn[spec.Name] = recoverTime(s, fr.CrashAt, fr.ResetAt, 0.9*fr.PreBW[spec.Name])
	}
	return fr
}

// addrTarget routes host-produced frames into the scheduler NI, tagging
// each with the stream's client address so the card knows where to send it.
type addrTarget struct {
	ext *nic.SchedulerExt
	dst map[int]string
}

// Enqueue implements host.EnqueueTarget.
func (a addrTarget) Enqueue(id int, p dwcs.Packet) error {
	if p.Payload == nil {
		p.Payload = nic.AddrPayload(a.dst[id])
	}
	return a.ext.Enqueue(id, p)
}

// meanWindow averages the series points in [from, to).
func meanWindow(s *stats.Series, from, to sim.Time) float64 {
	sum, n := 0.0, 0
	for _, p := range s.Points {
		if p.At >= from && p.At < to {
			sum += p.Value
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// recoverTime returns how long after crashAt the series first reaches
// target at or after resetAt (-1 if never).
func recoverTime(s *stats.Series, crashAt, resetAt sim.Time, target float64) sim.Time {
	for _, p := range s.Points {
		if p.At >= resetAt && p.Value >= target {
			return p.At - crashAt
		}
	}
	return -1
}

// Result renders the run as a report table (paper column empty: the paper
// has no fault experiment — this extends it).
func (fr *FaultRecovery) Result() *Result {
	res := &Result{ID: "Fault", Title: "Chaos schedule: NI crash, watchdog reset, host fallback"}
	for _, spec := range figureStreams() {
		n := spec.Name
		res.Add(n+" pre-fault bw", "bps", 0, fr.PreBW[n])
		res.Add(n+" outage bw (host tier)", "bps", 0, fr.OutageBW[n])
		res.Add(n+" post-recovery bw", "bps", 0, fr.PostBW[n])
		res.Add(n+" recovery time", "ms", 0, fr.RecoverIn[n].Milliseconds())
	}
	res.Add("violations outside outage", "frames", 0, float64(fr.ViolationsOutsideOutage))
	res.Add("frames lost to detection window", "frames", 0, float64(fr.DetectionLoss))
	res.Add("watchdog bites", "", 0, float64(fr.Bites))
	res.Add("frames sent by host tier", "frames", 0, float64(fr.HostSent))
	if fr.CrashAt > 0 {
		res.Note("crash %v → bite %v (detection %v) → reset %v",
			fr.CrashAt, fr.BiteAt, fr.BiteAt-fr.CrashAt, fr.ResetAt)
	}
	res.Note("crashes=%d resets=%d failover switches=%d NI sent=%d",
		fr.Crashes, fr.Resets, fr.Switches, fr.NISent)
	for _, r := range fr.Log.Records {
		verb := "inject"
		if r.Recover {
			verb = "recover"
		}
		res.Note("chaos: %v %s %s %s", r.At, verb, r.Event.Kind, r.Event.Target)
	}
	return res
}
