package experiments

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/blackbox"
	"repro/internal/bus"
	"repro/internal/dwcs"
	"repro/internal/faults"
	"repro/internal/fixed"
	"repro/internal/netsim"
	"repro/internal/nic"
	"repro/internal/overload"
	"repro/internal/sim"
	"repro/internal/slo"
	"repro/internal/telemetry"
)

// matrixCard is one scheduler card carrying the diagnostics run's stack:
// an overload controller, a flight recorder, an SLO monitor and a registry.
type matrixCard struct {
	eng  *sim.Engine
	card *nic.Card
	ext  *nic.SchedulerExt
	ctl  *overload.Controller
	rec  *blackbox.Recorder
	mon  *slo.Monitor
	reg  *telemetry.Registry
}

// newMatrixCard builds the card with a controller over budget bytes (0 =
// the card's memory) and a 16 KiB recorder, attached in the given order.
func newMatrixCard(t *testing.T, budget int64, blackboxFirst bool) (*matrixCard, error) {
	t.Helper()
	eng := sim.NewEngine(1)
	card := nic.New(eng, nic.Config{Name: "ni0", PCI: bus.New(eng, bus.PCI("pci0"))})
	sw := netsim.NewSwitch(eng, "sw0", 90*sim.Microsecond)
	sw.Attach("client-1", netsim.Fast100(eng, "sw-client-1", netsim.NewClient(eng, "client-1")))
	card.ConnectEthernet(netsim.Fast100(eng, "ni0-eth", sw))
	ext, err := card.LoadScheduler(nic.SchedulerConfig{WorkConserving: true})
	if err != nil {
		t.Fatal(err)
	}
	if budget == 0 {
		budget = card.Mem.Size()
	}
	m := &matrixCard{eng: eng, card: card, ext: ext, ctl: overload.NewController(card.Name, budget),
		mon: slo.NewMonitor(card.Name, slo.Config{}), reg: telemetry.New()}
	if m.rec, err = blackbox.New(blackbox.Config{Name: card.Name}); err != nil {
		t.Fatal(err)
	}
	ext.Instrument(m.reg)
	m.mon.Rec = m.rec
	if blackboxFirst {
		return m, errors.Join(ext.AttachBlackbox(m.rec), ext.AttachOverload(m.ctl))
	}
	return m, errors.Join(ext.AttachOverload(m.ctl), ext.AttachBlackbox(m.rec))
}

// addStream admits a lossy 10 ms stream.
func (m *matrixCard) addStream(t *testing.T, id int) {
	t.Helper()
	if err := m.ext.AddStream(dwcs.StreamSpec{ID: id, Name: "s", Period: 10 * sim.Millisecond,
		Loss: fixed.New(1, 2), Lossy: true, BufCap: 8, NominalBytes: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestTriggerMatrix is DESIGN §13's trigger matrix, one row per source:
// each row causes its event on a real card and finds the ring line the
// emitter recorded and the incidents it triggered (none for record-only
// sources). Every row also holds the ring's ClassBlackbox charge.
func TestTriggerMatrix(t *testing.T) {
	hangAt := func(m *matrixCard, d sim.Time) {
		m.eng.At(100*sim.Millisecond, func() { m.card.HangHog(d) })
	}
	for _, row := range []struct {
		source   string
		cause    func(t *testing.T, m *matrixCard)
		line     string   // the ring line, after its timestamp
		triggers []string // incident reasons, in order
	}{
		{"scheduler dispatch", func(t *testing.T, m *matrixCard) {
			m.addStream(t, 1)
			m.ext.Enqueue(1, dwcs.Packet{Bytes: 1000})
		}, "decision stream=1 a=1000 b=", nil},
		{"scheduler drop", func(t *testing.T, m *matrixCard) {
			m.addStream(t, 1)
			hangAt(m, 300*sim.Millisecond)
			m.eng.At(150*sim.Millisecond, func() { m.ext.Enqueue(1, dwcs.Packet{Bytes: 1000}) })
		}, "drop stream=1 a=1000 deadline", nil},
		{"ladder transition", func(t *testing.T, m *matrixCard) {
			for range m.ctl.Ladder.Sustain {
				m.ctl.Ladder.Evaluate(1)
			}
		}, "ladder b=1 none -> shed", nil},
		{"budget admission refusal", func(t *testing.T, m *matrixCard) {
			err := m.ext.AddStream(dwcs.StreamSpec{ID: 2, Name: "big", Period: 10 * sim.Millisecond,
				BufCap: 64, NominalBytes: 1 << 20})
			if !errors.Is(err, overload.ErrAdmission) {
				t.Fatalf("oversized stream: %v, want ErrAdmission", err)
			}
		}, "refusal a=67111168 admission refused", []string{"budget-refusal"}},
		{"budget breach: refused charge", func(t *testing.T, m *matrixCard) {
			if err := m.ctl.Budget.Charge(overload.ClassLeak, m.ctl.Budget.Size()); !errors.Is(err, overload.ErrBudget) {
				t.Fatalf("overcharge: %v, want ErrBudget", err)
			}
		}, "refusal a=16384 budget breach", []string{"budget-breach"}},
		{"budget breach: observed allocation, then leak", func(t *testing.T, m *matrixCard) {
			m.ctl.Budget.OnAlloc(m.ctl.Budget.Size()) // already happened: applied, a breach
			m.ctl.Budget.Leak(1)                      // still over: another
		}, "refusal a=4210688 budget breach", []string{"budget-breach", "budget-breach"}},
		{"watchdog bite", func(t *testing.T, m *matrixCard) {
			m.card.StartWatchdog(50*sim.Millisecond, nil)
			hangAt(m, 60*sim.Millisecond) // one timeout without a pet: one bite
		}, "watchdog deadman bite", []string{"watchdog"}},
		{"fault armed", func(t *testing.T, m *matrixCard) {
			diagInjector(m.card, m.ctl.Budget).Inject(faults.Event{Kind: faults.TaskHang,
				Duration: 10 * sim.Millisecond, Target: m.card.Name})
		}, "fault task-hang ni0", []string{"fault: task-hang ni0"}},
		{"fault recovered", func(t *testing.T, m *matrixCard) {
			inj := diagInjector(m.card, m.ctl.Budget)
			e := faults.Event{Kind: faults.MemLeak, Duration: sim.Second, Target: m.card.Name, Factor: 64}
			inj.Inject(e)
			m.eng.At(200*sim.Millisecond, func() { inj.Recover(e) })
		}, "fault mem-leak ni0 recovered", []string{"fault: mem-leak ni0"}},
		{"SLO stream transition", func(t *testing.T, m *matrixCard) {
			var lost int64
			for _, id := range []int{1, 2} { // both streams violate; one card-level trigger
				m.mon.Track(slo.Objective{Stream: id, Name: "s", LossTarget: 0.01},
					func() (int64, int64) { lost += 10; return lost, lost })
			}
			m.mon.Start(m.eng)
		}, "slo stream=2 a=2 b=3 burning -> violated", []string{"slo-burn"}},
		{"registry snapshot", func(t *testing.T, m *matrixCard) {
			m.eng.At(100*sim.Millisecond, func() { snapshotMarked(m.card, m.reg) })
		}, "snapshot a=6", nil},
	} {
		t.Run(row.source, func(t *testing.T) {
			m, err := newMatrixCard(t, 0, false)
			if err != nil {
				t.Fatal(err)
			}
			row.cause(t, m)
			m.eng.RunUntil(5 * sim.Second)

			var lines []string
			for _, e := range m.rec.Events() {
				_, line, _ := strings.Cut(e.String(), " ")
				lines = append(lines, line)
			}
			if !slices.ContainsFunc(lines, func(l string) bool { return strings.HasPrefix(l, row.line) }) {
				t.Errorf("no ring line %q in:\n%s", row.line, strings.Join(lines, "\n"))
			}
			var reasons []string
			for _, inc := range m.rec.Incidents() {
				reasons = append(reasons, inc.Reason)
				// The emitter records before it triggers: the incident's ring
				// ends with an event of the row's kind.
				kind, _, _ := strings.Cut(row.line, " ")
				if n := len(inc.Events); n == 0 || inc.Events[n-1].Kind.String() != kind {
					t.Errorf("incident %q does not end with its cause: %v", inc.Reason, inc.Events)
				}
			}
			if !slices.Equal(reasons, row.triggers) {
				t.Errorf("triggers %q, want %q", reasons, row.triggers)
			}
			if got := m.ctl.Budget.UsedClass(overload.ClassBlackbox); got != m.rec.RingBytes() {
				t.Errorf("ring charge %d, want the ring's %d bytes held", got, m.rec.RingBytes())
			}
		})
	}

	// A budget that cannot hold the ring refuses the attach, in either
	// order, and the card keeps no recorder and no charge.
	for _, blackboxFirst := range []bool{false, true} {
		m, err := newMatrixCard(t, 1<<10, blackboxFirst)
		if !errors.Is(err, overload.ErrBudget) || m.card.Blackbox != nil ||
			m.ctl.Budget.UsedClass(overload.ClassBlackbox) != 0 {
			t.Errorf("blackbox first %v: attach = %v, recorder kept %v, charge %d; want ErrBudget, none, 0",
				blackboxFirst, err, m.card.Blackbox != nil, m.ctl.Budget.UsedClass(overload.ClassBlackbox))
		}
	}
}
