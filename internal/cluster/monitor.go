// Monitor: heartbeat-based failure detection for scheduler NIs. The
// paper's cluster leans on "careful construction" of NI firmware (§6);
// here a small management endpoint on the SAN probes every scheduler card
// with a cheap DVCM instruction and, after a run of consecutive silent
// probes, declares the card dead — driving FailScheduler and re-admission
// automatically instead of by test-harness oracle.
package cluster

import (
	"repro/internal/core"
	"repro/internal/dvcmnet"
	"repro/internal/dwcs"
	"repro/internal/sim"
)

// Monitor probes scheduler NIs over the SAN and fails over their streams.
type Monitor struct {
	Cluster  *Cluster
	Endpoint *dvcmnet.Endpoint

	// Interval is the probe period; Timeout bounds each probe; Misses is
	// how many consecutive unanswered probes declare a card dead.
	Interval sim.Time
	Timeout  sim.Time
	Misses   int

	// Auto, when set, re-admits a dead card's streams onto surviving cards
	// immediately on detection. Without it the monitor only detects and
	// reports via OnFail.
	Auto bool

	// OnFail fires when a card is declared dead, with the placements torn
	// off it. OnReadmit fires per affected stream in Auto mode (err is the
	// admission error, if any; now is nil then). OnRecover fires when a
	// failed card answers probes again and rejoins admission.
	OnFail    func(s *SchedulerNI, affected []*Placement)
	OnReadmit func(old, now *Placement, err error)
	OnRecover func(s *SchedulerNI)

	// Unhealthy, when set, is consulted every probe round: a card it flags
	// is treated as a missed heartbeat even though the probe answered. An
	// SLO monitor plugs in here so a card burning its error budget fails
	// over *before* it goes silent — the early-failover signal. A flagged
	// card still needs Misses consecutive strikes, so one bad evaluation
	// window cannot bounce a card.
	Unhealthy func(s *SchedulerNI) bool

	// Probes counts heartbeats sent; Detected counts declared failures;
	// Failovers counts streams successfully re-admitted; Recovered counts
	// cards readmitted to service. SLOFails counts probe rounds where a
	// responsive card was struck by the Unhealthy hook. Checkpointed counts
	// streams failed over warm (from a cached heartbeat snapshot).
	Probes       int64
	Detected     int64
	Failovers    int64
	Recovered    int64
	SLOFails     int64
	Checkpointed int64

	miss map[*SchedulerNI]int
	stop func()

	// checkpoints caches each card's last heartbeat snapshot per stream:
	// the reply the probe was already carrying becomes the cold-migration
	// image when the card later goes dark — failover state for free.
	checkpoints map[*SchedulerNI]map[int]dwcs.StreamSnapshot
}

// NewMonitor attaches a monitor endpoint to the cluster's SAN under addr.
// Defaults: 250 ms probe interval, 25 ms probe timeout, 2 misses.
func NewMonitor(c *Cluster, addr string) *Monitor {
	m := &Monitor{
		Cluster:  c,
		Endpoint: dvcmnet.Attach(c.Eng, c.Switch, addr, nil),
		Interval: 250 * sim.Millisecond,
		Timeout:  25 * sim.Millisecond,
		Misses:   2,
		miss:     make(map[*SchedulerNI]int),

		checkpoints: make(map[*SchedulerNI]map[int]dwcs.StreamSnapshot),
	}
	return m
}

// Start begins probing. The first probe round fires one interval in.
func (m *Monitor) Start() {
	if m.stop != nil {
		return
	}
	m.Endpoint.Timeout = m.Timeout
	m.stop = m.Cluster.Eng.Every(m.Interval, m.tick)
}

// Stop ends probing (needed before a bare eng.Run can terminate).
func (m *Monitor) Stop() {
	if m.stop != nil {
		m.stop()
		m.stop = nil
	}
}

func (m *Monitor) tick() {
	for _, n := range m.Cluster.Nodes {
		for _, s := range n.Schedulers {
			s := s
			m.Probes++
			m.Endpoint.Invoke(s.Card.Name, core.Instr{Ext: "dwcs", Op: "snapshot"},
				func(reply any, err error) {
					switch {
					case err != nil:
						m.missed(s)
					case m.Unhealthy != nil && m.Unhealthy(s):
						m.SLOFails++
						m.missed(s)
					default:
						m.checkpoint(s, reply)
						m.alive(s)
					}
				})
		}
	}
}

// checkpoint caches the probe reply — the card's full stream snapshot —
// as the warm failover image for each stream on that card.
func (m *Monitor) checkpoint(s *SchedulerNI, reply any) {
	snaps, ok := reply.([]dwcs.StreamSnapshot)
	if !ok {
		return
	}
	byID := make(map[int]dwcs.StreamSnapshot, len(snaps))
	for _, snap := range snaps {
		byID[snap.Spec.ID] = snap
	}
	m.checkpoints[s] = byID
}

func (m *Monitor) missed(s *SchedulerNI) {
	if s.failed {
		return // already failed out; not a new detection
	}
	m.miss[s]++
	if m.miss[s] < m.Misses {
		return
	}
	m.Detected++
	affected := m.Cluster.FailScheduler(s, m.Cluster.Live())
	if m.OnFail != nil {
		m.OnFail(s, affected)
	}
	if !m.Auto {
		return
	}
	ckpts := m.checkpoints[s]
	for _, old := range affected {
		if img, ok := ckpts[old.StreamID]; ok {
			// Warm failover: the stream resumes mid-window from its last
			// heartbeat checkpoint, keeping its ID — no teardown.
			m.Cluster.MigrateCold(old, img, func(mig *Migration, err error) {
				if err == nil {
					m.Failovers++
					m.Checkpointed++
				}
				if m.OnReadmit != nil {
					m.OnReadmit(old, mig.New, err)
				}
			})
			continue
		}
		now, err := m.Cluster.Readmit(old, old.Req)
		if err == nil {
			m.Failovers++
		}
		if m.OnReadmit != nil {
			m.OnReadmit(old, now, err)
		}
	}
}

func (m *Monitor) alive(s *SchedulerNI) {
	m.miss[s] = 0
	if !s.failed {
		return
	}
	m.Recovered++
	m.Cluster.Recover(s)
	if m.OnRecover != nil {
		m.OnRecover(s)
	}
}
