// Package dvcmnet distributes the VCM across cluster nodes: "a
// cluster-wide, programmable distributed virtual communication machine
// (DVCM) executes 'close' to the network, on the CoProcessors ... The
// cluster-wide services executed by this machine are available to nodes'
// application programs as communication instructions" (§2, Figure 2).
//
// An Endpoint attaches one node's VCM to the system-area switch under an
// address; Invoke sends an instruction to a remote endpoint as a
// control-plane packet and delivers the reply (or the remote error)
// asynchronously. Instruction processing on the remote side pays that
// card's NI CPU before replying, like any other DVCM extension work.
package dvcmnet

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/overload"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// ControlReqBytes/ControlRespBytes size the control packets on the wire
// (instruction header plus marshalled argument descriptor). Exported so
// other in-band control protocols — the fleet scrape plane derives its
// request and reply-header costs from these — stay consistent with the DVCM
// instruction format.
const (
	ControlReqBytes  = 128
	ControlRespBytes = 96
)

// Control-plane replication pricing. The primary DVCM controller journals
// every placement decision to its standby over the same control links the
// scrape plane rides, and ships a full-state checkpoint each poll period;
// these constants price that traffic so the journal overhead gate
// (journal bytes <= 2% of media goodput) measures something real.
const (
	// JournalEntryBytes is one write-ahead record: op tag, stream ID,
	// source/target card, migration sequence, DWCS (x,y) window, frame
	// cursor, stream epoch, leader epoch.
	JournalEntryBytes = 72
	// CkptHeaderBytes heads a full-state checkpoint: leader epoch, stream
	// count, violation-ledger totals. Doubles as the heartbeat the standby
	// watches for.
	CkptHeaderBytes = ControlRespBytes
	// CkptStreamBytes is one per-stream placement record inside a
	// checkpoint: stream ID, card, epoch, (x,y) window, frame cursor,
	// last-sighted violation/loss counters.
	CkptStreamBytes = 56
)

const (
	reqBytes  = ControlReqBytes
	respBytes = ControlRespBytes
)

// ErrTimeout reports a remote invocation that received no reply in time.
var ErrTimeout = errors.New("dvcmnet: invocation timed out")

type kind uint8

const (
	kindRequest kind = iota
	kindReply
)

type message struct {
	kind  kind
	id    uint32
	from  string
	instr core.Instr
	reply any
	err   string
}

// Endpoint is one node's presence in the distributed machine.
type Endpoint struct {
	eng  *sim.Engine
	addr string
	vcm  *core.VCM
	out  *netsim.Link // toward the switch

	// ProcessCost is the NI CPU charged per remote instruction before the
	// reply is sent (the extension runs on the card).
	ProcessCost sim.Time
	// Timeout bounds each Invoke attempt; 0 disables timeouts (reliable
	// SAN).
	Timeout sim.Time
	// MaxAttempts caps send attempts per Invoke (0 and 1 both mean a
	// single attempt). Retries reuse the original request ID so the remote
	// side can deduplicate re-executions.
	MaxAttempts int
	// Backoff delays the first retransmit; it doubles per further retry.
	// Zero retransmits immediately on timeout.
	Backoff sim.Time
	// Budget bounds the total elapsed time an Invoke may spend across all
	// attempts; 0 leaves only MaxAttempts as the limit.
	Budget sim.Time

	nextID  uint32
	pending map[uint32]*call
	seen    map[string]map[uint32]*served

	// Served counts remote instructions executed here; Issued counts
	// invocations sent from here; Retried counts request retransmits;
	// Deduped counts duplicate requests absorbed by the reply cache.
	Served  int64
	Issued  int64
	Retried int64
	Deduped int64
}

type call struct {
	done  func(any, error)
	timer sim.Event
}

// served is one entry in the duplicate-suppression cache: reply is nil
// while the instruction is still executing (a retransmit arriving then is
// absorbed; the in-flight execution's reply answers both).
type served struct {
	reply *message
}

// dedupWindow bounds the per-peer reply cache. IDs are monotone per peer,
// so anything further than the window behind the newest ID is pruned.
const dedupWindow = 128

// Attach joins the endpoint to the switch under addr. The VCM may be nil
// for pure-client endpoints.
func Attach(eng *sim.Engine, sw *netsim.Switch, addr string, vcm *core.VCM) *Endpoint {
	e := &Endpoint{
		eng:         eng,
		addr:        addr,
		vcm:         vcm,
		ProcessCost: 50 * sim.Microsecond,
		pending:     make(map[uint32]*call),
		seen:        make(map[string]map[uint32]*served),
	}
	e.out = netsim.Fast100(eng, addr+"-dvcm", sw)
	sw.Attach(addr, netsim.Fast100(eng, "sw-"+addr, e))
	return e
}

// Addr returns the endpoint's SAN address.
func (e *Endpoint) Addr() string { return e.addr }

// Instrument exports the endpoint's control-plane counters under the
// dvcmnet telemetry component.
func (e *Endpoint) Instrument(reg *telemetry.Registry) {
	reg.CounterFunc("dvcmnet", "instructions_served_total",
		"remote DVCM instructions executed here", func() int64 { return e.Served })
	reg.CounterFunc("dvcmnet", "invocations_issued_total",
		"DVCM invocations issued from here", func() int64 { return e.Issued })
	reg.CounterFunc("dvcmnet", "retries_total",
		"invocation retransmits", func() int64 { return e.Retried })
	reg.CounterFunc("dvcmnet", "deduped_total",
		"duplicate requests absorbed by the reply cache", func() int64 { return e.Deduped })
}

// Invoke executes an instruction on the remote endpoint, delivering the
// result (or error) to done. done may be nil for fire-and-forget control.
// With MaxAttempts > 1, each per-attempt Timeout triggers a retransmit
// after an exponentially doubling Backoff, reusing the same request ID so
// the remote reply cache absorbs duplicates; Budget caps the whole call.
func (e *Endpoint) Invoke(remote string, in core.Instr, done func(any, error)) {
	e.nextID++
	id := e.nextID
	e.Issued++
	if done == nil {
		e.sendRequest(remote, id, in)
		return
	}
	c := &call{done: done}
	e.pending[id] = c
	started := e.eng.Now()
	attempts := 1
	var arm func()
	arm = func() {
		if e.Timeout <= 0 {
			return
		}
		c.timer = e.eng.After(e.Timeout, func() {
			if _, still := e.pending[id]; !still {
				return // replied while the timer was in flight
			}
			max := e.MaxAttempts
			if max < 1 {
				max = 1
			}
			backoff := e.Backoff
			if backoff > 0 && attempts > 1 {
				backoff <<= uint(attempts - 1)
			}
			overBudget := e.Budget > 0 && e.eng.Now()+backoff-started >= e.Budget
			if attempts >= max || overBudget {
				delete(e.pending, id)
				done(nil, fmt.Errorf("%w: %s/%s on %s after %d attempt(s)",
					ErrTimeout, in.Ext, in.Op, remote, attempts))
				return
			}
			attempts++
			e.Retried++
			e.eng.After(backoff, func() {
				if _, still := e.pending[id]; !still {
					return // a late reply landed during the backoff
				}
				e.sendRequest(remote, id, in)
				arm()
			})
		})
	}
	arm()
	e.sendRequest(remote, id, in)
}

func (e *Endpoint) sendRequest(remote string, id uint32, in core.Instr) {
	e.out.Send(&netsim.Packet{
		Src:   e.addr,
		Dst:   remote,
		Bytes: reqBytes,
		Data:  &message{kind: kindRequest, id: id, from: e.addr, instr: in},
	}, nil)
}

// Deliver implements netsim.Port for packets arriving from the switch.
func (e *Endpoint) Deliver(p *netsim.Packet) {
	m, ok := p.Data.(*message)
	if !ok {
		return // not control-plane traffic for us
	}
	switch m.kind {
	case kindRequest:
		e.serve(m)
	case kindReply:
		c, ok := e.pending[m.id]
		if !ok {
			return // timed out or duplicate
		}
		delete(e.pending, m.id)
		c.timer.Cancel()
		if c.done == nil {
			return
		}
		if m.err != "" {
			c.done(nil, reviveError(m.err))
			return
		}
		c.done(m.reply, nil)
	}
}

// reviveError reconstructs well-known typed errors from a reply's message
// text. Errors cross the wire as strings (only the text is marshalled), so
// without revival a remote overload admission reject loses its identity and
// callers can't errors.Is it against overload.ErrAdmission.
func reviveError(msg string) error {
	if strings.Contains(msg, overload.ErrAdmission.Error()) {
		return fmt.Errorf("%w (remote: %s)", overload.ErrAdmission, msg)
	}
	return errors.New(msg)
}

func (e *Endpoint) serve(m *message) {
	peer := e.seen[m.from]
	if peer == nil {
		peer = make(map[uint32]*served)
		e.seen[m.from] = peer
	}
	if s, ok := peer[m.id]; ok {
		// Retransmit of a request we already have. If the execution
		// finished, replay the cached reply (the instruction must not run
		// twice); if it is still in flight, its reply will answer both.
		e.Deduped++
		if s.reply != nil {
			e.sendReply(m.from, s.reply)
		}
		return
	}
	s := &served{}
	peer[m.id] = s
	if len(peer) > 2*dedupWindow {
		for k := range peer {
			if k+dedupWindow < m.id {
				delete(peer, k)
			}
		}
	}
	e.eng.After(e.ProcessCost, func() {
		e.Served++
		reply := &message{kind: kindReply, id: m.id, from: e.addr}
		if e.vcm == nil {
			reply.err = "dvcmnet: endpoint " + e.addr + " hosts no VCM"
		} else if res, err := e.vcm.Invoke(m.instr); err != nil {
			reply.err = err.Error()
		} else {
			reply.reply = res
		}
		s.reply = reply
		e.sendReply(m.from, reply)
	})
}

func (e *Endpoint) sendReply(to string, reply *message) {
	e.out.Send(&netsim.Packet{
		Src:   e.addr,
		Dst:   to,
		Bytes: respBytes,
		Data:  reply,
	}, nil)
}

// Pending reports invocations awaiting replies.
func (e *Endpoint) Pending() int { return len(e.pending) }
