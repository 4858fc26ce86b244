// Package i2o implements the I2O (Intelligent I/O) message-passing layer
// between the host and the i960 RD I/O processors.
//
// The paper's NIs are I2O-compliant boards (§1): "The I2O industry
// consortium has defined a specification for development of I/O hardware
// and software. It allows portable device driver development by defining a
// message-passing protocol between the host and peer I/O devices" (§5).
// The DVCM host API of internal/core rides on this layer.
//
// The model follows the I2O 1.5 architecture:
//
//   - Each IOP exposes an *inbound* queue pair (free-list FIFO + post FIFO)
//     and an *outbound* queue pair. Queue entries are MFAs — message frame
//     addresses — pointing at message frames in the IOP's shared memory.
//   - The host allocates an inbound MFA (a PIO read of the free FIFO),
//     fills the frame (PIO writes), and posts it (a PIO write). The IOP's
//     dispatcher consumes posted frames and routes them to target devices
//     (TIDs) by function code.
//   - Replies travel the outbound pair the opposite way; the host driver
//     polls or is interrupted, reads the reply frame, and returns the MFA
//     to the outbound free list.
//
// Message frames follow the spec's layout in spirit: version/offset, flags,
// size, target/initiator addresses, function code, transaction context, and
// an inline payload.
package i2o

import (
	"errors"
	"fmt"

	"repro/internal/bus"
	"repro/internal/sim"
)

// Function codes (a representative subset of the I2O spec's executive and
// device classes, plus the private code DVCM instructions use).
const (
	FnExecStatusGet = 0xA0 // executive: status
	FnUtilNop       = 0x10 // utility: no-op
	FnUtilEventReg  = 0x13 // utility: event notification (IOP → host)
	FnUtilEventAck  = 0x14 // utility: event acknowledge
	FnPrivate       = 0xFF // private/vendor: carries DVCM instructions
)

// Reply status codes.
const (
	StatusSuccess        = 0x00
	StatusErrBadFunction = 0x81
	StatusErrNoDevice    = 0x82
	StatusErrAborted     = 0x83
)

// TID identifies a target device on the IOP (the executive is TID 0).
type TID uint16

// ExecutiveTID is the IOP's own management device.
const ExecutiveTID TID = 0

// Frame is one I2O message frame.
type Frame struct {
	MFA       uint32 // message frame address (queue token)
	Function  uint8
	Target    TID
	Initiator TID
	Context   uint32 // transaction context, echoed in the reply
	Status    uint8  // reply status
	Payload   any    // inline payload (simulation carries Go values)
}

// frameWords is the PIO cost of moving one frame header+payload descriptor
// across the PCI bus (the spec's default frame is 64 bytes = 16 words).
const frameWords = 16

// ErrNoFrames is returned when the inbound free list is empty.
var ErrNoFrames = errors.New("i2o: inbound free list empty")

// Device is a target on the IOP that consumes messages. The handler runs in
// IOP context and returns the reply payload and status.
type Device interface {
	// TID returns the device's address.
	TID() TID
	// Handle processes one message, returning reply payload and status.
	Handle(f *Frame) (reply any, status uint8)
}

// DeviceFunc adapts a function to Device.
type DeviceFunc struct {
	ID TID
	Fn func(f *Frame) (any, uint8)
}

// TID implements Device.
func (d DeviceFunc) TID() TID { return d.ID }

// Handle implements Device.
func (d DeviceFunc) Handle(f *Frame) (any, uint8) { return d.Fn(f) }

// IOP is one I/O processor's messaging unit: the four FIFOs plus the
// device table and dispatcher.
type IOP struct {
	eng  *sim.Engine
	name string
	pci  *bus.Bus

	inFree   []uint32 // MFAs available to the host
	inPost   []*Frame // host→IOP posted messages
	outFree  []uint32
	outPost  []*Frame // IOP→host replies
	frames   map[uint32]*Frame
	devices  map[TID]Device
	dispatch sim.Time // IOP-side per-message processing cost

	// OnOutbound, if set, is invoked when a reply is posted (models the
	// PCI interrupt to the host).
	OnOutbound func()

	// Stats.
	Posted  int64
	Replied int64
	Faulted int64
}

// Config sizes an IOP messaging unit.
type Config struct {
	Name         string
	PCI          *bus.Bus
	InboundMFAs  int      // frames on the inbound free list
	OutboundMFAs int      // frames on the outbound free list
	DispatchCost sim.Time // IOP processing per message (66 MHz i960 work)
}

// NewIOP initializes the queues, like the BIOS/IOP firmware handshake does.
func NewIOP(eng *sim.Engine, cfg Config) *IOP {
	if cfg.InboundMFAs == 0 {
		cfg.InboundMFAs = 32
	}
	if cfg.OutboundMFAs == 0 {
		cfg.OutboundMFAs = 32
	}
	if cfg.DispatchCost == 0 {
		cfg.DispatchCost = 25 * sim.Microsecond
	}
	iop := &IOP{
		eng:      eng,
		name:     cfg.Name,
		pci:      cfg.PCI,
		frames:   make(map[uint32]*Frame),
		devices:  make(map[TID]Device),
		dispatch: cfg.DispatchCost,
	}
	for i := 0; i < cfg.InboundMFAs; i++ {
		mfa := uint32(0x1000 + i*64)
		iop.inFree = append(iop.inFree, mfa)
		iop.frames[mfa] = &Frame{MFA: mfa}
	}
	for i := 0; i < cfg.OutboundMFAs; i++ {
		mfa := uint32(0x9000 + i*64)
		iop.outFree = append(iop.outFree, mfa)
		iop.frames[mfa] = &Frame{MFA: mfa}
	}
	// The executive answers status and no-op requests itself.
	iop.devices[ExecutiveTID] = DeviceFunc{ID: ExecutiveTID, Fn: iop.execHandle}
	return iop
}

// Name returns the IOP name.
func (iop *IOP) Name() string { return iop.name }

// AttachDevice registers a target device (e.g. the DVCM bridge).
func (iop *IOP) AttachDevice(d Device) error {
	if _, dup := iop.devices[d.TID()]; dup {
		return fmt.Errorf("i2o: TID %d already attached", d.TID())
	}
	iop.devices[d.TID()] = d
	return nil
}

func (iop *IOP) execHandle(f *Frame) (any, uint8) {
	switch f.Function {
	case FnExecStatusGet:
		return map[string]int{
			"inboundFree":  len(iop.inFree),
			"outboundFree": len(iop.outFree),
			"devices":      len(iop.devices),
		}, StatusSuccess
	case FnUtilNop:
		return nil, StatusSuccess
	default:
		return nil, StatusErrBadFunction
	}
}

// allocInbound pops an MFA from the inbound free list (host side; one PIO
// read).
func (iop *IOP) allocInbound(done func(mfa uint32, err error)) {
	iop.pci.PIORead(1, func() {
		if len(iop.inFree) == 0 {
			done(0, ErrNoFrames)
			return
		}
		mfa := iop.inFree[0]
		iop.inFree = iop.inFree[1:]
		done(mfa, nil)
	})
}

// post fills the frame and pushes it on the inbound post FIFO (host side;
// frame body + doorbell PIO writes), then schedules the IOP dispatcher.
func (iop *IOP) post(mfa uint32, fill func(*Frame), done func(err error)) {
	iop.pci.PIOWrite(frameWords+1, func() {
		f := iop.frames[mfa]
		fill(f)
		f.MFA = mfa
		iop.inPost = append(iop.inPost, f)
		iop.Posted++
		iop.eng.After(iop.dispatch, iop.drainInbound)
		done(nil)
	})
}

// drainInbound runs in IOP context: route one posted message to its device
// and produce the reply.
func (iop *IOP) drainInbound() {
	if len(iop.inPost) == 0 {
		return
	}
	f := iop.inPost[0]
	iop.inPost = iop.inPost[1:]
	dev, ok := iop.devices[f.Target]
	var reply any
	var status uint8
	if !ok {
		reply, status = nil, StatusErrNoDevice
		iop.Faulted++
	} else {
		reply, status = dev.Handle(f)
		if status != StatusSuccess {
			iop.Faulted++
		}
	}
	// Copy the request header before the frame returns to the free list —
	// a retried Submit may reuse and overwrite it while a stalled reply is
	// still pending.
	req := *f
	iop.inFree = append(iop.inFree, f.MFA)
	if len(iop.outFree) == 0 {
		// Spec behaviour: the IOP stalls replies until the host returns
		// outbound frames; model as retry.
		iop.eng.After(iop.dispatch, func() { iop.requeueReply(&req, reply, status) })
		return
	}
	iop.sendReply(&req, reply, status)
}

func (iop *IOP) requeueReply(req *Frame, reply any, status uint8) {
	if len(iop.outFree) == 0 {
		iop.eng.After(iop.dispatch, func() { iop.requeueReply(req, reply, status) })
		return
	}
	iop.sendReply(req, reply, status)
}

func (iop *IOP) sendReply(req *Frame, reply any, status uint8) {
	mfa := iop.outFree[0]
	iop.outFree = iop.outFree[1:]
	rf := iop.frames[mfa]
	rf.Function = req.Function
	rf.Target = req.Initiator
	rf.Initiator = req.Target
	rf.Context = req.Context
	rf.Status = status
	rf.Payload = reply
	iop.outPost = append(iop.outPost, rf)
	iop.Replied++
	if iop.OnOutbound != nil {
		iop.OnOutbound()
	}
}

// Event is an unsolicited IOP→host notification (link state change,
// temperature, device fault — the I2O utility-class event model).
type Event struct {
	Code uint32
	From TID
	Data any
}

// HostDriver is the host-resident OSM (operating-system service module): it
// tracks outstanding transactions and completes them when replies arrive,
// and dispatches unsolicited event notifications to registered handlers.
type HostDriver struct {
	iop      *IOP
	nextCtx  uint32
	pending  map[uint32]func(reply any, status uint8)
	handlers map[uint32]func(Event)

	// Sent counts messages submitted; Completed counts replies delivered;
	// Events counts notifications dispatched (unhandled ones included).
	Sent      int64
	Completed int64
	Events    int64
}

// NewHostDriver binds a driver to an IOP and hooks its outbound doorbell.
func NewHostDriver(iop *IOP) *HostDriver {
	d := &HostDriver{
		iop:      iop,
		pending:  make(map[uint32]func(any, uint8)),
		handlers: make(map[uint32]func(Event)),
	}
	iop.OnOutbound = d.poll
	return d
}

// OnEvent registers a handler for one event code.
func (d *HostDriver) OnEvent(code uint32, h func(Event)) { d.handlers[code] = h }

// Submit sends a message to target with the given function code and
// payload; complete runs when the reply arrives (it may be nil for posted
// writes the caller doesn't track).
func (d *HostDriver) Submit(target TID, function uint8, payload any, complete func(reply any, status uint8)) {
	d.iop.allocInbound(func(mfa uint32, err error) {
		if err != nil {
			// No inbound frames: back off one dispatch interval and retry,
			// as a real OSM does.
			d.iop.eng.After(d.iop.dispatch, func() {
				d.Submit(target, function, payload, complete)
			})
			return
		}
		d.nextCtx++
		ctx := d.nextCtx
		if complete != nil {
			d.pending[ctx] = complete
		}
		d.iop.post(mfa, func(f *Frame) {
			f.Function = function
			f.Target = target
			f.Initiator = 0xFFF // host
			f.Context = ctx
			f.Payload = payload
			f.Status = 0
		}, func(error) {
			d.Sent++
		})
	})
}

// poll drains the outbound post FIFO (host side: PIO read per frame plus
// the MFA return write).
func (d *HostDriver) poll() {
	if len(d.iop.outPost) == 0 {
		return
	}
	d.iop.pci.PIORead(frameWords, func() {
		if len(d.iop.outPost) == 0 {
			return
		}
		f := d.iop.outPost[0]
		d.iop.outPost = d.iop.outPost[1:]
		isEvent := f.Function == FnUtilEventReg
		var complete func(any, uint8)
		if !isEvent {
			complete = d.pending[f.Context]
			delete(d.pending, f.Context)
		}
		reply, status, ev := f.Payload, f.Status, Event{Code: f.Context, From: f.Initiator}
		if isEvent {
			ev.Data = f.Payload
		}
		// Return the MFA to the outbound free list (posted write).
		d.iop.pci.PIOWrite(1, func() {
			d.iop.outFree = append(d.iop.outFree, f.MFA)
			if isEvent {
				d.Events++
				if h := d.handlers[ev.Code]; h != nil {
					h(ev)
				}
				// Acknowledge per the spec's event protocol.
				d.Submit(ev.From, FnUtilEventAck, ev.Code, nil)
			} else {
				d.Completed++
				if complete != nil {
					complete(reply, status)
				}
			}
			// More replies may be waiting.
			d.poll()
		})
	})
}

// Outstanding reports transactions awaiting replies.
func (d *HostDriver) Outstanding() int { return len(d.pending) }

// PostEvent lets a device (or the executive) raise an unsolicited
// notification toward the host. It takes an outbound frame like a reply
// does, retrying while the pool is empty.
func (iop *IOP) PostEvent(from TID, code uint32, data any) {
	if len(iop.outFree) == 0 {
		iop.eng.After(iop.dispatch, func() { iop.PostEvent(from, code, data) })
		return
	}
	mfa := iop.outFree[0]
	iop.outFree = iop.outFree[1:]
	f := iop.frames[mfa]
	f.Function = FnUtilEventReg
	f.Target = 0xFFF // host
	f.Initiator = from
	f.Context = code
	f.Status = StatusSuccess
	f.Payload = data
	iop.outPost = append(iop.outPost, f)
	if iop.OnOutbound != nil {
		iop.OnOutbound()
	}
}
