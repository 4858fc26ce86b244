// Package testbed composes the paper's server topology — host CPUs, PCI
// segments, I2O cards, the Ethernet switch, and measuring clients — behind
// a small builder, so experiments, examples, and downstream users don't
// hand-wire the same Figure 1/Figure 5 plumbing every time.
package testbed

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/disk"
	"repro/internal/hostos"
	"repro/internal/netsim"
	"repro/internal/nic"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Options sizes a rig. Zero values get sensible defaults.
type Options struct {
	Seed          int64
	HostCPUs      int      // 0 = 2
	Quantum       sim.Time // 0 = 10 ms
	Segments      int      // PCI segments; 0 = 2
	SwitchLatency sim.Time // 0 = 90 µs store-and-forward
	BWWindow      sim.Time // client bandwidth-meter window; 0 = 1 s
}

// Rig is the composed testbed.
type Rig struct {
	Eng      *sim.Engine
	Host     *hostos.System
	Segments []*bus.Bus
	Switch   *netsim.Switch

	Cards   map[string]*nic.Card
	Clients map[string]*netsim.Client

	opts Options
}

// New builds an empty rig per opts.
func New(opts Options) *Rig {
	if opts.HostCPUs == 0 {
		opts.HostCPUs = 2
	}
	if opts.Quantum == 0 {
		opts.Quantum = 10 * sim.Millisecond
	}
	if opts.Segments == 0 {
		opts.Segments = 2
	}
	if opts.SwitchLatency == 0 {
		opts.SwitchLatency = 90 * sim.Microsecond
	}
	if opts.BWWindow == 0 {
		opts.BWWindow = sim.Second
	}
	eng := sim.NewEngine(opts.Seed)
	r := &Rig{
		Eng:     eng,
		Host:    hostos.New(eng, opts.HostCPUs, opts.Quantum),
		Switch:  netsim.NewSwitch(eng, "sw0", opts.SwitchLatency),
		Cards:   make(map[string]*nic.Card),
		Clients: make(map[string]*netsim.Client),
		opts:    opts,
	}
	for i := 0; i < opts.Segments; i++ {
		r.Segments = append(r.Segments, bus.New(eng, bus.PCI(fmt.Sprintf("pci%d", i))))
	}
	return r
}

// AddClient attaches a measuring client (with a bandwidth meter) to the
// switch under its own address.
func (r *Rig) AddClient(name string) *netsim.Client {
	if _, dup := r.Clients[name]; dup {
		panic("testbed: duplicate client " + name)
	}
	c := netsim.NewClient(r.Eng, name)
	c.BW = stats.NewBandwidthMeter(name, r.opts.BWWindow)
	r.Switch.Attach(name, netsim.Fast100(r.Eng, "sw-"+name, c))
	r.Clients[name] = c
	return c
}

// AddSchedulerNI places a dedicated scheduler card (cache enabled, no disk)
// on segment seg, wired to the switch, with the media-scheduler extension
// loaded.
func (r *Rig) AddSchedulerNI(name string, seg int, cfg nic.SchedulerConfig) (*nic.Card, *nic.SchedulerExt) {
	card := r.addCard(name, seg, true)
	card.ConnectEthernet(netsim.Fast100(r.Eng, name+"-eth", r.Switch))
	ext, err := card.LoadScheduler(cfg)
	if err != nil {
		panic(err)
	}
	return card, ext
}

// AddDiskNI places a disk-attached producer card on segment seg. cacheBytes
// > 0 fronts the filesystem with a media cache of that budget.
func (r *Rig) AddDiskNI(name string, seg int, cacheBytes int64) (*nic.Card, *disk.Disk) {
	card := r.addCard(name, seg, false)
	d := disk.New(r.Eng, disk.DefaultSCSI(name+"-disk"))
	var fs disk.FS = disk.NewDOSFS(d)
	if cacheBytes > 0 {
		fs = cache.New(r.Eng, fs, name, cacheBytes, 0)
	}
	card.AttachDisk(d, fs)
	return card, d
}

// AddStripedDiskNI places a producer card over a stripe of `width` spindles.
func (r *Rig) AddStripedDiskNI(name string, seg, width int, unit int64) (*nic.Card, *disk.Stripe) {
	card := r.addCard(name, seg, false)
	var spindles []*disk.Disk
	for i := 0; i < width; i++ {
		spindles = append(spindles, disk.New(r.Eng, disk.DefaultSCSI(fmt.Sprintf("%s-sp%d", name, i))))
	}
	stripe := disk.NewStripe(spindles, unit)
	card.AttachDisk(spindles[0], &disk.StripedFS{Stripe: stripe})
	return card, stripe
}

func (r *Rig) addCard(name string, seg int, cacheOn bool) *nic.Card {
	if _, dup := r.Cards[name]; dup {
		panic("testbed: duplicate card " + name)
	}
	if seg < 0 || seg >= len(r.Segments) {
		panic(fmt.Sprintf("testbed: no segment %d", seg))
	}
	card := nic.New(r.Eng, nic.Config{Name: name, PCI: r.Segments[seg], CacheOn: cacheOn})
	r.Cards[name] = card
	return card
}

// Run advances the rig to t.
func (r *Rig) Run(t sim.Time) { r.Eng.RunUntil(t) }

// Close ends the rig once its results are read: the cards' parked tasks are
// unwound (sim.Engine.Close) and the rig must not be run again.
func (r *Rig) Close() { r.Eng.Close() }
