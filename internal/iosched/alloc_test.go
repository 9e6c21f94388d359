package iosched

import (
	"fmt"
	"testing"

	"sleds/internal/device"
	"sleds/internal/simclock"
	"sleds/internal/vfs"
)

// costDev is a device with a fixed service cost that records nothing, so
// the device model itself never allocates.
type costDev struct {
	id   device.ID
	cost simclock.Duration
}

func (d *costDev) Info() device.Info {
	return device.Info{ID: d.id, Name: "cost", Level: device.LevelDisk, Size: 1 << 40}
}
func (d *costDev) Read(c *simclock.Clock, off, length int64)  { c.Advance(d.cost) }
func (d *costDev) Write(c *simclock.Clock, off, length int64) { c.Advance(d.cost) }
func (d *costDev) Reset()                                     {}

// loopProg takes ops steps over devs: device reads, plain or hedged
// against the next device, with every eighth step a sleep. rewind
// restarts it, so one engine can run it again and again.
type loopProg struct {
	devs   []device.ID
	s, ops int
	hedged bool
	i      int
	fired  int // hedged reads whose secondary was issued
}

func (p *loopProg) rewind() { p.i = 0 }

func (p *loopProg) Step(h *Handle, prev Result) Op {
	if prev.HedgeFired {
		p.fired++
	}
	if p.i == p.ops {
		return Exit(nil)
	}
	p.i++
	if p.i%8 == 0 {
		return Sleep(simclock.Duration(p.s%5+1) * simclock.Millisecond)
	}
	d := (p.s + p.i) % len(p.devs)
	off := int64((p.s*2654435761+p.i*40961)&0xFFFFF) * 512
	if p.hedged {
		return HedgedDevRead(p.devs[d], p.devs[(d+1)%len(p.devs)], off, 4096, 4*simclock.Millisecond)
	}
	return DevRead(p.devs[d], off, 4096)
}

// TestEngineSteadyStateAllocs is the zero-alloc gate of the engine-driven
// read path: once a run has grown the request pool, the event heap and the
// schedulers' queues to their peak, running the same streams again
// allocates nothing — no Handle, request, hedge record, op closure or
// event per read.
func TestEngineSteadyStateAllocs(t *testing.T) {
	for _, sched := range []string{"fcfs", "sstf", "deadline"} {
		for _, hedged := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/hedged=%v", sched, hedged), func(t *testing.T) {
				mem := device.NewMem(device.DefaultMemConfig(0))
				k := vfs.NewKernel(vfs.Config{PageSize: 4096, CachePages: 64, MemDevice: mem})
				k.AttachDevice(mem)
				var devs []device.ID
				for i, cost := range []simclock.Duration{1, 3, 7, 2} {
					devs = append(devs, k.AttachDevice(&costDev{id: device.ID(1 + i), cost: cost * simclock.Millisecond}))
				}
				e := NewEngine(k)
				for _, id := range devs {
					e.Queue(id, NewScheduler(sched))
				}
				var progs []*loopProg
				for s := 0; s < 64; s++ {
					p := &loopProg{devs: devs, s: s, ops: 24, hedged: hedged}
					progs = append(progs, p)
					e.AddStream(simclock.Duration(s%13)*100*simclock.Microsecond, p)
				}
				run := func() {
					for _, p := range progs {
						p.rewind()
					}
					if err := e.Run(); err != nil {
						t.Fatal(err)
					}
				}
				run()
				before := e.Events()
				allocs := testing.AllocsPerRun(5, run)
				events := (e.Events() - before) / 6 // AllocsPerRun adds a warm-up call
				if allocs != 0 {
					t.Fatalf("%v allocations per run of %d events, want 0", allocs, events)
				}
				assertPoolDrained(t, e)
				fired := 0
				for _, p := range progs {
					fired += p.fired
				}
				if hedged && fired == 0 {
					t.Fatal("no hedge fired: the secondary path went unmeasured")
				}
			})
		}
	}
}
