package iosched

// Differential tests pinning the flat event-heap engine bit-identical to
// the goroutine reference engine (refengine_test.go) across schedulers,
// workload shapes, fault stacking orders and both stream flavours
// (Program state machines and bridged blocking closures). Each trial
// builds three identical worlds and replays one pseudo-random workload:
// any difference in service order, per-stream finish times, or the Run
// error is a regression in the rewrite. The heap engine runs with its
// recycled requests poisoned (see lifetime_test.go) and must end every
// trial with its request pool drained.

import (
	"reflect"
	"testing"

	"sleds/internal/device"
	"sleds/internal/faults"
	"sleds/internal/simclock"
	"sleds/internal/vfs"
)

// lcg is a tiny deterministic generator so trials are reproducible from a
// seed without bringing in a rand dependency.
type lcg uint64

func (g *lcg) next() uint64 {
	*g = lcg(uint64(*g)*6364136223846793005 + 1442695040888963407)
	return uint64(*g) >> 33
}

func (g *lcg) intn(n int) int { return int(g.next() % uint64(n)) }

// action is one step of a generated stream: a device read or a sleep.
type action struct {
	sleep simclock.Duration // > 0: sleep instead of reading
	dev   int               // index into the trial's device list
	off   int64
}

// trialSpec is one generated workload: devices with fixed service costs,
// streams with start offsets and action lists, under one scheduler.
type trialSpec struct {
	sched   string
	costs   []simclock.Duration
	starts  []simclock.Duration
	streams [][]action
	faulty  bool // stack a deterministic injector under each queue
}

func genTrial(g *lcg, sched string) trialSpec {
	spec := trialSpec{sched: sched, faulty: g.intn(3) == 0}
	nDev := 1 + g.intn(3)
	for d := 0; d < nDev; d++ {
		spec.costs = append(spec.costs, simclock.Duration(1+g.intn(15))*simclock.Millisecond)
	}
	nStreams := 1 + g.intn(6)
	for s := 0; s < nStreams; s++ {
		spec.starts = append(spec.starts, simclock.Duration(g.intn(6))*simclock.Millisecond)
		var acts []action
		for n := 1 + g.intn(8); n > 0; n-- {
			if g.intn(4) == 0 {
				acts = append(acts, action{sleep: simclock.Duration(1+g.intn(20)) * simclock.Millisecond})
			} else {
				acts = append(acts, action{dev: g.intn(nDev), off: int64(g.intn(1<<18)) * 4096})
			}
		}
		spec.streams = append(spec.streams, acts)
	}
	return spec
}

// world is one freshly booted kernel for a trial: fake devices (recording
// service order) behind optional fault injectors.
type world struct {
	k    *vfs.Kernel
	devs []*fakeDev
	ids  []device.ID
}

func buildWorld(t *testing.T, spec trialSpec) world {
	t.Helper()
	k, _, _ := testKernel(t, simclock.Millisecond)
	w := world{k: k}
	for d, cost := range spec.costs {
		fd := &fakeDev{id: device.ID(2 + d), cost: cost}
		id := k.AttachDevice(fd)
		if spec.faulty {
			wrapped, _ := faults.Wrap(k.Devices.Get(id), faults.Config{Seed: 7, PFault: 0.3, MaxConsecutive: 2})
			k.Devices.Replace(id, wrapped)
		}
		w.devs = append(w.devs, fd)
		w.ids = append(w.ids, id)
	}
	return w
}

// outcome is everything a trial compares between engines.
type outcome struct {
	served   [][]int64
	finishes []simclock.Duration
	err      string
}

func (w world) collect(finishes []simclock.Duration, err error) outcome {
	o := outcome{finishes: finishes}
	for _, fd := range w.devs {
		o.served = append(o.served, fd.served)
	}
	if err != nil {
		o.err = err.Error()
	}
	return o
}

// runRef replays the spec on the goroutine reference engine.
func runRef(t *testing.T, spec trialSpec) outcome {
	w := buildWorld(t, spec)
	e := newRefEngine(w.k)
	for _, id := range w.ids {
		e.Queue(id, newRefScheduler(spec.sched))
	}
	for s, acts := range spec.streams {
		acts := acts
		e.AddStream(spec.starts[s], func(h *refHandle) error {
			for _, a := range acts {
				if a.sleep > 0 {
					h.Sleep(a.sleep)
					continue
				}
				id := w.ids[a.dev]
				if err := device.ReadErr(w.k.Devices.Get(id), w.k.Clock, a.off, 4096); err != nil {
					return err
				}
			}
			return nil
		})
	}
	err := e.Run()
	fin := make([]simclock.Duration, len(spec.streams))
	for s := range spec.streams {
		fin[s] = e.FinishTime(StreamID(s))
	}
	return w.collect(fin, err)
}

// runProg replays the spec on the heap engine with Program streams.
func runProg(t *testing.T, spec trialSpec) outcome {
	w := buildWorld(t, spec)
	e := NewEngine(w.k)
	for _, id := range w.ids {
		e.Queue(id, NewScheduler(spec.sched))
	}
	for s, acts := range spec.streams {
		acts := acts
		i := 0
		e.AddStream(spec.starts[s], ProgramFunc(func(h *Handle, prev Result) Op {
			if prev.Err != nil {
				return Exit(prev.Err)
			}
			if i >= len(acts) {
				return Exit(nil)
			}
			a := acts[i]
			i++
			if a.sleep > 0 {
				return Sleep(a.sleep)
			}
			return DevRead(w.ids[a.dev], a.off, 4096)
		}))
	}
	err := e.Run()
	assertPoolDrained(t, e)
	fin := make([]simclock.Duration, len(spec.streams))
	for s := range spec.streams {
		fin[s] = e.FinishTime(StreamID(s))
	}
	return w.collect(fin, err)
}

// runFunc replays the spec on the heap engine with bridged blocking
// closures (AddStreamFunc).
func runFunc(t *testing.T, spec trialSpec) outcome {
	w := buildWorld(t, spec)
	e := NewEngine(w.k)
	for _, id := range w.ids {
		e.Queue(id, NewScheduler(spec.sched))
	}
	for s, acts := range spec.streams {
		acts := acts
		e.AddStreamFunc(spec.starts[s], func(h *Handle) error {
			for _, a := range acts {
				if a.sleep > 0 {
					h.Sleep(a.sleep)
					continue
				}
				id := w.ids[a.dev]
				if err := device.ReadErr(w.k.Devices.Get(id), w.k.Clock, a.off, 4096); err != nil {
					return err
				}
			}
			return nil
		})
	}
	err := e.Run()
	assertPoolDrained(t, e)
	fin := make([]simclock.Duration, len(spec.streams))
	for s := range spec.streams {
		fin[s] = e.FinishTime(StreamID(s))
	}
	return w.collect(fin, err)
}

func TestEngineEquivalence(t *testing.T) {
	for _, sched := range []string{"fcfs", "sstf", "deadline"} {
		sched := sched
		t.Run(sched, func(t *testing.T) {
			for seed := 0; seed < 200; seed++ {
				g := lcg(uint64(seed)*2654435761 + 12345)
				spec := genTrial(&g, sched)
				ref := runRef(t, spec)
				prog := runProg(t, spec)
				if !reflect.DeepEqual(ref, prog) {
					t.Fatalf("seed %d: Program streams diverged from reference\nspec: %+v\nref:  %+v\nheap: %+v",
						seed, spec, ref, prog)
				}
				fn := runFunc(t, spec)
				if !reflect.DeepEqual(ref, fn) {
					t.Fatalf("seed %d: fn streams diverged from reference\nspec: %+v\nref:  %+v\nheap: %+v",
						seed, spec, ref, fn)
				}
			}
		})
	}
}

// TestIndexedSchedulersMatchLinear drives each indexed scheduler and its
// linear-scan oracle directly (no engine) through identical random
// add/pick sequences, including picks at instants that predate some
// arrivals — the general-contract path the engine never exercises.
func TestIndexedSchedulersMatchLinear(t *testing.T) {
	for _, name := range []string{"fcfs", "sstf", "deadline"} {
		name := name
		t.Run(name, func(t *testing.T) {
			for seed := 0; seed < 300; seed++ {
				g := lcg(uint64(seed)*40503 + 9)
				fast, slow := NewScheduler(name), newRefScheduler(name)
				var seq uint64
				now := simclock.Duration(0)
				var pos int64
				for step := 0; step < 40; step++ {
					switch g.intn(3) {
					case 0: // add a request, possibly arriving "in the future"
						arr := now + simclock.Duration(g.intn(20)-5)*simclock.Millisecond
						mk := func() *Request {
							return &Request{
								Off:     int64(g.intn(1<<12)) * 4096,
								Length:  4096,
								Arrival: arr,
								seq:     seq,
							}
						}
						save := g
						fast.Add(mk())
						g = save
						slow.Add(mk())
						seq++
					default: // advance time and pick
						now += simclock.Duration(g.intn(10)) * simclock.Millisecond
						rf, rs := fast.Pick(now, pos), slow.Pick(now, pos)
						if (rf == nil) != (rs == nil) {
							t.Fatalf("seed %d step %d: pick mismatch: fast=%v slow=%v", seed, step, rf, rs)
						}
						if rf != nil {
							if rf.seq != rs.seq {
								t.Fatalf("seed %d step %d: fast picked seq %d, linear picked seq %d",
									seed, step, rf.seq, rs.seq)
							}
							pos = rf.Off + rf.Length
						}
					}
					fa, fok := fast.MinArrival()
					sa, sok := slow.MinArrival()
					if fok != sok || (fok && fa != sa) {
						t.Fatalf("seed %d step %d: MinArrival mismatch: fast=(%v,%v) slow=(%v,%v)",
							seed, step, fa, fok, sa, sok)
					}
					if fast.Len() != slow.Len() {
						t.Fatalf("seed %d step %d: Len mismatch: %d vs %d", seed, step, fast.Len(), slow.Len())
					}
				}
			}
		})
	}
}
