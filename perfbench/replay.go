package main

import (
	"fmt"

	"sleds/internal/core"
	"sleds/internal/experiments"
	"sleds/internal/iosched"
	"sleds/internal/simclock"
	"sleds/internal/trace"
	"sleds/internal/vfs"
	"sleds/internal/workload"
)

// The replay workload merges the olap, oltp and mixed generator classes
// into one trace and replays it SLED-guided over one queued disk. The
// loop is open in virtual time: each record arrives at its trace time
// whatever the disk is doing, and its latency counts from that arrival,
// the gather window included. Each class is sized against a 4 MiB
// share the way the etrace experiment sizes a class against its whole
// cache: olap scans files totalling 3/2 of a share with warm tails,
// oltp's working set (half a share) is meant to stay cache-resident, and
// mixed writes into Zipf hot sets (one share) whose front quarter is
// warm. The three shares' 12 MiB footprint is 1.5 times the page cache.
const (
	replayCachePages = 2048    // an 8 MiB page cache
	replayShare      = 4 << 20 // the unit each class is sized against
	replayScheduler  = "fcfs"
	replayWindow     = 8 * simclock.Millisecond // the guided gather window
)

// replayClass is one merged generator class: its stream count (one file
// each), records per stream and mean interarrival. Every record is one
// page; the olap class submits each stream's whole scan of its file at
// once, so its record count follows from the file size.
type replayClass struct {
	name         string
	streams      int
	records      int
	interarrival simclock.Duration
}

// replayClasses are the merged classes, in stream order.
var replayClasses = []replayClass{
	{"olap", 16, 0, 0},
	{"oltp", 4, 2048, 2 * simclock.Millisecond},
	{"mixed", 4, 2048, 20 * simclock.Millisecond}, // 30% writes
}

// replayParams returns one class's generator parameters and the byte
// range of each of its files to warm: [from, size) for from >= 0, the
// first -from bytes otherwise.
func replayParams(c replayClass, seed uint64) (trace.Params, int64) {
	ps := int64(pageSize)
	share := int64(replayShare)
	p := trace.DefaultParams(seed)
	p.Streams = c.streams
	p.Records = c.records
	p.PageSize = ps
	p.Interarrival = c.interarrival
	p.RecLen = ps
	switch c.name {
	case "olap":
		p.FileSize = share * 3 / 2 / int64(c.streams) / ps * ps
		p.Records = int(p.FileSize / ps)
		return p, p.FileSize / 2
	case "oltp":
		p.FileSize = share / 2 / int64(c.streams) / ps * ps
		return p, 0
	default: // mixed
		p.FileSize = share / int64(c.streams) / ps * ps
		return p, -(p.FileSize / 4)
	}
}

// replaySpec is the replay workload's inputs.
type replaySpec struct{ seed uint64 }

func prepareReplay(seed uint64) (benchWorkload, error) { return &replaySpec{seed: seed}, nil }

// replayInstance is one booted machine with the merged trace compiled
// into engine streams, ready to run.
type replayInstance struct {
	m      *experiments.Machine
	t      *trace.Trace
	nodes  []*vfs.Inode
	rep    *trace.Replay
	e      *iosched.Engine
	ids    []iosched.StreamID
	tr     *tracer
	layers map[string]float64 // set-up timings reported per pass
}

// generate builds the merged trace and the warm range of each of its
// files.
func (s *replaySpec) generate() (*trace.Trace, []int64, error) {
	var parts []*trace.Trace
	var warm []int64
	shift := 0
	for ci, c := range replayClasses {
		p, w := replayParams(c, subSeed(s.seed, "replay-gen", ci))
		t, err := trace.Generate(c.name, p)
		if err != nil {
			return nil, nil, err
		}
		parts = append(parts, t.ShiftStreams(shift))
		shift += c.streams
		for range t.Files {
			warm = append(warm, w)
		}
	}
	t, err := trace.Merge(parts...)
	return t, warm, err
}

func (s *replaySpec) setup(p *probes) (instance, error) {
	g0 := nowNS()
	t, warm, err := s.generate()
	if err != nil {
		return nil, err
	}
	genNS := nowNS() - g0
	m, err := experiments.BootMachine(machineConfig(replayCachePages, subSeed(s.seed, "replay-jitter", 0)), experiments.ProfileUnix)
	if err != nil {
		return nil, err
	}
	inst := &replayInstance{m: m, t: t}
	if p != nil {
		wrapRegistered(m.K.Devices, p)
		inst.tr = p.tr
	}
	paths := make([]string, len(t.Files))
	for i, spec := range t.Files {
		paths[i] = fmt.Sprintf("/data/trace%02d", i)
		gen := workload.TextGen(subSeed(s.seed, "replay-file", i))
		if p != nil {
			gen = timedPageGen(gen, p)
		}
		n, err := m.K.Create(paths[i], m.Disk, workload.New(spec.Size, pageSize, gen))
		if err != nil {
			return nil, err
		}
		inst.nodes = append(inst.nodes, n)
	}
	for i, path := range paths {
		from, to := warm[i], t.Files[i].Size
		if from < 0 {
			from, to = 0, -from
		}
		if err := warmRange(m.K, path, from, to); err != nil {
			return nil, err
		}
	}
	m.K.ResetDeviceState()
	m.K.ResetRunStats()

	c0 := nowNS()
	inst.rep, err = trace.NewReplay(m.K, m.Table, t, paths, trace.Options{UseSLEDs: true, BatchWindow: replayWindow})
	if err != nil {
		return nil, err
	}
	inst.e = iosched.NewEngine(m.K)
	sched := iosched.NewScheduler(replayScheduler)
	var load core.Load = inst.e
	if p != nil {
		sched = &timedScheduler{inner: sched, p: p}
		load = &timedLoad{inner: inst.e, p: p}
	}
	inst.e.Queue(m.Disk, sched)
	m.Table.SetLoad(load)
	inst.ids = inst.rep.AddStreams(inst.e)
	inst.layers = map[string]float64{
		"trace.gen_host_s":     float64(genNS) / 1e9,
		"trace.compile_host_s": float64(nowNS()-c0) / 1e9,
	}
	return inst, nil
}

// warmRange reads [from, to) of a file without charging the copy.
func warmRange(k *vfs.Kernel, path string, from, to int64) error {
	f, err := k.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.ReadAtMapped(make([]byte, to-from), from)
	return err
}

func (r *replayInstance) run() (passResult, error) {
	k, tab := r.m.K, r.m.Table
	res := passResult{layer: r.layers}
	from := snapKernel(k, tab)
	if err := runEngine(r.e, r.tr, &res); err != nil {
		return res, err
	}
	lat := r.rep.Latencies()
	var last simclock.Duration
	for _, id := range r.ids {
		last = max(last, r.e.FinishTime(id))
	}
	for i, rec := range r.t.Records {
		if lat[i] <= 0 {
			return res, mismatchf("record %d (stream %d) never completed", i, rec.Stream)
		}
		if rec.Op == trace.OpWrite {
			res.vwrite = append(res.vwrite, ms(lat[i]))
		} else {
			res.vread = append(res.vread, ms(lat[i]))
		}
	}
	first, _ := r.t.Span()
	res.vmakespanS = (last - (r.e.Base() + first)).Seconds()
	res.ops = len(r.t.Records)
	res.failed = r.rep.IOErrors()
	if err := validateSLEDs(k, tab, r.nodes, r.tr); err != nil {
		return res, err
	}
	kernelLayers(res.layer, k, tab, from)
	res.layer["trace.records"] = float64(len(r.t.Records))
	res.layer["trace.io_errors"] = float64(res.failed)
	return res, nil
}

// runEngine runs the engine under a span, recording its host time,
// allocations and events into res.
func runEngine(e *iosched.Engine, tr *tracer, res *passResult) error {
	a0 := readAllocs()
	s := tr.begin(layerEngine)
	t0 := nowNS()
	err := e.Run()
	res.engineNS = nowNS() - t0
	tr.end(s)
	res.engineAllocs = readAllocs().mallocs - a0.mallocs
	res.events = e.Events()
	return err
}

// validateSLEDs fetches every file's SLED vector and checks it.
func validateSLEDs(k *vfs.Kernel, tab *core.Table, nodes []*vfs.Inode, tr *tracer) error {
	for _, n := range nodes {
		q := tr.begin(layerQuery)
		sleds, err := core.Query(k, tab, n)
		tr.end(q)
		if err != nil {
			return err
		}
		if err := core.Validate(sleds, n.Size()); err != nil {
			return mismatchf("SLEDs of %s: %v", n.Name(), err)
		}
	}
	return nil
}
