package main

import (
	"slices"

	"sleds/internal/core"
	"sleds/internal/device"
	"sleds/internal/faults"
	"sleds/internal/fleet"
	"sleds/internal/iosched"
	"sleds/internal/lmbench"
	"sleds/internal/simclock"
	"sleds/internal/trace"
	"sleds/internal/vfs"
)

// The fleet workload is efleet's degraded scenario under the hedge
// policy: thousands of closed-loop streams read a file replicated on four
// servers, one of which times out on every request (fault injection).
// Each server caches a quarter of the file. No page content is generated
// and no client cache is used; the engine, fleet selection and the sleds
// table's overlay carry the host cost. One operation is one logical read;
// its virtual latency runs from the read's start to its completion.
const (
	fleetReplicas         = 4
	fleetServerCachePages = 64  // each server caches a quarter of the file
	fleetFilePages        = 256 // the replicated file: 1 MiB
	fleetRecordPages      = 4   // one read is 16 KiB
	fleetStreams          = 2000
	fleetReadsPerStream   = 4
	fleetProbeEvery       = 64
	fleetStagger          = 5 * simclock.Millisecond  // between stream starts
	fleetThink            = 10 * simclock.Millisecond // between a stream's reads
	fleetClientCachePages = 256
)

// fleetSpec is the fleet workload's inputs: the record each read of each
// stream targets, drawn uniformly.
type fleetSpec struct {
	seed    uint64
	records [][]int
}

func prepareFleet(seed uint64) (benchWorkload, error) {
	s := &fleetSpec{seed: seed, records: make([][]int, fleetStreams)}
	rng := trace.NewRNG(subSeed(seed, "fleet-reads", 0))
	for i := range s.records {
		recs := make([]int, fleetReadsPerStream)
		for j := range recs {
			recs[j] = int(rng.Int64n(fleetFilePages / fleetRecordPages))
		}
		s.records[i] = recs
	}
	return s, nil
}

// fleetInstance is one booted fleet with its streams added to an engine.
type fleetInstance struct {
	k       *vfs.Kernel
	fl      *fleet.Fleet
	tab     *core.Table
	inj     *faults.Injector
	e       *iosched.Engine
	streams []*fleetStream
	tr      *tracer
}

func (s *fleetSpec) setup(p *probes) (instance, error) {
	mem := device.NewMem(device.DefaultMemConfig(0))
	k := vfs.NewKernel(vfs.Config{
		PageSize:   pageSize,
		CachePages: fleetClientCachePages,
		MemDevice:  mem,
		JitterSeed: int64(subSeed(s.seed, "fleet-jitter", 0) >> 1),
		JitterFrac: 0.02,
	})
	k.AttachDevice(mem)
	fc := fleet.DefaultConfig()
	fc.Replicas = fleetReplicas
	fc.Server.ServerCachePages = fleetServerCachePages
	fc.ProbeEvery = fleetProbeEvery
	fl, err := fleet.New(k, fc)
	if err != nil {
		return nil, err
	}
	tab, err := lmbench.Calibrate(k.Clock, mem, k.Devices.All())
	if err != nil {
		return nil, err
	}
	fl.SetTable(tab)
	if err := fl.CreateFile("/fleet", subSeed(s.seed, "fleet-file", 0), fleetFilePages*pageSize); err != nil {
		return nil, err
	}
	k.ResetDeviceState()
	inst := &fleetInstance{k: k, fl: fl, tab: tab}
	// Replica 0 times out on every request (the paper's NFS timeout
	// class); the injector sits under the engine queue.
	dev0 := fl.Replica(0).Dev
	wrapped, inj := faults.Wrap(k.Devices.Get(dev0), faults.Config{
		Seed:           int64(subSeed(s.seed, "fleet-faults", 0) >> 1),
		PFault:         1,
		MaxConsecutive: 1,
	})
	k.Devices.Replace(dev0, wrapped)
	inst.inj = inj
	if p != nil {
		wrapRegistered(k.Devices, p)
		inst.tr = p.tr
	}

	inst.e = iosched.NewEngine(k)
	for i := range fl.Replicas() {
		var sched iosched.Scheduler = iosched.NewFCFS()
		if p != nil {
			sched = &timedScheduler{inner: sched, p: p}
		}
		inst.e.Queue(fl.Replica(i).Dev, sched)
	}
	var load core.Load = inst.e
	if p != nil {
		load = &timedLoad{inner: inst.e, p: p}
	}
	tab.SetLoad(load)
	fl.ObserveLateFaults(inst.e)
	recLen := int64(fleetRecordPages * pageSize)
	replicas := make([]device.ID, fl.Replicas())
	for i := range replicas {
		replicas[i] = fl.Replica(i).Dev
	}
	for i, recs := range s.records {
		st := &fleetStream{f: fl, id: i, readLen: recLen, tr: inst.tr, replicas: replicas}
		for _, rec := range recs {
			st.offs = append(st.offs, int64(rec)*recLen)
		}
		inst.streams = append(inst.streams, st)
		inst.e.AddStream(simclock.Duration(i)*fleetStagger, st)
	}
	return inst, nil
}

// fleetStream drives one stream's reads as an iosched Program: a
// fleet.Read stepped to completion per logical read, a think-time sleep
// between reads.
type fleetStream struct {
	f       *fleet.Fleet
	id      int
	offs    []int64
	readLen int64
	tr      *tracer

	cur      int
	rd       *fleet.Read
	started  simclock.Duration
	thinking bool

	replicas []device.ID // the fleet's replica devices

	lats                           []float64 // per-read virtual latency, ms
	attempts, failed, hedged, errs int
	strays                         int // successful reads served by no replica
}

// Step implements iosched.Program.
func (s *fleetStream) Step(h *iosched.Handle, prev iosched.Result) iosched.Op {
	for {
		if s.rd == nil {
			if s.cur >= len(s.offs) {
				return iosched.Exit(nil)
			}
			if s.cur > 0 && !s.thinking {
				s.thinking = true
				return iosched.Sleep(fleetThink)
			}
			s.thinking = false
			s.rd = s.f.StartRead(fleet.PolicySLEDHedge, s.offs[s.cur], s.readLen)
			s.started = h.Now()
			prev = iosched.Result{}
		}
		s.tr.setOp(s.id*fleetReadsPerStream + s.cur)
		sp := s.tr.begin(layerFleetStep)
		op, done := s.rd.Step(h, prev)
		s.tr.end(sp)
		s.tr.setOp(-1)
		if !done {
			return op
		}
		s.lats = append(s.lats, ms(h.Now()-s.started))
		s.attempts += s.rd.Attempts
		s.failed += s.rd.Failed
		if s.rd.Hedged {
			s.hedged++
		}
		if s.rd.Err != nil {
			s.errs++
		} else if !slices.Contains(s.replicas, s.rd.Dev) {
			s.strays++
		}
		s.cur++
		s.rd = nil
	}
}

func (f *fleetInstance) run() (passResult, error) {
	res := passResult{layer: map[string]float64{}}
	if err := runEngine(f.e, f.tr, &res); err != nil {
		return res, err
	}
	var last simclock.Duration
	var attempts, failed, hedged int
	for i, st := range f.streams {
		if len(st.lats) != len(st.offs) || st.strays > 0 {
			return res, mismatchf("stream %d completed %d of %d reads, %d from no replica",
				i, len(st.lats), len(st.offs), st.strays)
		}
		last = max(last, f.e.FinishTime(iosched.StreamID(i)))
		res.vread = append(res.vread, st.lats...)
		attempts += st.attempts
		failed += st.failed
		hedged += st.hedged
		res.failed += st.errs
	}
	res.ops = len(res.vread)
	res.vmakespanS = (last - f.e.Base()).Seconds()
	nodes := make([]*vfs.Inode, f.fl.Replicas())
	var probes int64
	for i := range nodes {
		nodes[i] = f.fl.Replica(i).Inode()
		probes += f.fl.Replica(i).Probes
	}
	if err := validateSLEDs(f.k, f.tab, nodes, f.tr); err != nil {
		return res, err
	}
	res.layer["fleet.reads"] = float64(res.ops)
	res.layer["fleet.attempts"] = float64(attempts)
	res.layer["fleet.hedged"] = float64(hedged)
	res.layer["fleet.failed"] = float64(failed)
	res.layer["fleet.probes"] = float64(probes)
	res.layer["fleet.errs"] = float64(res.failed)
	res.layer["faults.injected"] = float64(f.inj.Stats().Faults)
	return res, nil
}
