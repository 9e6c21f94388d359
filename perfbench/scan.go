package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"

	"sleds/internal/apps/appenv"
	"sleds/internal/apps/grepapp"
	"sleds/internal/apps/wcapp"
	"sleds/internal/core"
	"sleds/internal/experiments"
	"sleds/internal/trace"
	"sleds/internal/vfs"
	"sleds/internal/workload"
)

// The scan workload is the paper's own path (Figures 7-12): one client
// in a closed loop runs SLED-guided wc and grep over a file set about
// twice the page cache, and the cache state one invocation leaves is the
// one the next finds. One operation is one invocation; its virtual
// latency is the invocation's elapsed virtual time.
const (
	scanCachePages  = 256             // a 1 MiB page cache
	scanFiles       = 16              // file i holds (i+1) * scanFileStep bytes:
	scanFileStep    = 16 << 10        // 16 KiB .. 256 KiB, 2.1 MiB in all
	scanInvocations = 1024            // operations per pass, 64 rounds over the files
	scanBufSize     = 16 << 10        // the applications' read chunk
	scanNeedle      = "xyzzy"         // the text lexicon never produces it
	scanPlantEvery  = int64(32 << 10) // one planted match line per 32 KiB
)

// scanFile is one file of the set, with the outputs wc and grep must
// produce on it, computed from its content bytes.
type scanFile struct {
	path     string
	size     int64
	seed     uint64
	onCDROM  bool // alternate files live on CD-ROM, the rest on NFS
	plants   []int64
	wantWC   wcapp.Result
	wantGrep []grepapp.Match
}

// content builds the file's bytes over gen: generated text with the
// match lines planted.
func (f *scanFile) content(gen workload.PageGen) (*workload.Content, error) {
	c := workload.New(f.size, pageSize, gen)
	for _, off := range f.plants {
		if err := workload.TryPlantMatch(c, off, scanNeedle); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// scanOp is one invocation: grep or wc over one file.
type scanOp struct {
	file int
	grep bool
}

// scanSpec is the scan workload's inputs, fixed by the seed.
type scanSpec struct {
	seed  uint64
	files []scanFile
	ops   []scanOp
}

func prepareScan(seed uint64) (benchWorkload, error) {
	s := &scanSpec{seed: seed}
	rng := trace.NewRNG(subSeed(seed, "scan-ops", 0))
	for i := range scanFiles {
		f := scanFile{
			path:    fmt.Sprintf("/data/scan%02d", i),
			size:    int64(i+1) * scanFileStep,
			seed:    subSeed(seed, "scan-file", i),
			onCDROM: i%2 == 1,
		}
		for off := scanPlantEvery / 2; off < f.size; off += scanPlantEvery {
			f.plants = append(f.plants, off+rng.Int64n(4096))
		}
		c, err := f.content(workload.TextGen(f.seed))
		if err != nil {
			return nil, err
		}
		f.wantWC, f.wantGrep = scanOracle(c.ReadAll(), []byte(scanNeedle))
		s.files = append(s.files, f)
	}
	// Each round invokes every file once, in a seeded order; a file
	// alternates between grep and wc from round to round. Every seed so
	// runs the same mix of file sizes and programs, in a different order.
	order := make([]int, scanFiles)
	for i := range order {
		order[i] = i
	}
	for r := range scanInvocations / scanFiles {
		for i := len(order) - 1; i > 0; i-- {
			j := int(rng.Int64n(int64(i + 1)))
			order[i], order[j] = order[j], order[i]
		}
		for _, f := range order {
			s.ops = append(s.ops, scanOp{file: f, grep: (r+f)%2 == 0})
		}
	}
	return s, nil
}

// scanOracle computes wc's counts and grep's matches directly from the
// content bytes: lines are newline counts, words are maximal runs of
// non-separator bytes, and a match is a newline-free line holding the
// needle, reported with its starting offset.
func scanOracle(data, needle []byte) (wcapp.Result, []grepapp.Match) {
	res := wcapp.Result{Bytes: int64(len(data))}
	inWord := false
	for _, c := range data {
		switch c {
		case '\n':
			res.Lines++
			inWord = false
		case ' ', '\t', '\v', '\f', '\r', 0:
			inWord = false
		default:
			if !inWord {
				res.Words++
			}
			inWord = true
		}
	}
	var matches []grepapp.Match
	for start := 0; start < len(data); {
		end := bytes.IndexByte(data[start:], '\n')
		if end < 0 {
			end = len(data) - start
		}
		if line := data[start : start+end]; bytes.Contains(line, needle) {
			matches = append(matches, grepapp.Match{Offset: int64(start), Line: string(line)})
		}
		start += end + 1
	}
	return res, matches
}

// scanInstance is one booted machine holding the file set, caches warm.
type scanInstance struct {
	spec  *scanSpec
	m     *experiments.Machine
	env   *appenv.Env
	nodes []*vfs.Inode
	tr    *tracer
}

func (s *scanSpec) setup(p *probes) (instance, error) {
	m, err := experiments.BootMachine(machineConfig(scanCachePages, subSeed(s.seed, "scan-jitter", 0)), experiments.ProfileUnix)
	if err != nil {
		return nil, err
	}
	inst := &scanInstance{spec: s, m: m, env: m.Env(true, scanBufSize)}
	if p != nil {
		wrapRegistered(m.K.Devices, p)
		inst.tr = p.tr
	}
	for i := range s.files {
		f := &s.files[i]
		gen := workload.TextGen(f.seed)
		if p != nil {
			gen = timedPageGen(gen, p)
		}
		c, err := f.content(gen)
		if err != nil {
			return nil, err
		}
		dev := m.NFS
		if f.onCDROM {
			dev = m.CDROM
		}
		n, err := m.K.Create(f.path, dev, c)
		if err != nil {
			return nil, err
		}
		inst.nodes = append(inst.nodes, n)
	}
	// Warm the cache with one front-to-back read of every file, then
	// measure from power-on mechanical state, as the experiments do.
	for _, f := range s.files {
		if err := readWhole(m.K, f.path, f.size); err != nil {
			return nil, err
		}
	}
	m.K.ResetDeviceState()
	m.K.ResetRunStats()
	return inst, nil
}

// readWhole reads a file front to back without charging the copy.
func readWhole(k *vfs.Kernel, path string, size int64) error {
	f, err := k.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.ReadAtMapped(make([]byte, size), 0)
	return err
}

func (s *scanInstance) run() (passResult, error) {
	k, tab, tr := s.m.K, s.m.Table, s.tr
	res := passResult{layer: map[string]float64{}}
	from := snapKernel(k, tab)
	start := k.Clock.Now()
	var estErr []float64
	var vcpu float64
	for i, op := range s.spec.ops {
		f := &s.spec.files[op.file]
		tr.setOp(i)
		// The delivery-time estimate an application would ask for before
		// reading (sledlib.TotalDeliveryTime: a query, then the PlanBest
		// sum, which matches the SLED-guided read order).
		q := tr.begin(layerQuery)
		sleds, err := core.Query(k, tab, s.nodes[op.file])
		tr.end(q)
		if err != nil {
			return res, err
		}
		if err := core.Validate(sleds, f.size); err != nil {
			return res, mismatchf("op %d: SLEDs of %s: %v", i, f.path, err)
		}
		est := core.TotalDeliveryTime(sleds, core.PlanBest)

		before, t0 := k.RunStats(), k.Clock.Now()
		a := tr.begin(layerApps)
		var wc wcapp.Result
		var matches []grepapp.Match
		if op.grep {
			matches, err = grepapp.Run(s.env, f.path, scanNeedle, grepapp.Options{})
		} else {
			wc, err = wcapp.Run(s.env, f.path)
		}
		tr.end(a)
		after, lat := k.RunStats(), k.Clock.Now()-t0
		res.ops++
		res.vread = append(res.vread, ms(lat))
		vcpu += (after.CPUTime - before.CPUTime).Seconds()
		if errors.Is(err, vfs.ErrIO) {
			res.failed++
			continue
		}
		if err != nil {
			return res, err
		}
		if err := checkScan(f, op.grep, wc, matches); err != nil {
			return res, mismatchf("op %d: %v", i, err)
		}
		if iow := (after.IOWait - before.IOWait).Seconds(); iow > 0 {
			estErr = append(estErr, 100*math.Abs(est-iow)/iow)
		}
	}
	tr.setOp(-1)
	res.vmakespanS = (k.Clock.Now() - start).Seconds()
	kernelLayers(res.layer, k, tab, from)
	res.layer["apps.vcpu_s"] = vcpu
	if len(estErr) > 0 {
		e := sortedCopy(estErr)
		res.layer["core.est_err_p50_pct"] = percentile(e, 50)
		res.layer["core.est_err_p99_pct"] = percentile(e, 99)
	}
	return res, nil
}

// checkScan compares one invocation's output with the oracle's.
func checkScan(f *scanFile, grep bool, wc wcapp.Result, matches []grepapp.Match) error {
	if !grep {
		if wc != f.wantWC {
			return fmt.Errorf("wc %s = %+v, content says %+v", f.path, wc, f.wantWC)
		}
		return nil
	}
	if len(matches) != len(f.wantGrep) {
		return fmt.Errorf("grep %s found %d matches, content has %d", f.path, len(matches), len(f.wantGrep))
	}
	for j, mt := range matches {
		if mt != f.wantGrep[j] {
			return fmt.Errorf("grep %s match %d = %+v, content says %+v", f.path, j, mt, f.wantGrep[j])
		}
	}
	return nil
}
