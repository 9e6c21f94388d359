package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"sleds/internal/apps/grepapp"
	"sleds/internal/apps/wcapp"
	"sleds/internal/device"
	"sleds/internal/faults"
	"sleds/internal/simclock"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},
		{20, 50, true},
		{99, 50, true},
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
		{100000, 99.99, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestPercentileLeavesTailBeyond(t *testing.T) {
	for _, n := range []int{1000, 1024, 5000, 10000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so sorting matters
		}
		s := sortedCopy(xs)
		tail, ok := tailPercentile(n)
		if !ok {
			t.Fatalf("n=%d: no percentile qualifies", n)
		}
		v := percentile(s, tail)
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < minTail {
			t.Errorf("n=%d: p%v = %v leaves %d samples beyond it, want >= %d", n, tail, v, beyond, minTail)
		}
		if got := percentile(s, 50); got != float64((n+1)/2) {
			t.Errorf("n=%d: p50 = %v, want %v", n, got, (n+1)/2)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		0: {start: 0, end: 100, parent: -1, layer: layerEngine},
		// Children out of start order, overlapping each other, one
		// sticking out past the parent's end.
		1: {start: 20, end: 50, parent: 0, layer: layerDevice},
		2: {start: 10, end: 30, parent: 0, layer: layerSched},
		3: {start: 90, end: 120, parent: 0, layer: layerLoad},
		// A grandchild: covered by its parent's interval, so it must not
		// reduce the root's self time a second time.
		4: {start: 15, end: 25, parent: 2, layer: layerPageGen},
		// A second root with no children.
		5: {start: 200, end: 230, parent: -1, layer: layerApps},
	}
	got := selfTimes(spans)
	// Root: 100 minus the union [10,50] and [90,100] = 100 - 40 - 10.
	want := []int64{50, 30, 10, 30, 10, 30}
	if !slices.Equal(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestTotals(t *testing.T) {
	spans := []span{
		{start: 0, end: 10, parent: -1, layer: layerEngine},
		{start: 2, end: 6, parent: 0, layer: layerDevice},
		{start: 20, end: 25, parent: -1, layer: layerDevice},
	}
	tot := totals(spans)
	if dev := tot[layerDevice]; dev.calls != 2 || dev.hostNS != 9 || dev.selfNS != 9 {
		t.Errorf("device totals = %+v, want 2 calls, 9ns host, 9ns self", dev)
	}
	if eng := tot[layerEngine]; eng.calls != 1 || eng.hostNS != 10 || eng.selfNS != 6 {
		t.Errorf("engine totals = %+v, want 1 call, 10ns host, 6ns self", eng)
	}
}

func TestTracerNests(t *testing.T) {
	tr := newTracer()
	tr.setOp(7)
	a := tr.begin(layerApps)
	b := tr.begin(layerDevice)
	tr.end(b)
	tr.setOp(-1)
	c := tr.begin(layerPageGen)
	tr.end(c)
	tr.end(a)
	if len(tr.spans) != 3 || len(tr.open) != 0 {
		t.Fatalf("spans=%d open=%d", len(tr.spans), len(tr.open))
	}
	if tr.spans[b].parent != a || tr.spans[c].parent != a || tr.spans[a].parent != -1 {
		t.Errorf("parents = %d %d %d", tr.spans[a].parent, tr.spans[b].parent, tr.spans[c].parent)
	}
	if tr.spans[b].op != 7 || tr.spans[c].op != -1 {
		t.Errorf("ops = %d %d", tr.spans[b].op, tr.spans[c].op)
	}
	var off *tracer
	off.setOp(1)
	off.end(off.begin(layerApps)) // a nil tracer records nothing, and must not panic
}

// TestDeviceWrapperIsTransparent pins that the timing wrapper carries
// exactly the optional markers the VFS type-asserts, stays fallible, and
// returns the same errors and virtual costs as the device it wraps.
func TestDeviceWrapperIsTransparent(t *testing.T) {
	type chunked interface{ ChunkSize() int64 }
	type readOnly interface{ ReadOnly() bool }
	mk := map[string]func() device.Device{
		"disk":  func() device.Device { return device.NewDisk(device.Table2DiskConfig(1)) },
		"cdrom": func() device.Device { return device.NewCDROM(device.DefaultCDROMConfig(2)) },
		"nfs":   func() device.Device { return device.NewNFS(device.DefaultNFSConfig(3)) },
		"tape":  func() device.Device { return device.NewTapeLibrary(device.DefaultTapeLibraryConfig(4)) },
	}
	for _, name := range []string{"disk", "cdrom", "nfs", "tape"} {
		for _, inject := range []bool{false, true} {
			build := func() device.Device {
				d := mk[name]()
				if inject {
					d, _ = faults.Wrap(d, faults.Config{Seed: 5, PFault: 0.5, MaxConsecutive: 2})
				}
				return d
			}
			raw, p := build(), newProbes()
			w := wrapDevice(build(), p)
			_, rawChunk := raw.(chunked)
			_, wChunk := w.(chunked)
			_, rawRO := raw.(readOnly)
			_, wRO := w.(readOnly)
			if rawChunk != wChunk || rawRO != wRO {
				t.Errorf("%s inject=%v: markers chunk %v->%v ro %v->%v", name, inject, rawChunk, wChunk, rawRO, wRO)
			}
			if rawChunk && wChunk && raw.(chunked).ChunkSize() != w.(chunked).ChunkSize() {
				t.Errorf("%s: ChunkSize differs", name)
			}
			if rawRO && wRO && raw.(readOnly).ReadOnly() != w.(readOnly).ReadOnly() {
				t.Errorf("%s: ReadOnly differs", name)
			}
			if _, ok := w.(device.FallibleDevice); !ok {
				t.Errorf("%s: wrapper is not a FallibleDevice", name)
			}
			if w.Info() != raw.Info() {
				t.Errorf("%s: Info %+v, want %+v", name, w.Info(), raw.Info())
			}
			c1, c2 := simclock.New(), simclock.New()
			faulted := 0
			for i := range int64(40) {
				off := (i * 7919 % 64) * 65536
				e1 := device.ReadErr(raw, c1, off, 8192)
				e2 := device.ReadErr(w, c2, off, 8192)
				if (e1 == nil) != (e2 == nil) || c1.Now() != c2.Now() {
					t.Fatalf("%s inject=%v read %d: raw (%v, %v) wrapped (%v, %v)", name, inject, i, e1, c1.Now(), e2, c2.Now())
				}
				var f *device.Fault
				if e2 != nil {
					if !errors.As(e2, &f) {
						t.Fatalf("%s: wrapped error %v carries no *device.Fault", name, e2)
					}
					faulted++
				}
			}
			if inject && faulted == 0 {
				t.Errorf("%s: the injector never faulted through the wrapper", name)
			}
			if p.devReads != 40 || p.devBytes != 40*8192 || p.devVBusy != c2.Now() {
				t.Errorf("%s: counted %d reads, %d bytes, %v busy; want 40, %d, %v",
					name, p.devReads, p.devBytes, p.devVBusy, 40*8192, c2.Now())
			}
			raw.Reset()
			w.Reset()
		}
	}
}

// TestTracedPassSimulatesTheSame runs one untraced and one traced pass of
// every workload and requires identical virtual results: the probes may
// cost host time, never change what is simulated.
func TestTracedPassSimulatesTheSame(t *testing.T) {
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			w, err := def.prepare(cliSeed(3))
			if err != nil {
				t.Fatal(err)
			}
			plain := runOnce(t, w, nil)
			p := newProbes()
			traced := runOnce(t, w, p)
			if plain.fingerprint() != traced.fingerprint() {
				t.Fatalf("traced pass simulated differently")
			}
			if !slices.Equal(plain.vread, traced.vread) || !slices.Equal(plain.vwrite, traced.vwrite) ||
				plain.vmakespanS != traced.vmakespanS || plain.failed != traced.failed || plain.events != traced.events {
				t.Fatalf("v* metrics, failures or events differ between traced and untraced passes")
			}
			if plain.failed != 0 {
				t.Errorf("%d of %d operations failed", plain.failed, plain.ops)
			}
			if p.devReads == 0 || len(p.tr.spans) == 0 {
				t.Errorf("probes saw nothing: %d device reads, %d spans", p.devReads, len(p.tr.spans))
			}
			if (plain.events > 0) != (p.schedCalls > 0 && p.loadSamples > 0) {
				t.Errorf("engine ran %d events but the scheduler/load probes saw %d/%d calls",
					plain.events, p.schedCalls, p.loadSamples)
			}
			if tail, ok := tailPercentile(len(plain.vread)); !ok || tail < 99 {
				t.Errorf("%d read samples do not support a p99", len(plain.vread))
			}
		})
	}
}

func runOnce(t *testing.T, w benchWorkload, p *probes) passResult {
	t.Helper()
	inst, err := w.setup(p)
	if err != nil {
		t.Fatal(err)
	}
	if p != nil {
		p.clear()
	}
	res, err := inst.run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestScanOracle(t *testing.T) {
	data := []byte("the xyzzy fox\njumps  over\n\nxyzzy")
	wc, matches := scanOracle(data, []byte("xyzzy"))
	if want := (wcapp.Result{Lines: 3, Words: 6, Bytes: int64(len(data))}); wc != want {
		t.Errorf("wc = %+v, want %+v", wc, want)
	}
	want := []grepapp.Match{{Offset: 0, Line: "the xyzzy fox"}, {Offset: 27, Line: "xyzzy"}}
	if !slices.Equal(matches, want) {
		t.Errorf("matches = %+v, want %+v", matches, want)
	}
}

// TestNeverSelects pins that the benchmark never calls fleet.Select: a
// selection advances the fleet's pick and probe counters, so a call from
// the benchmark would change the schedule it measures.
func TestNeverSelects(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Select" {
					t.Errorf("%s: the benchmark calls %s.Select", fset.Position(call.Pos()), sel.X)
				}
			}
			return true
		})
	}
}

// TestBenchmarkJSONMatches pins BENCHMARK.json's workload and metric
// lists to the ones the command reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", names, want)
	}
	for _, c := range []struct {
		what string
		got  []struct{ Name, Unit string }
		want []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s lists %d metrics, the command reports %d", c.what, len(c.got), len(c.want))
			continue
		}
		for i, m := range c.got {
			if m.Name != c.want[i].name || m.Unit != c.want[i].unit {
				t.Errorf("%s[%d] = %s (%s), the command reports %s (%s)", c.what, i, m.Name, m.Unit, c.want[i].name, c.want[i].unit)
			}
		}
	}
}

func TestMainCodeRejectsBadArguments(t *testing.T) {
	for _, c := range []struct {
		args []string
		code int
	}{
		{[]string{"--workload", "nope", "--seconds", "1"}, 1},
		{[]string{"--workload", "scan", "--trace", "2"}, 2},
		{[]string{"--workload", "scan", "--seconds", "0"}, 2},
		{[]string{"--bogus"}, 2},
	} {
		var out, errb bytes.Buffer
		if got := mainCode(c.args, &out, &errb); got != c.code {
			t.Errorf("%v: exit %d, want %d (stderr %q)", c.args, got, c.code, errb.String())
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed a result %q", c.args, out.String())
		}
	}
}
