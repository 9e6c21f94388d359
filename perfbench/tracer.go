package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// layer names the boundary a span was recorded at. Each is a seam the
// benchmark interposes from outside the program: a wrapper it registers
// or a call it makes itself.
type layer uint8

const (
	layerApps      layer = iota // wcapp.Run / grepapp.Run, called by the benchmark
	layerQuery                  // core.Query, called by the benchmark
	layerLoad                   // core.Load samples, through the wrapper given to Table.SetLoad
	layerPageGen                // workload.PageGen, through the wrapper given to workload.New
	layerDevice                 // device.Device, through the wrapper given to Registry.Replace
	layerSched                  // iosched.Scheduler, through the wrapper given to Engine.Queue
	layerEngine                 // iosched.Engine.Run, called by the benchmark
	layerFleetStep              // fleet.Read.Step, called by the benchmark's stream program
	numLayers
)

// layerNames are the span names written to the span file.
var layerNames = [numLayers]string{
	"apps", "core.query", "core.load", "workload.pagegen",
	"device", "iosched.sched", "iosched.run", "fleet.step",
}

func (l layer) String() string { return layerNames[l] }

// span is one timed call across a layer boundary. Host times are
// nanoseconds since process start; parent is the index of the span open
// when this one began (-1 at the root); op identifies the simulated
// operation the work was done for (-1 when the benchmark cannot see one).
type span struct {
	start, end int64
	parent     int32
	op         int32
	layer      layer
}

// tracer records spans in memory. A nil *tracer records nothing, so the
// benchmark's own timers cost nothing when tracing is off; the wrappers
// are not interposed at all then.
type tracer struct {
	spans []span
	open  []int32 // stack of spans begun and not yet ended
	op    int32   // operation id stamped on new spans
}

func newTracer() *tracer { return &tracer{op: -1} }

// setOp stamps subsequent spans with an operation id (-1: none).
func (t *tracer) setOp(op int) {
	if t != nil {
		t.op = int32(op)
	}
}

// begin opens a span and returns its handle for end.
func (t *tracer) begin(l layer) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{start: nowNS(), parent: parent, op: t.op, layer: l})
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned. Spans nest: the one ended is the
// one most recently begun.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].end = nowNS()
	t.open = t.open[:len(t.open)-1]
}

// reset drops every recorded span, keeping the buffer.
func (t *tracer) reset() {
	t.spans = t.spans[:0]
	t.open = t.open[:0]
	t.op = -1
}

// selfTimes returns, for each span, its duration minus the part of its
// interval that its direct children cover. Children may arrive in any
// order and may overlap each other or stick out of their parent: only the
// union of their intervals, clipped to the parent's, is subtracted.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start
	}
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return spans[order[a]].start < spans[order[b]].start })
	// covered[p] is the end of the union of p's children seen so far; the
	// start order makes a single running end enough to merge intervals.
	covered := make([]int64, len(spans))
	for i, s := range spans {
		covered[i] = s.start
	}
	for _, c := range order {
		p := spans[c].parent
		if p < 0 {
			continue
		}
		lo := max(spans[c].start, covered[p])
		hi := min(spans[c].end, spans[p].end)
		if hi > lo {
			self[p] -= hi - lo
			covered[p] = hi
		}
	}
	return self
}

// layerTotals is one layer's share of a traced pass.
type layerTotals struct {
	calls  int64
	hostNS int64 // summed durations
	selfNS int64 // summed self times
}

// totals folds the spans into per-layer call counts, host time and self
// time. A layer's spans never nest inside each other: each seam is
// wrapped once.
func totals(spans []span) [numLayers]layerTotals {
	var out [numLayers]layerTotals
	self := selfTimes(spans)
	for i, s := range spans {
		t := &out[s.layer]
		t.calls++
		t.hostNS += s.end - s.start
		t.selfNS += self[i]
	}
	return out
}

// maxSpansWritten bounds the span file: a pass of the engine-heavy
// workloads records millions of spans, and the first ones show the shape.
const maxSpansWritten = 200000

// writeSpans writes spans as JSON lines to path, creating its directory:
// one header line, then one object per span.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	n := min(len(spans), maxSpansWritten)
	hdr, err := json.Marshal(map[string]any{"spans": len(spans), "written": n, "time_unit": "ns"})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", hdr)
	for i, s := range spans[:n] {
		fmt.Fprintf(w, `{"id":%d,"name":%q,"parent":%d,"op":%d,"start":%d,"end":%d}`+"\n",
			i, s.layer.String(), s.parent, s.op, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
