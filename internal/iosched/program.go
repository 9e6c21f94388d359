package iosched

import (
	"errors"
	"fmt"

	"sleds/internal/device"
	"sleds/internal/simclock"
	"sleds/internal/vfs"
)

// A stream is an explicit state machine, not a blocked goroutine: the
// engine repeatedly asks its Program for the next operation (an Op) and
// executes it, feeding the result into the following Step call. Any amount
// of synchronous work — opening files, scanning buffers, charging CPU time
// to the stream's clock — can happen inside Step; only the operations that
// may suspend on a queued device (and sleeps) are expressed as Ops, which
// is what lets one engine thread interleave tens of thousands of streams
// without a stack per stream.

// Result is the outcome of the previous Op, passed to Program.Step. The
// first Step call of a stream receives a zero Result. Dev and HedgeFired
// are set only by HedgedDevRead: the device whose completion won the race
// and whether the hedge deadline expired (the secondary was issued) before
// it resolved.
type Result struct {
	N          int
	Err        error
	Dev        device.ID
	HedgeFired bool
}

// Program is one simulated process: Step returns the next operation to
// run. Returning Exit ends the stream.
type Program interface {
	Step(h *Handle, prev Result) Op
}

// ProgramFunc adapts a function to the Program interface.
type ProgramFunc func(h *Handle, prev Result) Op

// Step implements Program.
func (f ProgramFunc) Step(h *Handle, prev Result) Op { return f(h, prev) }

// Handle is a stream's interface to its execution context, passed to every
// Step call. Under an Engine it reports the stream's identity and virtual
// time; under RunProgram it reflects the kernel's clock directly. Each
// stream keeps one Handle for its lifetime.
type Handle struct {
	e  *Engine // nil under RunProgram
	k  *vfs.Kernel
	id StreamID
}

// ID returns the stream's identity (0 under RunProgram).
func (h *Handle) ID() StreamID { return h.id }

// Now reports the stream's current virtual time. While a stream executes,
// the kernel's clock is the stream's own clock.
func (h *Handle) Now() simclock.Duration { return h.k.Clock.Now() }

// Sleep suspends an fn stream (AddStreamFunc) for d of virtual time; other
// streams run meanwhile. Program streams sleep with the Sleep Op instead —
// a Step has no goroutine to park.
//
//sledlint:allow panicpath -- misuse of the blocking API from a Program, not a simulation outcome
func (h *Handle) Sleep(d simclock.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("iosched: negative sleep %v", d))
	}
	if h.e == nil {
		h.k.Clock.Advance(d)
		return
	}
	st := h.e.streams[h.id]
	if st.fn == nil {
		panic("iosched: Handle.Sleep from a Program stream; return the Sleep op instead")
	}
	h.e.bridge <- bridgeEvent{stream: h.id, sleeping: true, wake: st.clock.Now() + d}
	granted := <-st.resume
	st.clock.AdvanceTo(granted)
}

// opKind discriminates Op variants.
type opKind uint8

const (
	opExit opKind = iota
	opSleep
	opReadAt
	opReadAtMapped
	opRead
	opWriteAt
	opWrite
	opDevRead
	opDevWrite
	opHedge
)

// Op is one operation a Program asks its driver to run: finish the stream,
// sleep in virtual time, perform a (possibly suspending) I/O, or race a
// hedged read across two devices. An Op is a plain value — its operands
// are fields, not a captured closure — so building one allocates nothing.
type Op struct {
	kind  opKind
	sleep simclock.Duration // opSleep
	err   error             // opExit

	// File ops: the file and buffer; off is the offset of the positioned
	// ones (ReadAt, ReadAtMapped, WriteAt).
	f   *vfs.File
	p   []byte
	off int64

	// Device ops (DevRead, DevWrite, HedgedDevReadAt): the device and
	// extent, with off as the device offset. hedge adds the secondary
	// target and deadline of a hedged read.
	dev    device.ID
	length int64
	hedge  hedgeSpec
}

// hedgeSpec is the part of a HedgedDevReadAt beyond its primary access:
// the secondary device and its offset (they differ from the primary's
// when the two devices hold replicas of the same data at different
// extents), and the hedge deadline.
type hedgeSpec struct {
	secondary device.ID
	secOff    int64
	delay     simclock.Duration
}

// Exit ends the stream with the given error (nil for success).
func Exit(err error) Op { return Op{kind: opExit, err: err} }

// Sleep suspends the stream for d of virtual time; other streams run
// meanwhile.
func Sleep(d simclock.Duration) Op { return Op{kind: opSleep, sleep: d} }

// ReadAt reads len(p) bytes from f at offset off (File.ReadAt as an Op).
func ReadAt(f *vfs.File, p []byte, off int64) Op {
	return Op{kind: opReadAt, f: f, p: p, off: off}
}

// ReadAtMapped is File.ReadAtMapped as an Op: no per-byte copy charge.
func ReadAtMapped(f *vfs.File, p []byte, off int64) Op {
	return Op{kind: opReadAtMapped, f: f, p: p, off: off}
}

// Read reads from f's cursor (File.Read as an Op).
func Read(f *vfs.File, p []byte) Op { return Op{kind: opRead, f: f, p: p} }

// WriteAt writes p to f at offset off (File.WriteAt as an Op).
func WriteAt(f *vfs.File, p []byte, off int64) Op {
	return Op{kind: opWriteAt, f: f, p: p, off: off}
}

// Write writes p at f's cursor (File.Write as an Op).
func Write(f *vfs.File, p []byte) Op { return Op{kind: opWrite, f: f, p: p} }

// DevRead accesses the device registered under id directly, below the VFS:
// the raw dispatch outcome (a fault injected under the queue, untouched by
// the kernel retry policy) comes back in Result.Err.
func DevRead(id device.ID, off, length int64) Op {
	return Op{kind: opDevRead, dev: id, off: off, length: length}
}

// DevWrite is the write counterpart of DevRead.
func DevWrite(id device.ID, off, length int64) Op {
	return Op{kind: opDevWrite, dev: id, off: off, length: length}
}

// HedgedDevRead is DevRead with a deterministic tail-latency hedge: the
// read is submitted to the primary device and a virtual-time deadline of
// delay is armed. If the read has not completed when the deadline expires,
// an identical read is submitted to the secondary device and the two race;
// the first completion resumes the stream (Result.Dev names the winner,
// Result.HedgeFired reports whether the secondary was issued) and the
// loser is cancelled — dropped from its queue if not yet dispatched, or
// left to finish unclaimed if the device is already servicing it, exactly
// as a real cancellation cannot recall a request the server has started.
// The first completion wins even if it carries a fault: error handling
// (failover, retry) stays with the caller.
//
// Under an Engine both devices should be queued; an unqueued primary
// completes in place with no hedging (as DevRead would), and an unqueued
// secondary leaves the deadline inert. A hedged read is a queue-level
// operation: it races the device queues themselves, so wrappers stacked
// over a queue (an injector Replaced after Queue) are bypassed — faults
// must be injected under the queue to perturb it, where they surface at
// dispatch time in the completion. Under RunProgram every access
// completes in place, so the op degrades to a plain primary read. The
// deadline uses virtual time only: schedules stay byte-identical across
// runs and worker counts.
func HedgedDevRead(primary, secondary device.ID, off, length int64, delay simclock.Duration) Op {
	return HedgedDevReadAt(primary, off, secondary, off, length, delay)
}

// HedgedDevReadAt is HedgedDevRead with distinct device offsets for the
// two targets — the replicated-data case, where each device holds its own
// copy of the logical bytes at its own extent.
func HedgedDevReadAt(primary device.ID, off int64, secondary device.ID, secOff, length int64, delay simclock.Duration) Op {
	return Op{kind: opHedge, dev: primary, off: off, length: length,
		hedge: hedgeSpec{secondary: secondary, secOff: secOff, delay: delay}}
}

// startIO begins an I/O op (any kind but exit, sleep and hedge) on the
// kernel k, returning its first step.
func (op *Op) startIO(k *vfs.Kernel) vfs.IOStep {
	switch op.kind {
	case opReadAt:
		return op.f.ReadAtStep(op.p, op.off)
	case opReadAtMapped:
		return op.f.ReadAtMappedStep(op.p, op.off)
	case opRead:
		return op.f.ReadStep(op.p)
	case opWriteAt:
		return op.f.WriteAtStep(op.p, op.off)
	case opWrite:
		return op.f.WriteStep(op.p)
	default: // opDevRead, opDevWrite
		return deviceStep(k, op.dev, op.off, op.length, op.kind == opDevWrite)
	}
}

// deviceStep wraps one raw device access as an IOStep, so queued devices
// can suspend it like any kernel I/O.
func deviceStep(k *vfs.Kernel, id device.ID, off, length int64, write bool) vfs.IOStep {
	dev := k.Devices.Get(id)
	var err error
	if write {
		err = device.WriteErr(dev, k.Clock, off, length)
	} else {
		err = device.ReadErr(dev, k.Clock, off, length)
	}
	if errors.Is(err, vfs.ErrBlocked) {
		return vfs.BlockedStep(deviceDone)
	}
	return vfs.DoneStep(0, err)
}

// deviceDone is a suspended raw device access's continuation: the
// dispatch outcome is the access's result.
func deviceDone(devErr error) vfs.IOStep { return vfs.DoneStep(0, devErr) }

// RunProgram executes a Program synchronously on the kernel's clock, with
// no engine: every Op completes in place (there are no queued devices to
// suspend on), so the program's schedule is identical to calling the
// kernel's blocking API directly. It is the single-process driver of the
// same state machines the Engine interleaves.
//
//sledlint:allow panicpath -- suspension and negative sleep are API misuse outside an engine run, not simulation outcomes
func RunProgram(k *vfs.Kernel, prog Program) error {
	h := &Handle{k: k}
	var res Result
	for {
		op := prog.Step(h, res)
		switch op.kind {
		case opExit:
			return op.err
		case opSleep:
			if op.sleep < 0 {
				panic(fmt.Sprintf("iosched: negative sleep %v", op.sleep))
			}
			k.Clock.Advance(op.sleep)
			res = Result{}
		case opHedge:
			// With no engine there is no queue to suspend on: the primary
			// read completes in place and the hedge never fires.
			if op.hedge.delay < 0 {
				panic(fmt.Sprintf("iosched: negative hedge delay %v", op.hedge.delay))
			}
			err := device.ReadErr(k.Devices.Get(op.dev), k.Clock, op.off, op.length)
			if errors.Is(err, vfs.ErrBlocked) {
				panic("iosched: program suspended outside an engine run")
			}
			res = Result{Err: err, Dev: op.dev}
		default:
			step := op.startIO(k)
			if step.Blocked() {
				panic("iosched: program suspended outside an engine run")
			}
			res = Result{N: int(step.N()), Err: step.Err()}
		}
	}
}
