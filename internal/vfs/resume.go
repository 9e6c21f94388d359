package vfs

import (
	"errors"
	"fmt"

	"sleds/internal/cache"
	"sleds/internal/device"
	"sleds/internal/simclock"
)

// The resumable I/O core. The kernel's blocking path — a read faulting a
// page in from a device, with retries, jitter and write-back of evicted
// dirty pages — is written once, as an explicit state machine per
// in-flight operation (ioOp), and every device access is a potential
// suspension point. A device wrapper that cannot complete an access
// synchronously (internal/iosched's QueuedDevice during an engine run)
// registers the request with its engine and returns ErrBlocked; the
// machine then stops in its outcome state and hands back a suspended
// IOStep naming the op, and the engine resumes it with the dispatch
// outcome when the device completes the request.
//
// Synchronous callers (everything outside an engine run) drive the same
// machine to completion in one call: an unqueued device never returns
// ErrBlocked, so the run loop never stops early. One implementation, two
// drivers — which is what keeps engine and non-engine schedules
// bit-identical.
//
// The machines nest: a read loop calls the fault machine for a missing
// page, which calls the device-access machine for the cluster read and
// the insert machine per cluster page; an insert that evicts a dirty page
// calls the write-back drain, whose page write calls the access machine
// again. A call pushes the caller's next state on the op's small return
// stack and a sub-machine pops it when it finishes, leaving its result in
// the op's err (and, for a fault, data) register.
//
// Ops are owned by the kernel and pooled: ops holds every op it has
// allocated, by slot, and opFree the slots not in use, reused last-in
// first-out. An op is taken when an operation starts and goes back to the
// pool when its machine reaches opEnd — at once for a synchronous call,
// or in the Resume that completes a suspended one. An op suspended on a
// device stays out of the pool however long the device takes, and an op
// whose machine is unwound by a panic (a broken device wrapper) is
// returned by run on the way out, exactly once. A freed op is zeroed, so
// its state reads opFreed, and its generation advances, so a stale IOStep
// cannot resume whatever op reuses the slot.

// ErrBlocked is the sentinel a queued-device wrapper returns from
// ReadErr/WriteErr when it has enqueued the access with its engine instead
// of completing it. It never escapes to applications: the resumable layer
// converts it into a suspended IOStep, and the engine feeds the real
// outcome back in via Resume.
var ErrBlocked = errors.New("vfs: I/O suspended on a queued device")

// IOStep is the state of one resumable kernel I/O operation: either a
// final result (N bytes, Err) or a suspension waiting on a device request
// whose outcome resumes the operation.
type IOStep struct {
	op      *ioOp  // the suspended operation; nil for a raw device access
	gen     uint32 // op's generation when it suspended
	blocked bool
	n       int64
	err     error
}

// DoneStep builds a completed step carrying a final result (the engine
// uses it to wrap raw device accesses as one-shot steps).
func DoneStep(n int64, err error) IOStep { return IOStep{n: n, err: err} }

// BlockedStep builds a suspended raw device access, one with no kernel
// operation around it: resuming it completes it with the device request's
// outcome as its error.
func BlockedStep() IOStep { return IOStep{blocked: true} }

// Blocked reports whether the operation is suspended on a device request.
func (s IOStep) Blocked() bool { return s.blocked }

// Resume feeds the completed device request's outcome (nil, a *device.Fault
// from an injector below the queue, or any other device error) into the
// suspended operation and runs it to its next suspension or completion.
//
//sledlint:allow panicpath -- resuming a completed or recycled step is an engine bug, not a simulation outcome
func (s IOStep) Resume(devErr error) IOStep {
	if !s.blocked {
		panic("vfs: Resume on a completed IOStep")
	}
	if s.op == nil {
		return DoneStep(0, devErr)
	}
	if s.op.gen != s.gen || s.op.state != opOutcome {
		panic("vfs: Resume of a recycled I/O op")
	}
	return s.op.k.run(s.op, devErr)
}

// N returns the byte count of a completed step.
func (s IOStep) N() int64 { return s.n }

// Err returns the error of a completed step.
func (s IOStep) Err() error { return s.err }

// mustComplete unwraps a step that is required to have completed: the
// synchronous API surface. A suspension here means blocking I/O was issued
// against an engine-queued device from outside the engine's op loop (for
// example File.Sync inside a running stream), which the flat engine cannot
// service; the suspended op goes back to the pool before the panic.
//
//sledlint:allow panicpath -- API misuse: synchronous I/O on an engine-queued device cannot be scheduled
func mustComplete(s IOStep, what string) (int64, error) {
	if s.blocked {
		if s.op != nil {
			s.op.k.freeOp(s.op)
		}
		panic("vfs: " + what + " blocked on a queued device outside the iosched engine op loop")
	}
	return s.n, s.err
}

// opState is where an op's machine resumes.
type opState uint8

const (
	opFreed         opState = iota // pooled: running it is a use after free
	opRead                         // read loop: serve the next page, or fault it in
	opReadFaulted                  // the faulted page arrived (or failed): copy it out
	opWrite                        // write loop: patch the next page, insert it, or fault it in
	opWriteInserted                // a freshly filled page went in
	opWriteFaulted                 // read-modify-write: the page arrived
	opFault                        // fault: size the cluster and read it
	opFaultRead                    // the cluster read finished
	opFaultInsert                  // insert the next cluster page, or serve the demanded one
	opFaultInserted                // one cluster page went in
	opInsert                       // insert: evict and drain until there is room, then insert
	opDrain                        // drain: write back the next queued evicted dirty page
	opDrained                      // one write-back finished: recycle its frame
	opWriteBack                    // write-back: store the page in content, write it to its device
	opWrittenBack                  // the device write finished: account it
	opAccess                       // device access: begin
	opTry                          // issue one attempt — the only suspension point
	opOutcome                      // an attempt finished: retry, give up, or finish
	opEnd                          // the operation finished: release the op
)

// accessKind selects what one device access issues.
type accessKind uint8

const (
	accRead  accessKind = iota // device.ReadErr on dev
	accWrite                   // device.WriteErr on dev
	accStage                   // the stager's Fetch of ino's bytes
)

// devAccess is one logical device access: what to issue per attempt.
type devAccess struct {
	kind        accessKind
	dev         device.Device // accRead, accWrite
	ino         *Inode        // accStage
	off, length int64
}

// ioOp is one in-flight kernel I/O operation: its machine state, the
// return stack of nested sub-machines, and each machine's operands.
type ioOp struct {
	k    *Kernel
	slot int32
	gen  uint32

	state opState // opFreed while the op is in the pool
	sp    int8
	stack [6]opState // return states of the nested machines, innermost last

	// Result registers: err is every machine's outcome, data a fault's
	// page (aliasing its cache frame), n the operation's byte count.
	err  error
	data []byte
	n    int64

	// Read and write loops: the file, buffer and offset; want bytes in
	// all, got so far; the current page, the offset within it and the
	// bytes it contributes. advance moves the file cursor by the result
	// (Read, Write); copyCharge charges the user copy (read, not mmap).
	f                  *File
	p                  []byte
	off, want, got     int64
	page, inPage, span int64
	advance            bool
	copyCharge         bool

	// Fault: the demanded page, the pages the request needs from it
	// onward, the cluster's length and the next page to insert.
	fPage, wantPages, run, q int64

	// Insert: the page, its frame and dirty bit.
	ikey   cache.Key
	ibuf   []byte
	idirty bool

	// Write-back: the page being written.
	wb wbItem

	// Device access: what to issue, whether its time is charged as I/O
	// wait (with jitter), the attempt count and the start instant.
	acc     devAccess
	charged bool
	attempt int
	before  simclock.Duration
}

// call enters the sub-machine at state sub; its ret resumes at next.
func (op *ioOp) call(sub, next opState) {
	op.stack[op.sp] = next
	op.sp++
	op.state = sub
}

// ret finishes a sub-machine, resuming its caller.
func (op *ioOp) ret() {
	op.sp--
	op.state = op.stack[op.sp]
}

// newOp takes an op from the pool (growing it when every op is in use),
// set to enter the machine at state start and finish at opEnd.
//
//sledlint:hotpath
func (k *Kernel) newOp(start opState) *ioOp {
	var op *ioOp
	if n := len(k.opFree); n > 0 {
		op = k.ops[k.opFree[n-1]]
		k.opFree = k.opFree[:n-1]
	} else {
		//sledlint:allow hotalloc -- pool growth: runs only while the number of in-flight ops climbs to a new high, never in steady state
		op = &ioOp{k: k, slot: int32(len(k.ops))}
		k.ops = append(k.ops, op)
	}
	op.call(start, opEnd)
	return op
}

// freeOp returns an op to the pool, zeroed so it holds no references and
// its state reads opFreed; its generation advances past every IOStep that
// named it.
//
//sledlint:allow panicpath -- pool invariant: a double free is a kernel bug, not a simulation outcome
func (k *Kernel) freeOp(op *ioOp) {
	if op.state == opFreed {
		panic("vfs: I/O op freed twice")
	}
	*op = ioOp{k: k, slot: op.slot, gen: op.gen + 1}
	k.opFree = append(k.opFree, op.slot)
}

// run drives op's machine from its current state until it suspends on a
// device or finishes; devErr is the outcome of the device request a
// suspended op is resumed with. A panic out of the machine releases the op
// before it propagates.
//
//sledlint:hotpath
//sledlint:allow panicpath -- running a pooled op is a use after free, an engine bug
func (k *Kernel) run(op *ioOp, devErr error) (s IOStep) {
	defer k.releaseUnwound(op, &s)
	for {
		switch op.state {
		case opRead:
			op.read()
		case opReadFaulted:
			op.readFaulted()
		case opWrite:
			op.write()
		case opWriteInserted:
			op.writeInserted()
		case opWriteFaulted:
			op.writeFaulted()
		case opFault:
			op.fault()
		case opFaultRead:
			op.faultRead()
		case opFaultInsert:
			op.faultInsert()
		case opFaultInserted:
			op.faultInserted()
		case opInsert:
			op.insert()
		case opDrain:
			op.drain()
		case opDrained:
			k.recycleFrame(op.wb.data)
			op.wb = wbItem{}
			op.state = opDrain
		case opWriteBack:
			op.writeBack()
		case opWrittenBack:
			op.writtenBack()
		case opAccess:
			op.attempt = 0
			if op.charged {
				op.before = k.Clock.Now()
			}
			op.state = opTry
		case opTry:
			op.attempt++
			op.state = opOutcome
			devErr = op.issue()
			if errors.Is(devErr, ErrBlocked) {
				return IOStep{op: op, gen: op.gen, blocked: true}
			}
		case opOutcome:
			op.outcome(devErr)
		case opEnd:
			s = IOStep{n: op.n, err: op.err}
			if op.advance {
				op.f.pos += op.n
			}
			k.freeOp(op)
			return s
		default: // opFreed
			panic("vfs: running a recycled I/O op")
		}
	}
}

// releaseUnwound returns op to the pool when a panic unwound run: the op
// neither suspended (run's step s is blocked) nor finished (opEnd freed it).
func (k *Kernel) releaseUnwound(op *ioOp, s *IOStep) {
	if !s.blocked && op.state != opFreed {
		k.freeOp(op)
	}
}

// finish ends a read or write with its result.
func (op *ioOp) finish(n int64, err error) {
	op.n, op.err = n, err
	op.ret()
}

// issue runs one attempt of the op's device access. ErrBlocked means it
// suspended on a queued device.
func (op *ioOp) issue() error {
	k, a := op.k, &op.acc
	switch a.kind {
	case accStage:
		return k.stager.Fetch(a.ino, a.off, a.length)
	case accWrite:
		return device.WriteErr(a.dev, k.Clock, a.off, a.length)
	default:
		return device.ReadErr(a.dev, k.Clock, a.off, a.length)
	}
}

// outcome handles one attempt's result per the kernel's retry policy:
// faults are counted, observed and retried after capped exponential
// backoff, and a policy that gives up surfaces a wrapped ErrIO. A charged
// access then accounts its jitter-perturbed elapsed time (queueing,
// service, retries and backoff included) as I/O wait.
func (op *ioOp) outcome(err error) {
	k := op.k
	if err != nil {
		if f := asFault(err); f != nil {
			k.stats.DeviceFaults++
			if k.faultObs != nil {
				k.faultObs(f)
			}
			pol := k.cfg.Retry.withDefaults()
			if pol.FailFast || op.attempt >= pol.MaxAttempts {
				k.stats.EIOs++
				err = fmt.Errorf("vfs: device %d (%s fault, %d attempt(s)): %w", f.Dev, f.Class, op.attempt, ErrIO)
			} else {
				back := pol.backoffBefore(op.attempt + 1)
				k.Clock.Advance(back)
				k.stats.Retries++
				k.stats.RetryWait += back
				op.state = opTry
				return
			}
		}
	}
	if op.charged {
		dt := k.Clock.Now() - op.before
		if k.jitter != nil && dt > 0 {
			perturbed := k.jitter.Perturb(dt)
			if perturbed > dt {
				k.Clock.Advance(perturbed - dt)
				dt = perturbed
			}
		}
		k.stats.IOWait += dt
	}
	op.err = err
	op.ret()
}

// asFault returns the *device.Fault in err's chain, or nil. It is kept
// out of line so the variable errors.As writes through escapes only on
// the fault path.
func asFault(err error) *device.Fault {
	var f *device.Fault
	if errors.As(err, &f) {
		return f
	}
	return nil
}

// access calls the device-access machine for a, charged or not, resuming
// at next.
func (op *ioOp) access(a devAccess, charged bool, next opState) {
	op.acc = a
	op.charged = charged
	op.call(opAccess, next)
}

// wbItem is one dirty page waiting to be written back after eviction.
type wbItem struct {
	ino  *Inode
	page int64
	data []byte
}

// drain writes back the next evicted dirty page queued on the kernel, or
// returns when none is left. Eviction is asynchronous write-back —
// failures are accounted in WritebackEIOs and otherwise dropped. A
// written-back frame is recycled (opDrained): the write-back copied it
// into the file's content before issuing the device write.
func (op *ioOp) drain() {
	k := op.k
	if len(k.wb) == 0 {
		op.ret()
		return
	}
	op.wb = k.wb[0]
	n := copy(k.wb, k.wb[1:])
	k.wb[n] = wbItem{}
	k.wb = k.wb[:n]
	op.call(opWriteBack, opDrained)
}

// writeBack stores the page into the inode's content and writes it to the
// device, with retries per the kernel policy.
func (op *ioOp) writeBack() {
	w := &op.wb
	w.ino.content.WritePage(w.page, w.data)
	ps := int64(op.k.cfg.PageSize)
	op.access(devAccess{kind: accWrite, dev: op.k.Devices.Get(w.ino.dev), off: w.ino.extent + w.page*ps, length: int64(len(w.data))}, true, opWrittenBack)
}

// writtenBack accounts the page write's outcome.
func (op *ioOp) writtenBack() {
	if op.err != nil {
		op.k.stats.WritebackEIOs++
	} else {
		op.k.stats.PagesWrittenDev++
	}
	op.ret()
}

// insert puts ikey into the cache, making room first: victims are evicted
// one at a time and their dirty pages written back (suspending as needed)
// before the new page goes in. This preserves the cache state the
// blocking engine exposed mid-write-back — the victim gone, the new page
// not yet resident — so concurrent streams observe identical residency.
func (op *ioOp) insert() {
	c := op.k.cache
	if !c.Contains(op.ikey) && c.Len() >= c.Cap() {
		if err := c.EvictOne(); err != nil {
			op.err = fmt.Errorf("cache: inserting file %d page %d: %w", op.ikey.File, op.ikey.Page, err)
			op.ret()
			return
		}
		op.call(opDrain, opInsert)
		return
	}
	old, resident := c.Peek(op.ikey)
	op.err = c.Insert(op.ikey, op.ibuf, op.idirty)
	if resident {
		// Another stream put the page in while this op waited on a device:
		// this op's frame replaces it, and nothing else references the old.
		op.k.recycleFrame(old)
	}
	op.ret()
}

// insertPage inserts a page synchronously (the prefetch path).
func (k *Kernel) insertPage(key cache.Key, data []byte, dirty bool) error {
	op := k.newOp(opInsert)
	op.ikey, op.ibuf, op.idirty = key, data, dirty
	_, err := mustComplete(k.run(op, nil), "cache insert")
	return err
}

// drainWritebacksSync writes back queued evictions on the synchronous
// paths (invalidation, file removal).
func (k *Kernel) drainWritebacksSync() {
	if len(k.wb) == 0 {
		return
	}
	_, _ = mustComplete(k.run(k.newOp(opDrain), nil), "eviction write-back")
}

// deviceAccess runs one logical device access with the kernel's retry
// policy: device faults are counted, reported to the fault observer, and
// retried after capped exponential backoff (in virtual time, charged to
// the current clock); when the policy gives up the access fails with a
// wrapped ErrIO. Non-fault errors pass through untouched. Its time is not
// charged as I/O wait (the prefetch path runs it on a background clock).
func (k *Kernel) deviceAccess(a devAccess) error {
	op := k.newOp(opAccess)
	op.acc = a
	_, err := mustComplete(k.run(op, nil), "device access")
	return err
}

// writePageToDevice stores page data into the inode's content and charges
// the device write, with retries per the kernel policy — the synchronous
// write-back used by sync(2)-family paths.
func (k *Kernel) writePageToDevice(ino *Inode, page int64, data []byte) error {
	op := k.newOp(opWriteBack)
	op.wb = wbItem{ino: ino, page: page, data: data}
	_, err := mustComplete(k.run(op, nil), "page write-back")
	return err
}
