// Package iosched adds multi-stream concurrency to the simulated storage
// stack: simulated processes ("streams") that submit I/O concurrently in
// virtual time, per-device request queues with pluggable scheduling
// policies, and the queueing state feed that makes SLED estimates
// load-aware (internal/core's Load interface).
//
// The paper's evaluation is single-process, but its §4/§6 discussion makes
// clear that SLED estimates must reflect dynamic conditions; under
// contention the dominant latency source is queueing, which this package
// makes visible to both the simulator and the sleds table.
//
// # Determinism
//
// The engine is a discrete-event simulator: exactly one stream executes at
// a time, and the engine always processes the lowest-timestamped pending
// event from a global event heap. Events at equal virtual time are ordered
// resume-before-dispatch, then by stream ID (resumes) or device ID
// (dispatches). Native streams are explicit state machines (Program), not
// goroutines: a stream that issues I/O against a queued device suspends as
// a continuation (vfs.IOStep) holding the in-progress kernel operation,
// and the engine resumes it with the dispatch outcome when the device
// completes the request. Program execution is single-threaded by
// construction, and the per-stream cost is one heap entry plus one
// continuation instead of a parked goroutine stack, which is what makes
// 10,000-stream runs practical.
//
// Blocking stream code that predates the Program model (application code
// shared with the single-process paths) rides the same heap through
// AddStreamFunc: each such stream runs on a private goroutine with a
// strict cooperative handoff — the engine hands control to one goroutine
// and waits for it to block or finish before touching any state. Either
// way execution is sequential, race-free, and byte-identical on every run
// at any GOMAXPROCS.
package iosched

import (
	"errors"
	"fmt"

	"sleds/internal/device"
	"sleds/internal/simclock"
	"sleds/internal/vfs"
)

// StreamID identifies one simulated process within an Engine.
type StreamID int

// streamState is the lifecycle of one stream.
type streamState int

const (
	stateUnstarted streamState = iota
	stateBlocked               // waiting for a request completion
	stateSleeping              // waiting for a timer
	stateDone
)

// stream is the engine-side record of one simulated process: its program,
// its clock, and — while blocked — the suspended kernel operation and the
// request whose completion resumes it. Exactly one of prog and fn is set:
// prog streams are state machines driven by the engine's op loop, fn
// streams are blocking closures on a private goroutine bridged through
// resume (engine → stream: granted virtual time) and Engine.bridge
// (stream → engine: what it blocked on).
type stream struct {
	id     StreamID
	h      Handle            // passed to every Step (and to fn)
	clock  simclock.Clock    // the stream's virtual time; Run resets it
	start  simclock.Duration // virtual start offset from the engine base
	prog   Program
	fn     func(h *Handle) error
	resume chan simclock.Duration // engine -> stream, fn streams only
	state  streamState
	wakeAt simclock.Duration // next resume time while unstarted/sleeping
	cont   vfs.IOStep        // the suspended operation, valid when blocked
	req    *Request          // the queued/in-flight request, valid when blocked
	hedge  hedgeState        // the in-progress hedged read, valid when hedge.primary != nil
	res    Result            // outcome fed to the next Step call
	finish simclock.Duration // clock at completion, valid when done
	err    error
}

// hedgeState is a Program stream's in-progress hedged read (the HedgedDev-
// Read op): the primary request, the standby secondary target, and — once
// the virtual-time deadline fires — the secondary request racing the
// primary. The first completion wins; settleHedge cancels the loser. The
// zero value means no hedged read is in progress.
type hedgeState struct {
	primary      *Request
	secondaryDev device.ID
	secOff       int64 // the secondary's device offset (replicas may differ)
	length       int64
	secondary    *Request // non-nil once the deadline fired
	fired        bool
}

// bridgeEvent is what a running fn stream reports back to the engine when
// it stops executing: it submitted a request, went to sleep, or finished.
type bridgeEvent struct {
	stream   StreamID
	req      *Request          // non-nil: submitted and blocked
	wake     simclock.Duration // valid when sleeping
	sleeping bool
	finished bool
	err      error
}

// devQueue is the engine-side state of one queued device.
type devQueue struct {
	id    device.ID
	dev   device.Device // the unwrapped underlying device
	sched Scheduler

	clock        *simclock.Clock // the device's own service timeline
	free         simclock.Duration
	busy         bool
	inflight     *Request
	inflightDone simclock.Duration
	lastPos      int64             // offset one past the last serviced request
	dispatchUp   bool              // a dispatch event for this device is live on the heap
	dispatchAt   simclock.Duration // the live dispatch event's time, valid when dispatchUp

	// cancelledQueued counts requests cancelled while still queued (hedge
	// losers). They stay in the scheduler until a dispatch surfaces and
	// drops them, so QueueDepth subtracts them to keep load estimates
	// honest.
	cancelledQueued int
}

// Engine coordinates streams and device queues over one shared kernel.
//
// Requests are recycled through a pool: reqs holds every request the
// engine has allocated, indexed by its slot, and free lists the slots not
// in use. A request is taken from the pool at submission and returned
// when nothing can reach it any more — when its stream consumes the
// completion, when a cancelled hedge loser completes or is dropped at
// dispatch, when an fn stream has read its outcome, or when a stream
// panics with its submission still pending. Schedulers give requests up
// at Pick (see Scheduler), and events name requests by slot and seq, so
// a stale reference can never mistake a reused slot for its old request.
type Engine struct {
	k       *vfs.Kernel
	queues  []*devQueue // indexed by device ID; nil for unqueued devices
	streams []*stream
	heap    eventHeap
	bridge  chan bridgeEvent // fn stream -> engine
	seq     uint64
	running bool
	current StreamID
	base    simclock.Duration
	pending *Request // handoff from QueuedDevice.submit to the op loop
	events  uint64   // events popped across all Runs, for benchmarks

	reqs []*Request // the request pool, indexed by Request.slot
	free []int32    // slots of pooled requests, reused last-in first-out

	// orphanObs, when set, observes cancelled hedge losers that completed
	// with an error after losing the race (see SetOrphanObserver).
	orphanObs func(dev device.ID, err error, at simclock.Duration)
}

// poisonFreed makes freeReq overwrite every recycled request with values
// that any later use trips over (an out-of-range device, a stream ID of
// -1, an error no device returns). The package's tests turn it on; it
// costs one predictable branch per free otherwise.
var poisonFreed bool

// errFreedRequest is the outcome a poisoned request carries: a stream
// that reports it read a request after the engine had recycled it.
var errFreedRequest = errors.New("iosched: use of a recycled request")

// NewEngine returns an engine over the kernel's devices. Wrap devices with
// Queue, add streams with AddStream or AddStreamFunc, then call Run.
func NewEngine(k *vfs.Kernel) *Engine {
	return &Engine{
		k:      k,
		bridge: make(chan bridgeEvent),
	}
}

// queue returns the queue of device id, or nil if it is not queued.
func (e *Engine) queue(id device.ID) *devQueue {
	if uint(id) < uint(len(e.queues)) {
		return e.queues[id]
	}
	return nil
}

// Queue interposes a request queue with the given scheduler on the device
// registered under id. The wrapper satisfies device.Device, so the VFS and
// the cache work unchanged; outside Run it passes accesses straight
// through (boot-time calibration and setup I/O see the raw device).
//
//sledlint:allow panicpath -- setup-phase API misuse, before any simulated I/O runs
func (e *Engine) Queue(id device.ID, sched Scheduler) {
	if e.running {
		panic("iosched: Queue called while running")
	}
	if e.queue(id) != nil {
		panic(fmt.Sprintf("iosched: device %d already queued", id))
	}
	raw := e.k.Devices.Get(id)
	dq := &devQueue{id: id, dev: raw, sched: sched, clock: simclock.New()}
	for int(id) >= len(e.queues) {
		e.queues = append(e.queues, nil)
	}
	e.queues[id] = dq
	e.k.Devices.Replace(id, &QueuedDevice{e: e, dq: dq})
}

// AddStream registers a simulated process that begins executing start
// after the engine's base time. The program runs against the shared
// kernel; every kernel call it makes is charged to the stream's own
// virtual clock. Streams are resumed in (virtual time, StreamID) order.
//
//sledlint:allow panicpath -- setup-phase API misuse, before any simulated I/O runs
func (e *Engine) AddStream(start simclock.Duration, prog Program) StreamID {
	if e.running {
		panic("iosched: AddStream called while running")
	}
	st := e.addStream(start)
	st.prog = prog
	return st.id
}

// AddStreamFunc registers a simulated process written as a blocking
// closure. The closure runs on a private goroutine under a strict
// cooperative handoff: when it touches a queued device the goroutine
// parks inside the access until the engine dispatches and completes the
// request, so blocking application code shared with the single-process
// paths runs unchanged. Code that can be expressed as a Program should
// use AddStream: a Program stream costs a heap entry instead of a
// goroutine stack.
//
//sledlint:allow panicpath -- setup-phase API misuse, before any simulated I/O runs
func (e *Engine) AddStreamFunc(start simclock.Duration, fn func(h *Handle) error) StreamID {
	if e.running {
		panic("iosched: AddStreamFunc called while running")
	}
	st := e.addStream(start)
	st.fn = fn
	st.resume = make(chan simclock.Duration)
	return st.id
}

// addStream appends a stream record with its handle and clock.
func (e *Engine) addStream(start simclock.Duration) *stream {
	id := StreamID(len(e.streams))
	st := &stream{id: id, start: start}
	st.h = Handle{e: e, k: e.k, id: id}
	e.streams = append(e.streams, st)
	return st
}

// SetOrphanObserver registers a callback for faults surfaced by cancelled
// hedge losers: a loser already being serviced when the race settled
// completes unclaimed, and if that completion carries an error no stream
// ever sees it — the winner masked it. Real clients still log the late
// RPC failure, and health accounting wants it (a degraded replica that
// always loses its races would otherwise never be demoted). The observer
// runs at the loser's completion instant. Losers dropped while still
// queued were never sent, so they are not reported.
//
//sledlint:allow panicpath -- setup-phase API misuse, before any simulated I/O runs
func (e *Engine) SetOrphanObserver(fn func(dev device.ID, err error, at simclock.Duration)) {
	if e.running {
		panic("iosched: SetOrphanObserver called while running")
	}
	e.orphanObs = fn
}

// Run executes all streams to completion in deterministic virtual-time
// order and returns the first error by stream ID. The kernel's clock is
// advanced to the latest stream finish time before returning, and the
// kernel is left usable for single-stream code again.
func (e *Engine) Run() error {
	if e.running {
		panic("iosched: Run re-entered") //sledlint:allow panicpath -- engine misuse, not a simulation outcome
	}
	if len(e.streams) == 0 {
		return nil
	}
	e.running = true
	mainClock := e.k.Clock
	e.base = mainClock.Now()
	e.heap.s = e.heap.s[:0]
	for _, dq := range e.queues {
		if dq == nil {
			continue
		}
		dq.clock.AdvanceTo(e.base)
		dq.free = e.base
		dq.busy = false
		dq.inflight = nil
		dq.dispatchUp = false
		dq.cancelledQueued = 0
	}
	for _, st := range e.streams {
		st.clock = simclock.Clock{}
		st.clock.AdvanceTo(e.base + st.start)
		st.state = stateUnstarted
		st.wakeAt = e.base + st.start
		st.cont = vfs.IOStep{}
		st.req = nil
		st.hedge = hedgeState{}
		st.res = Result{}
		st.err = nil
		if st.fn != nil {
			e.launch(st)
		}
		e.heap.push(engineEvent{time: st.wakeAt, kind: evResume, id: int32(st.id)})
	}

	for e.heap.len() > 0 {
		ev := e.heap.pop()
		e.events++
		switch ev.kind {
		case evResume:
			st := e.streams[ev.id]
			if ev.seq != 0 {
				// A completion event: free the device whatever happens to
				// the stream.
				r := e.reqs[ev.slot]
				if r.seq+1 != ev.seq {
					panic("iosched: completion of a recycled request") //sledlint:allow panicpath -- pool invariant: a request is recycled only after its completion pops
				}
				e.retireReq(r)
				if r.cancelled {
					// A hedge loser: nobody is waiting on it, but a fault it
					// surfaced is still real — report it to the observer so
					// health accounting sees failures the race masked.
					if r.Err != nil && e.orphanObs != nil {
						e.orphanObs(r.Dev, r.Err, ev.time)
					}
					e.freeReq(r)
					continue
				}
				if st.hedge.primary != nil {
					e.settleHedge(st, r)
				}
			}
			if st.fn != nil {
				e.runFuncStream(st, ev.time)
				continue
			}
			e.runStream(st, ev.time)
		case evHedge:
			e.fireHedge(e.streams[ev.id], ev.seq, ev.time)
		case evDispatch:
			dq := e.queues[ev.id]
			if !dq.dispatchUp || ev.time != dq.dispatchAt {
				continue // superseded by an earlier-arriving submission
			}
			e.dispatch(dq, ev.time)
		}
	}
	for _, st := range e.streams {
		if st.state != stateDone {
			panic("iosched: no runnable event with streams outstanding") //sledlint:allow panicpath -- scheduler-deadlock invariant; faults ride events as errors
		}
	}

	var maxFinish simclock.Duration
	for _, st := range e.streams {
		if st.finish > maxFinish {
			maxFinish = st.finish
		}
	}
	mainClock.AdvanceTo(maxFinish)
	e.k.SetClock(mainClock)
	e.running = false
	for _, st := range e.streams {
		if st.err != nil {
			return st.err
		}
	}
	return nil
}

// newReq takes a request from the pool (growing it when every request is
// in use) and fills it in as stream's next submission, stamped with the
// next sequence number.
//
//sledlint:hotpath
func (e *Engine) newReq(stream StreamID, dev device.ID, off, length int64, write bool, arrival simclock.Duration) *Request {
	var r *Request
	if n := len(e.free); n > 0 {
		r = e.reqs[e.free[n-1]]
		e.free = e.free[:n-1]
	} else {
		//sledlint:allow hotalloc -- pool growth: runs only while concurrency climbs to a new high, never in steady state
		r = &Request{slot: int32(len(e.reqs))}
		e.reqs = append(e.reqs, r)
	}
	*r = Request{
		Stream:  stream,
		Dev:     dev,
		Off:     off,
		Length:  length,
		Write:   write,
		Arrival: arrival,
		seq:     e.seq,
		slot:    r.slot,
		hidx:    -1,
	}
	e.seq++
	return r
}

// freeReq returns a request to the pool. The caller must hold the last
// reference the engine keeps to it.
//
//sledlint:allow panicpath -- pool invariant: a double free is an engine bug, not a simulation outcome
func (e *Engine) freeReq(r *Request) {
	if r.pooled {
		panic("iosched: request freed twice")
	}
	if poisonFreed {
		*r = Request{Stream: -1, Dev: -1, Off: -1, Length: -1, Err: errFreedRequest, seq: ^uint64(0) - 1, slot: r.slot, hidx: -1}
	}
	r.pooled = true
	e.free = append(e.free, r.slot)
}

// retireReq returns a completed request's device to idle and, if requests
// are waiting there, queues the next dispatch. The next dispatch lands at
// the same instant but after every same-instant resume, so a request
// submitted "now" by a just-resumed stream is visible to the scheduler
// deciding "now" — as under the goroutine engine.
//
//sledlint:hotpath
func (e *Engine) retireReq(r *Request) {
	dq := e.queues[r.Dev]
	dq.busy = false
	dq.free = dq.inflightDone
	dq.lastPos = r.Off + r.Length
	dq.inflight = nil
	e.maybeDispatch(dq)
}

// settleHedge resolves a stream's hedged read with the request that
// completed first: the loser (if any) is cancelled — dropped at its next
// dispatch if still queued, or left to finish as an unclaimed completion
// if already occupying its device (a real cancellation cannot recall a
// request the server is servicing) — and the winner's outcome becomes the
// stream's next Result. The winner goes back to the pool; the loser
// follows when it completes or is dropped.
func (e *Engine) settleHedge(st *stream, winner *Request) {
	hs := &st.hedge
	loser := hs.secondary
	if winner != hs.primary {
		loser = hs.primary
	}
	if loser != nil {
		loser.cancelled = true
		if lq := e.queues[loser.Dev]; lq.inflight != loser {
			lq.cancelledQueued++
		}
	}
	st.res = Result{Err: winner.Err, Dev: winner.Dev, HedgeFired: hs.fired}
	*hs = hedgeState{}
	e.freeReq(winner)
}

// fireHedge handles a hedge deadline expiring: if the guarded read is
// still outstanding, the secondary request is submitted to its device with
// the deadline instant as its arrival. A deadline whose read already
// completed (or that already fired) is stale and ignored; primarySeq (the
// guarded request's seq + 1) tells it from a later hedged read of the same
// stream, which may well reuse the same pooled request.
func (e *Engine) fireHedge(st *stream, primarySeq uint64, t simclock.Duration) {
	hs := &st.hedge
	if hs.primary == nil || hs.primary.seq+1 != primarySeq || hs.fired {
		return
	}
	sq := e.queue(hs.secondaryDev)
	if sq == nil {
		return // unqueued secondary: nothing to race the primary against
	}
	r := e.newReq(st.id, hs.secondaryDev, hs.secOff, hs.length, false, t)
	hs.fired = true
	hs.secondary = r
	sq.sched.Add(r)
	e.maybeDispatch(sq)
}

// maybeDispatch queues a dispatch event for an idle device with waiting
// requests, at the instant the device can next start one. Streams advance
// their own clocks between resuming and submitting, so a submission
// processed later can still carry an earlier arrival and pull the dispatch
// instant forward: the earlier event is pushed alongside the stale one,
// dispatchAt marks which is live, and the loop drops the superseded pop.
//
//sledlint:hotpath
func (e *Engine) maybeDispatch(dq *devQueue) {
	if dq.busy || dq.sched.Len() == 0 {
		return
	}
	t, _ := dq.sched.MinArrival()
	if t < dq.free {
		t = dq.free
	}
	if dq.dispatchUp && dq.dispatchAt <= t {
		return
	}
	dq.dispatchUp = true
	dq.dispatchAt = t
	e.heap.push(engineEvent{time: t, kind: evDispatch, id: int32(dq.id)})
}

// runStream executes one stream from virtual time t until it suspends on
// a request, sleeps, or finishes: first resuming the suspended operation
// with its request's outcome (if the stream was blocked), then pulling Ops
// from the program.
func (e *Engine) runStream(st *stream, t simclock.Duration) {
	st.clock.AdvanceTo(t)
	e.current = st.id
	e.k.SetClock(&st.clock)

	var step vfs.IOStep
	haveStep := false
	if st.state == stateBlocked {
		// A resolved hedged read left its outcome in st.res (settleHedge)
		// and has no kernel continuation — the hedged access is a raw
		// device op — so it falls through to the next Step call.
		if r := st.req; r != nil {
			devErr := r.Err
			st.req = nil
			e.freeReq(r)
			cont := st.cont
			st.cont = vfs.IOStep{}
			if !e.protect(st, func() { step = cont.Resume(devErr) }) {
				return
			}
			haveStep = true
		}
	}

	for {
		if haveStep {
			haveStep = false
			if step.Blocked() {
				r := e.pending
				if r == nil {
					panic("iosched: operation suspended without a submitted request") //sledlint:allow panicpath -- resumable-layer invariant: ErrBlocked implies a registered request
				}
				e.pending = nil
				st.state = stateBlocked
				st.cont = step
				st.req = r
				dq := e.queues[r.Dev]
				dq.sched.Add(r)
				e.maybeDispatch(dq)
				return
			}
			st.res = Result{N: int(step.N()), Err: step.Err()}
		}
		var op Op
		if !e.protect(st, func() { op = st.prog.Step(&st.h, st.res) }) {
			return
		}
		switch op.kind {
		case opExit:
			st.state = stateDone
			st.finish = st.clock.Now()
			st.err = op.err
			return
		case opSleep:
			if op.sleep < 0 {
				st.state = stateDone
				st.finish = st.clock.Now()
				st.err = fmt.Errorf("iosched: stream %d panicked: iosched: negative sleep %v", st.id, op.sleep)
				return
			}
			st.state = stateSleeping
			st.wakeAt = st.clock.Now() + op.sleep
			e.heap.push(engineEvent{time: st.wakeAt, kind: evResume, id: int32(st.id)})
			return
		case opHedge:
			if op.hedge.delay < 0 {
				st.state = stateDone
				st.finish = st.clock.Now()
				st.err = fmt.Errorf("iosched: stream %d panicked: iosched: negative hedge delay %v", st.id, op.hedge.delay)
				return
			}
			dq := e.queue(op.dev)
			if dq == nil {
				// An unqueued primary completes in place (as in deviceStep
				// outside a queue): nothing to hedge against.
				err := device.ReadErr(e.k.Devices.Get(op.dev), &st.clock, op.off, op.length)
				st.res = Result{Err: err, Dev: op.dev}
				continue
			}
			r := e.newReq(st.id, op.dev, op.off, op.length, false, st.clock.Now())
			st.state = stateBlocked
			st.hedge = hedgeState{primary: r, secondaryDev: op.hedge.secondary, secOff: op.hedge.secOff, length: op.length}
			dq.sched.Add(r)
			e.maybeDispatch(dq)
			e.heap.push(engineEvent{time: st.clock.Now() + op.hedge.delay, kind: evHedge, id: int32(st.id), seq: r.seq + 1})
			return
		default:
			if !e.protect(st, func() { step = op.startIO(e.k) }) {
				return
			}
			haveStep = true
		}
	}
}

// launch starts an fn stream's goroutine. It parks immediately on the
// resume channel; the engine releases it (and every later wake) from
// runFuncStream, so at most one stream executes at any moment.
func (e *Engine) launch(st *stream) {
	go func() {
		<-st.resume
		err := func() (err error) {
			defer func() {
				if p := recover(); p != nil {
					err = fmt.Errorf("iosched: stream %d panicked: %v", st.id, p)
				}
			}()
			return st.fn(&st.h)
		}()
		e.bridge <- bridgeEvent{stream: st.id, finished: true, err: err}
	}()
}

// runFuncStream hands control to one fn stream at virtual time t and
// blocks until it submits a request, sleeps, or finishes — the same
// cooperative handoff the goroutine engine used, with the outcome folded
// back into heap events.
func (e *Engine) runFuncStream(st *stream, t simclock.Duration) {
	st.req = nil
	e.current = st.id
	e.k.SetClock(&st.clock)
	st.resume <- t
	ev := <-e.bridge
	if ev.stream != st.id {
		panic("iosched: event from a stream that was not running") //sledlint:allow panicpath -- cooperative-handoff invariant
	}
	switch {
	case ev.finished:
		st.state = stateDone
		st.finish = st.clock.Now()
		st.err = ev.err
	case ev.sleeping:
		st.state = stateSleeping
		st.wakeAt = ev.wake
		e.heap.push(engineEvent{time: st.wakeAt, kind: evResume, id: int32(st.id)})
	default:
		st.state = stateBlocked
		st.req = ev.req
		dq := e.queues[ev.req.Dev]
		dq.sched.Add(ev.req)
		e.maybeDispatch(dq)
	}
}

// protect runs one slice of stream code, converting a panic into stream
// failure so one broken stream cannot take down the engine. A request the
// slice submitted before panicking goes back to the pool. Reports whether
// fn completed normally.
func (e *Engine) protect(st *stream, fn func()) (ok bool) {
	defer func() {
		if p := recover(); p != nil {
			if e.pending != nil {
				e.freeReq(e.pending)
				e.pending = nil
			}
			st.state = stateDone
			st.finish = st.clock.Now()
			st.err = fmt.Errorf("iosched: stream %d panicked: %v", st.id, p)
		}
	}()
	fn()
	return true
}

// dispatch starts servicing the scheduler's pick on an idle device at
// virtual time t, running the underlying device model on the device's own
// timeline. A fault from the underlying device (a stacked faults.Injector)
// rides back to the submitting stream in r.Err; the failed attempt still
// occupies the device for the time it cost.
//
//sledlint:hotpath
func (e *Engine) dispatch(dq *devQueue, t simclock.Duration) {
	dq.dispatchUp = false
	var r *Request
	for {
		r = dq.sched.Pick(t, dq.lastPos)
		if r == nil {
			panic("iosched: dispatch with no eligible request") //sledlint:allow panicpath -- Scheduler.Pick contract: a non-idle queue must yield a request
		}
		if !r.cancelled {
			break
		}
		// A hedge loser cancelled while still queued: drop it without
		// occupying the device, and recycle it. If the drop empties the
		// eligible set, the remaining arrivals are in the future — let
		// maybeDispatch requeue at the right instant.
		dq.cancelledQueued--
		e.freeReq(r)
		if dq.sched.Len() == 0 {
			return
		}
		if ta, _ := dq.sched.MinArrival(); ta > t {
			e.maybeDispatch(dq)
			return
		}
	}
	dq.clock.AdvanceTo(t)
	if r.Write {
		r.Err = device.WriteErr(dq.dev, dq.clock, r.Off, r.Length)
	} else {
		r.Err = device.ReadErr(dq.dev, dq.clock, r.Off, r.Length)
	}
	dq.busy = true
	dq.inflight = r
	dq.inflightDone = dq.clock.Now()
	e.heap.push(engineEvent{time: dq.inflightDone, kind: evResume, id: int32(r.Stream), slot: r.slot, seq: r.seq + 1})
}

// submit is called from inside a running stream (via a QueuedDevice) to
// register a request with the engine. For a Program stream the access does
// not complete here: the caller gets vfs.ErrBlocked, the resumable layer
// captures the operation as a continuation, and the engine feeds the
// dispatch outcome back in at completion time. For an fn stream the
// calling goroutine parks until the request completes and the real
// outcome is returned, so blocking code never sees vfs.ErrBlocked; the
// goroutine recycles the request once it has read the outcome.
func (e *Engine) submit(c *simclock.Clock, dev device.ID, off, length int64, write bool) error {
	st := e.streams[e.current]
	r := e.newReq(st.id, dev, off, length, write, c.Now())
	if st.fn != nil {
		e.bridge <- bridgeEvent{stream: st.id, req: r}
		granted := <-st.resume
		c.AdvanceTo(granted)
		err := r.Err
		e.freeReq(r)
		return err
	}
	if e.pending != nil {
		panic("iosched: overlapping queued submissions in one op step") //sledlint:allow panicpath -- resumable-layer invariant: one suspension per step
	}
	e.pending = r
	return vfs.ErrBlocked
}

// Events reports the number of events the engine has popped from its heap,
// summed over every Run: stream starts and sleep wakes, request
// completions, hedge deadlines (stale ones included — a deadline whose
// read finished first is popped and dropped), and device dispatches
// (superseded ones included). It is the work metric the events/sec
// benchmarks rate.
func (e *Engine) Events() uint64 { return e.events }

// FinishTime reports a stream's virtual completion instant (meaningful
// after Run).
func (e *Engine) FinishTime(id StreamID) simclock.Duration {
	return e.streams[id].finish
}

// Base reports the virtual time Run started from.
func (e *Engine) Base() simclock.Duration { return e.base }

// QueueDepth implements core.Load: the number of requests waiting (not
// yet dispatched) at the device, excluding cancelled hedge losers that
// will be dropped, not serviced. Unqueued devices report 0.
func (e *Engine) QueueDepth(id device.ID) int {
	dq := e.queue(id)
	if dq == nil {
		return 0
	}
	return dq.sched.Len() - dq.cancelledQueued
}

// InFlightRemaining implements core.Load: the remaining service time of
// the request the device is currently working on, as seen from virtual
// time now. Idle or unqueued devices report 0.
func (e *Engine) InFlightRemaining(id device.ID, now simclock.Duration) simclock.Duration {
	dq := e.queue(id)
	if dq == nil || !dq.busy {
		return 0
	}
	rem := dq.inflightDone - now
	if rem < 0 {
		rem = 0
	}
	return rem
}

// QueuedDevice wraps a device with the engine's request queue. It
// satisfies device.Device and device.FallibleDevice, so internal/vfs and
// internal/cache use it unchanged: during Run a fallible access registers
// a request and suspends the issuing operation (vfs.ErrBlocked); outside
// Run the wrapper is transparent. Stacking composes both ways — an
// Injector wrapped over a QueuedDevice faults at submission time (before
// queueing), a QueuedDevice over an Injector faults at dispatch time (the
// request occupies the device) — and errors propagate through either
// order.
type QueuedDevice struct {
	e  *Engine
	dq *devQueue
}

// Info implements device.Device.
func (q *QueuedDevice) Info() device.Info { return q.dq.dev.Info() }

// Read implements the infallible device path; like faults.Injector, it
// panics if the underlying device faults, because an infallible caller
// has no way to observe the error. During Run an infallible access cannot
// suspend, so it is also a panic; fault-aware code uses device.ReadErr,
// which every kernel path does.
//
//sledlint:allow panicpath -- documented infallible-wrapper contract; fallible callers use ReadErr
func (q *QueuedDevice) Read(c *simclock.Clock, off, length int64) {
	if q.e.running {
		panic("iosched: infallible Read on a queued device during Run; use a fallible access")
	}
	if err := q.ReadErr(c, off, length); err != nil {
		panic(fmt.Sprintf("iosched: infallible Read on a faulted device: %v", err))
	}
}

// Write implements the infallible device path; see Read.
//
//sledlint:allow panicpath -- documented infallible-wrapper contract; fallible callers use WriteErr
func (q *QueuedDevice) Write(c *simclock.Clock, off, length int64) {
	if q.e.running {
		panic("iosched: infallible Write on a queued device during Run; use a fallible access")
	}
	if err := q.WriteErr(c, off, length); err != nil {
		panic(fmt.Sprintf("iosched: infallible Write on a faulted device: %v", err))
	}
}

// ReadErr implements device.FallibleDevice.
func (q *QueuedDevice) ReadErr(c *simclock.Clock, off, length int64) error {
	if !q.e.running {
		return device.ReadErr(q.dq.dev, c, off, length)
	}
	return q.e.submit(c, q.dq.id, off, length, false)
}

// WriteErr implements device.FallibleDevice.
func (q *QueuedDevice) WriteErr(c *simclock.Clock, off, length int64) error {
	if !q.e.running {
		return device.WriteErr(q.dq.dev, c, off, length)
	}
	return q.e.submit(c, q.dq.id, off, length, true)
}

// Underlying returns the wrapped raw device.
func (q *QueuedDevice) Underlying() device.Device { return q.dq.dev }

// Reset implements device.Device: the underlying device's mechanical
// state and the queue position history are cleared. Resetting mid-run is
// a programming error.
//
//sledlint:allow panicpath -- mid-run Reset is engine misuse, not a fault outcome
func (q *QueuedDevice) Reset() {
	if q.e.running {
		panic("iosched: Reset while running")
	}
	q.dq.dev.Reset()
	q.dq.lastPos = 0
	q.dq.busy = false
	q.dq.inflight = nil
	q.dq.free = 0
	q.dq.cancelledQueued = 0
}
