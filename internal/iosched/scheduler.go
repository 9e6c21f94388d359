package iosched

import (
	"fmt"
	"sort"

	"sleds/internal/device"
	"sleds/internal/simclock"
)

// Request is one I/O request queued at a device: who asked, what extent,
// and when. Arrival is the submitting stream's virtual time at submission;
// Deadline is filled by deadline-aware schedulers.
type Request struct {
	Stream   StreamID
	Dev      device.ID
	Off      int64
	Length   int64
	Write    bool
	Arrival  simclock.Duration
	Deadline simclock.Duration

	// Err is the outcome of servicing the request: non-nil when the
	// underlying (fault-injected) device failed the dispatch. It travels
	// back to the submitting stream, whose kernel retry policy decides
	// whether to resubmit.
	Err error

	// seq is the engine-wide submission sequence number. Submission order
	// is itself deterministic (the engine runs streams in virtual-time,
	// stream-ID order), so seq is a stable final tie-break for schedulers.
	// Because the engine recycles requests, seq also tells one use of a
	// pooled request from the next: events that refer to a request carry
	// its seq, never only its address.
	seq uint64

	// slot is the request's index in the engine's request pool, fixed for
	// the life of the allocation; pooled marks a request on the free list.
	slot   int32
	pooled bool

	// hidx is the request's position in a scheduler's arrival heap (-1
	// when absent), so a request picked through an offset index leaves the
	// heap at once instead of lingering until it surfaces.
	hidx int32

	// cancelled marks a hedge loser: if still queued it is dropped when a
	// dispatch surfaces it; if already in flight it completes unclaimed
	// (the device time is spent, the stream has moved on).
	cancelled bool
}

// Scheduler is a pluggable per-device request scheduling policy. The
// engine owns exactly one scheduler instance per queued device; schedulers
// are not safe for concurrent use (the engine is strictly sequential).
//
// Determinism contract: Pick must break every tie by a deterministic key
// (never map order or pointer identity), so that identical submission
// sequences produce identical service orders on every run.
//
// Ownership contract: a scheduler holds a request from Add until Pick
// returns it, and keeps no reference to it afterwards. The engine
// recycles requests once they complete, so a pointer retained past Pick
// would later alias an unrelated request.
type Scheduler interface {
	// Name identifies the policy in reports ("fcfs", "sstf", "deadline").
	Name() string

	// Add queues a request.
	Add(r *Request)

	// Pick removes and returns the request to service next among those
	// with Arrival <= now, dropping every reference to it. pos is the
	// device byte offset one past the previously serviced request (the
	// head position proxy for seek-aware policies). Returns nil if no
	// queued request is eligible yet.
	Pick(now simclock.Duration, pos int64) *Request

	// Len reports the number of queued (not yet serviced) requests.
	Len() int

	// MinArrival reports the earliest arrival among queued requests; ok is
	// false when the queue is empty.
	MinArrival() (t simclock.Duration, ok bool)
}

// The engine dispatches only at instants no earlier than every queued
// arrival (event times are non-decreasing), so in engine use every queued
// request is eligible at Pick time and the indexed fast paths below always
// apply. The schedulers still honour the general contract — a Pick at an
// instant that predates some arrivals falls back to the same linear scans
// the policies were first written as, preserving their exact tie-breaks.

// arrivalLess is the (Arrival, seq) order shared by FCFS service order,
// MinArrival, and deadline expiry (Deadline = Arrival + constant quantum
// preserves it).
func arrivalLess(a, b *Request) bool {
	return a.Arrival < b.Arrival || (a.Arrival == b.Arrival && a.seq < b.seq)
}

// arrivalHeap is a binary min-heap of requests under arrivalLess. Each
// request records its position in hidx, so a request picked through an
// offset index is deleted from the heap immediately: the heap never holds
// a request the scheduler has handed back (see the ownership contract).
type arrivalHeap []*Request

func (h *arrivalHeap) push(r *Request) {
	*h = append(*h, r)
	h.up(len(*h)-1, r)
}

// min returns the earliest (Arrival, seq) request; nil if empty.
func (h arrivalHeap) min() *Request {
	if len(h) == 0 {
		return nil
	}
	return h[0]
}

// remove deletes r, which must be in the heap.
func (h *arrivalHeap) remove(r *Request) {
	s := *h
	i, last := int(r.hidx), len(s)-1
	moved := s[last]
	s[last] = nil
	s = s[:last]
	*h = s
	r.hidx = -1
	if i == last {
		return
	}
	// Fill the hole with the former last entry, sifting it whichever way
	// restores the order.
	if i > 0 && arrivalLess(moved, s[(i-1)/2]) {
		h.up(i, moved)
	} else {
		h.down(i, moved)
	}
}

// up places r into the hole at i, moving larger ancestors down.
func (h arrivalHeap) up(i int, r *Request) {
	for i > 0 {
		parent := (i - 1) / 2
		if !arrivalLess(r, h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].hidx = int32(i)
		i = parent
	}
	h[i] = r
	r.hidx = int32(i)
}

// down places r into the hole at i, moving smaller descendants up.
func (h arrivalHeap) down(i int, r *Request) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && arrivalLess(h[c+1], h[c]) {
			c++
		}
		if !arrivalLess(h[c], r) {
			break
		}
		h[i] = h[c]
		h[i].hidx = int32(i)
		i = c
	}
	h[i] = r
	r.hidx = int32(i)
}

// offIndex keeps queued requests sorted by (Off, seq), the key seek-aware
// policies pick by.
type offIndex []*Request

func offLess(a, b *Request) bool {
	return a.Off < b.Off || (a.Off == b.Off && a.seq < b.seq)
}

func (x *offIndex) insert(r *Request) {
	s := *x
	i := sort.Search(len(s), func(i int) bool { return !offLess(s[i], r) })
	s = append(s, nil)
	copy(s[i+1:], s[i:])
	s[i] = r
	*x = s
}

// remove deletes r, which must be present.
//
//sledlint:allow panicpath -- index desync is a scheduler bug, not a simulation outcome
func (x *offIndex) remove(r *Request) {
	s := *x
	i := sort.Search(len(s), func(i int) bool { return !offLess(s[i], r) })
	if i >= len(s) || s[i] != r {
		panic("iosched: request missing from offset index")
	}
	copy(s[i:], s[i+1:])
	s[len(s)-1] = nil
	*x = s[:len(s)-1]
}

// nearest returns the SSTF pick assuming every entry is eligible: minimum
// |Off - pos|, ties to the lower offset, then seq. The two candidates are
// the first request of the lowest-offset run at or above pos and the
// first request of the run just below it.
func (x offIndex) nearest(pos int64) *Request {
	i := sort.Search(len(x), func(i int) bool { return x[i].Off >= pos })
	var left, right *Request
	if i < len(x) {
		right = x[i] // first of its Off run: lowest seq at that offset
	}
	if i > 0 {
		lo := x[i-1].Off
		j := sort.Search(i, func(j int) bool { return x[j].Off >= lo })
		left = x[j]
	}
	switch {
	case right == nil:
		return left
	case left == nil:
		return right
	}
	dl := pos - left.Off  // > 0: left.Off < pos
	dr := right.Off - pos // >= 0
	if dr < dl {
		return right
	}
	// dl < dr, or a distance tie — which the lower offset (left) wins.
	return left
}

// nearestEligible is the general-case SSTF scan over arrivals <= now,
// with the same (distance, Off, seq) tie-break as nearest.
func (x offIndex) nearestEligible(now simclock.Duration, pos int64) *Request {
	var best *Request
	var bestDist int64
	for _, r := range x {
		if r.Arrival > now {
			continue
		}
		d := r.Off - pos
		if d < 0 {
			d = -d
		}
		if best == nil || d < bestDist ||
			(d == bestDist && (r.Off < best.Off ||
				(r.Off == best.Off && r.seq < best.seq))) {
			best, bestDist = r, d
		}
	}
	return best
}

// FCFS services requests strictly in arrival order (the no-scheduler
// baseline: a single FIFO per device).
type FCFS struct {
	h arrivalHeap
}

// NewFCFS returns a first-come-first-served scheduler.
func NewFCFS() *FCFS { return &FCFS{} }

// Name implements Scheduler.
func (s *FCFS) Name() string { return "fcfs" }

// Add implements Scheduler.
func (s *FCFS) Add(r *Request) { s.h.push(r) }

// Pick implements Scheduler: earliest arrival, seq tie-break. The global
// (Arrival, seq) minimum is the answer whenever it is eligible, and
// nothing is eligible when it is not.
func (s *FCFS) Pick(now simclock.Duration, pos int64) *Request {
	r := s.h.min()
	if r == nil || r.Arrival > now {
		return nil
	}
	s.h.remove(r)
	return r
}

// Len implements Scheduler.
func (s *FCFS) Len() int { return len(s.h) }

// MinArrival implements Scheduler.
func (s *FCFS) MinArrival() (simclock.Duration, bool) { return s.h.minArrival() }

// minArrival is MinArrival for every arrival-heap-backed scheduler.
func (h arrivalHeap) minArrival() (simclock.Duration, bool) {
	r := h.min()
	if r == nil {
		return 0, false
	}
	return r.Arrival, true
}

// SSTF is shortest-seek-time-first: it services the eligible request whose
// offset is nearest the device's current position, the classic elevator
// family policy for seek-dominated devices (disk.go's three-term seek
// curve makes distance-in-bytes a faithful proxy for distance-in-
// cylinders, since cylinders are a linear slicing of the byte space).
type SSTF struct {
	h          arrivalHeap
	x          offIndex
	maxArrival simclock.Duration // high-water arrival: gates the indexed fast path
}

// NewSSTF returns a shortest-seek-time-first scheduler.
func NewSSTF() *SSTF { return &SSTF{} }

// Name implements Scheduler.
func (s *SSTF) Name() string { return "sstf" }

// Add implements Scheduler.
func (s *SSTF) Add(r *Request) {
	s.h.push(r)
	s.x.insert(r)
	if r.Arrival > s.maxArrival {
		s.maxArrival = r.Arrival
	}
}

// Pick implements Scheduler: minimum |Off - pos|, ties to the lower
// offset (ascending sweep), then seq.
func (s *SSTF) Pick(now simclock.Duration, pos int64) *Request {
	if len(s.x) == 0 {
		return nil
	}
	var r *Request
	if s.maxArrival <= now {
		r = s.x.nearest(pos)
	} else if r = s.x.nearestEligible(now, pos); r == nil {
		return nil
	}
	s.x.remove(r)
	s.h.remove(r)
	return r
}

// Len implements Scheduler.
func (s *SSTF) Len() int { return len(s.x) }

// MinArrival implements Scheduler.
func (s *SSTF) MinArrival() (simclock.Duration, bool) { return s.h.minArrival() }

// Deadline is the Linux-deadline-style hybrid: requests are normally
// serviced in SSTF order, but every request carries an expiry (arrival +
// quantum) and an expired request preempts seek optimisation, bounding the
// starvation SSTF inflicts on far-away offsets.
type Deadline struct {
	h          arrivalHeap
	x          offIndex
	maxArrival simclock.Duration
	quantum    simclock.Duration
}

// DefaultDeadlineQuantum bounds request sojourn under the deadline policy;
// it is of the order of a few disk service times, like the Linux deadline
// scheduler's read expiry.
const DefaultDeadlineQuantum = 100 * simclock.Millisecond

// NewDeadline returns a deadline scheduler. quantum <= 0 selects
// DefaultDeadlineQuantum.
func NewDeadline(quantum simclock.Duration) *Deadline {
	if quantum <= 0 {
		quantum = DefaultDeadlineQuantum
	}
	return &Deadline{quantum: quantum}
}

// Name implements Scheduler.
func (s *Deadline) Name() string { return "deadline" }

// Add implements Scheduler, stamping the expiry.
func (s *Deadline) Add(r *Request) {
	r.Deadline = r.Arrival + s.quantum
	s.h.push(r)
	s.x.insert(r)
	if r.Arrival > s.maxArrival {
		s.maxArrival = r.Arrival
	}
}

// Pick implements Scheduler: the earliest-deadline eligible request if it
// has expired, else SSTF order. With one constant quantum, (Deadline, seq)
// order is (Arrival, seq) order, so the arrival heap serves expiry too.
func (s *Deadline) Pick(now simclock.Duration, pos int64) *Request {
	if len(s.x) == 0 {
		return nil
	}
	var r *Request
	if s.maxArrival <= now {
		if oldest := s.h.min(); oldest.Deadline <= now {
			r = oldest
		} else {
			r = s.x.nearest(pos)
		}
	} else {
		r = s.pickLinear(now, pos)
		if r == nil {
			return nil
		}
	}
	s.x.remove(r)
	s.h.remove(r)
	return r
}

// pickLinear is the general-case deadline scan over arrivals <= now.
func (s *Deadline) pickLinear(now simclock.Duration, pos int64) *Request {
	var oldest *Request
	for _, r := range s.x {
		if r.Arrival > now {
			continue
		}
		if oldest == nil || r.Deadline < oldest.Deadline ||
			(r.Deadline == oldest.Deadline && r.seq < oldest.seq) {
			oldest = r
		}
	}
	if oldest == nil {
		return nil
	}
	if oldest.Deadline <= now {
		return oldest
	}
	return s.x.nearestEligible(now, pos)
}

// Len implements Scheduler.
func (s *Deadline) Len() int { return len(s.x) }

// MinArrival implements Scheduler.
func (s *Deadline) MinArrival() (simclock.Duration, bool) { return s.h.minArrival() }

// NewScheduler builds a scheduler by policy name; it is the factory the
// experiment sweeps select policies with.
//
//sledlint:allow panicpath -- policy names are validated at config parse; an unknown one here is a harness bug
func NewScheduler(name string) Scheduler {
	switch name {
	case "fcfs":
		return NewFCFS()
	case "sstf":
		return NewSSTF()
	case "deadline":
		return NewDeadline(0)
	default:
		panic(fmt.Sprintf("iosched: unknown scheduler %q", name))
	}
}
