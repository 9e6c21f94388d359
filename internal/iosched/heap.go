package iosched

import "sleds/internal/simclock"

// engineEvent is one schedulable occurrence: a stream resume (start, sleep
// wake, or request completion), a hedge deadline, or a device dispatch.
// Completion resumes name the request that completed (its pool slot and
// seq), so the engine can tell which of a hedged pair finished and can
// retire a cancelled loser without touching its stream; hedge events carry
// the seq of the primary request they guard, which is how a deadline that
// outlived its read is recognised as stale even after the primary's slot
// has been reused. The struct holds no pointers, so heap moves need no GC
// write barriers.
type engineEvent struct {
	time simclock.Duration
	seq  uint64 // the carried request's seq + 1; 0 when none (plain resumes, dispatches)
	id   int32  // stream ID (resumes, hedges) or device ID (dispatches)
	slot int32  // the completed request's pool slot (completion resumes)
	kind uint8  // evResume before evHedge before evDispatch at equal times
}

const (
	evResume   = 0 // a stream starts, wakes from sleep, or a request completes
	evHedge    = 1 // a hedged read's deadline expires; the secondary fires
	evDispatch = 2 // an idle device begins servicing a queued request
)

// eventLess is the engine's total event order: time, then resumes before
// hedge deadlines before dispatches, then stream ID (resumes and hedges)
// or device ID (dispatches), then the carried request's submission seq.
// The (time, resume-before-dispatch, stream/device) prefix is the same
// tie-break the goroutine engine's linear scan applied, so schedules
// without hedged reads are unchanged. The seq suffix only matters when one
// stream has several events at one instant — a hedged pair completing
// together, or an abandoned loser's completion landing on a sleep wake —
// and makes the earlier-submitted request win deterministically: plain
// resumes (seq 0) first, then completions by submission order. Two events
// equal under this order are identical in every field (a dispatch pushed
// again at the instant of a popped one), so the pop sequence does not
// depend on the heap's shape.
func eventLess(a, b engineEvent) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	if a.id != b.id {
		return a.id < b.id
	}
	return a.seq < b.seq
}

// eventHeap is a 4-ary min-heap of pending events under eventLess. A
// 4-ary heap is half as deep as a binary one, and each level's children
// share a cache line or two, so a pop costs fewer dependent loads; push
// and pop move a hole instead of swapping entries, writing each moved
// event once.
//
// Not every popped event is live. Stream resumes without a request are
// unique per stream and always live (a stream waits on at most one timer,
// at a fixed time), and completions are live by construction (a request is
// recycled only after its completion pops). Dispatch events can be
// superseded: a submission carrying an earlier arrival than the pending
// dispatch's min-arrival pulls the dispatch instant forward, pushing a
// second event and leaving the stale one to be dropped on pop
// (devQueue.dispatchAt marks the live one). Hedge deadlines go stale when
// their read completes first — most of them, under a well-tuned hedge —
// and the pop recognises them by comparing the event's seq with the
// stream's in-progress hedged read. Events counts every pop, stale or not.
type eventHeap struct{ s []engineEvent }

func (h *eventHeap) len() int { return len(h.s) }

//sledlint:hotpath
func (h *eventHeap) push(ev engineEvent) {
	s := append(h.s, ev)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !eventLess(ev, s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = ev
	h.s = s
}

//sledlint:hotpath
func (h *eventHeap) pop() engineEvent {
	s := h.s
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s = s[:n]
	h.s = s
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j, end := c+1, min(c+4, n); j < end; j++ {
			if eventLess(s[j], s[m]) {
				m = j
			}
		}
		if !eventLess(s[m], last) {
			break
		}
		s[i] = s[m]
		i = m
	}
	s[i] = last
	return top
}
