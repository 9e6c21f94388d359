package iosched

// Request lifetimes under the engine's request pool. Every test in this
// package runs with poisonFreed on: a recycled request is overwritten with
// an out-of-range device, stream -1 and errFreedRequest, so a use after
// free indexes out of range, fails a stream with errFreedRequest, or trips
// the completion seq check — it cannot pass silently. The tests below pin
// each point where a request goes back to the pool, and that it goes back
// exactly once.

import (
	"errors"
	"strings"
	"testing"

	"sleds/internal/device"
	"sleds/internal/faults"
	"sleds/internal/simclock"
)

func init() { poisonFreed = true }

// assertPoolDrained fails unless every request the engine ever allocated
// is back on the free list — nothing leaked, nothing still referenced.
func assertPoolDrained(t *testing.T, e *Engine) {
	t.Helper()
	if len(e.free) != len(e.reqs) {
		t.Fatalf("%d of %d pooled requests were never freed", len(e.reqs)-len(e.free), len(e.reqs))
	}
	for _, r := range e.reqs {
		if !r.pooled {
			t.Fatalf("request in slot %d is not on the free list", r.slot)
		}
	}
}

func TestFreedRequestIsPoisoned(t *testing.T) {
	k, _, id := testKernel(t, simclock.Millisecond)
	e := NewEngine(k)
	e.Queue(id, NewFCFS())
	r := e.newReq(0, id, 4096, 4096, false, 0)
	e.freeReq(r)
	if r.Err != errFreedRequest || e.queue(r.Dev) != nil || r.Stream != -1 {
		t.Fatalf("freed request not poisoned: %+v", *r)
	}
	if got := e.newReq(0, id, 0, 4096, false, 0); got != r || got.Err != nil || got.Dev != id || got.pooled {
		t.Fatalf("reallocation did not reset the pooled request: %+v", *got)
	}
	e.freeReq(r)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	e.freeReq(r)
}

// TestOrphanedLoserOutlivesItsRace: the primary loses the race while in
// flight and faults; before it completes, the stream issues a second
// hedged read that reuses the winner's slot. The loser must still reach
// the orphan observer with its own device and fault at its own completion
// instant, and the second read must be untouched by it.
func TestOrphanedLoserOutlivesItsRace(t *testing.T) {
	k, _, _, ida, idb := testKernel2(t, 40*simclock.Millisecond, 5*simclock.Millisecond)
	wrapped, _ := faults.Wrap(k.Devices.Get(ida), faults.Config{Seed: 1, PFault: 1, MaxConsecutive: 1})
	k.Devices.Replace(ida, wrapped)
	e := NewEngine(k)
	e.Queue(ida, NewFCFS())
	e.Queue(idb, NewFCFS())
	var seen []device.ID
	var at []simclock.Duration
	e.SetOrphanObserver(func(dev device.ID, err error, t simclock.Duration) {
		var fault *device.Fault
		if !errors.As(err, &fault) {
			panic("orphan error is not a device fault")
		}
		seen = append(seen, dev)
		at = append(at, t)
	})
	var results []Result
	e.AddStream(0, ProgramFunc(func(h *Handle, prev Result) Op {
		switch len(results) {
		case 0:
			results = append(results, Result{})
			return HedgedDevRead(ida, idb, 0, 4096, 10*simclock.Millisecond)
		case 1:
			results[0] = prev
			results = append(results, Result{})
			// Resumed at 15 ms with the primary still in flight until
			// 25 ms; read the secondary directly, hedged back to it.
			return HedgedDevRead(idb, ida, 8192, 4096, 50*simclock.Millisecond)
		default:
			results[1] = prev
			return Exit(prev.Err)
		}
	}))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if r := results[0]; r.Err != nil || r.Dev != idb || !r.HedgeFired {
		t.Fatalf("first read %+v, want a clean secondary win", r)
	}
	if r := results[1]; r.Err != nil || r.Dev != idb || r.HedgeFired {
		t.Fatalf("second read %+v, want an unhedged win on %v", r, idb)
	}
	if len(seen) != 1 || seen[0] != ida || at[0] != 25*simclock.Millisecond {
		t.Fatalf("orphan observer saw %v at %v, want %v at 25ms", seen, at, ida)
	}
	if got, want := e.FinishTime(0), 20*simclock.Millisecond; got != want {
		t.Fatalf("stream finished at %v, want %v", got, want)
	}
	assertPoolDrained(t, e)
}

// TestQueuedLoserRecycledAtDispatch: a loser cancelled while queued is
// dropped at its dispatch and recycled there, and its slot serves the
// next submission.
func TestQueuedLoserRecycledAtDispatch(t *testing.T) {
	k, _, fb, ida, idb := testKernel2(t, 30*simclock.Millisecond, 50*simclock.Millisecond)
	e := NewEngine(k)
	e.Queue(ida, NewFCFS())
	e.Queue(idb, NewFCFS())
	e.AddStream(0, devReadProg(idb, 9000, 9000+4096))
	var res Result
	e.AddStream(0, hedgeOnce(ida, idb, 10*simclock.Millisecond, &res))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !res.HedgeFired || res.Dev != ida {
		t.Fatalf("res = %+v, want a primary win over the queued loser", res)
	}
	if len(fb.served) != 2 {
		t.Fatalf("secondary served %v, want only stream 0's two reads", fb.served)
	}
	// At most three requests are ever live at once (stream 0's, the
	// primary, the secondary); stream 0's second read reuses a slot.
	if len(e.reqs) != 3 {
		t.Fatalf("pool grew to %d requests, want 3", len(e.reqs))
	}
	assertPoolDrained(t, e)
}

// TestStaleHedgeDeadlineAfterSlotReuse: the first hedged read completes
// before its deadline and frees its primary; the stream's next hedged
// read takes the same slot. The first read's deadline then pops while the
// second read is outstanding — it must be recognised as stale by seq, not
// mistaken for the second read's deadline because the slot matches.
func TestStaleHedgeDeadlineAfterSlotReuse(t *testing.T) {
	k, _, fb, ida, idb := testKernel2(t, 10*simclock.Millisecond, 10*simclock.Millisecond)
	slow := &fakeDev{id: 3, cost: 200 * simclock.Millisecond}
	idc := k.AttachDevice(slow)
	e := NewEngine(k)
	e.Queue(ida, NewFCFS())
	e.Queue(idb, NewFCFS())
	e.Queue(idc, NewFCFS())
	phase := 0
	var second Result
	e.AddStream(0, ProgramFunc(func(h *Handle, prev Result) Op {
		phase++
		switch phase {
		case 1: // completes at 10 ms; its deadline stays armed for 50 ms
			return HedgedDevRead(ida, idb, 0, 4096, 50*simclock.Millisecond)
		case 2: // reuses the slot; its own deadline is 10+100 = 110 ms
			if prev.HedgeFired || prev.Dev != ida {
				return Exit(errors.New("first hedged read should win on its primary"))
			}
			return HedgedDevRead(idc, idb, 0, 4096, 100*simclock.Millisecond)
		default:
			second = prev
			return Exit(prev.Err)
		}
	}))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !second.HedgeFired || second.Dev != idb {
		t.Fatalf("second read %+v, want the secondary to win after its own deadline", second)
	}
	// Fired by the stale deadline, the secondary would have won at 60 ms.
	if got, want := e.FinishTime(0), 120*simclock.Millisecond; got != want {
		t.Fatalf("stream finished at %v, want %v: the stale deadline fired the hedge", got, want)
	}
	if len(fb.served) != 1 {
		t.Fatalf("secondary served %v, want one read", fb.served)
	}
	if len(e.reqs) != 2 {
		t.Fatalf("pool grew to %d requests, want 2 (the second primary reuses the first's slot)", len(e.reqs))
	}
	assertPoolDrained(t, e)
}

// TestFuncStreamRequestsRecycled: a bridged blocking stream recycles each
// request after reading its outcome, so a sequential stream needs one
// slot however many reads it makes.
func TestFuncStreamRequestsRecycled(t *testing.T) {
	k, fd, id := testKernel(t, simclock.Millisecond)
	wrapped, _ := faults.Wrap(k.Devices.Get(id), faults.Config{Seed: 3, PFault: 0.5, MaxConsecutive: 2})
	k.Devices.Replace(id, wrapped)
	e := NewEngine(k)
	e.Queue(id, NewFCFS())
	var errs int
	e.AddStreamFunc(0, func(h *Handle) error {
		for i := int64(0); i < 20; i++ {
			err := device.ReadErr(k.Devices.Get(id), k.Clock, i*4096, 4096)
			if errors.Is(err, errFreedRequest) {
				return err
			}
			if err != nil {
				errs++
			}
		}
		return nil
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if errs == 0 || len(fd.served) == 20 {
		t.Fatalf("%d faults over %d serviced reads: the injector should fail some", errs, len(fd.served))
	}
	if len(e.reqs) != 1 {
		t.Fatalf("pool grew to %d requests for one sequential stream, want 1", len(e.reqs))
	}
	assertPoolDrained(t, e)
}

// panicAfterSubmit sits over a queued device and panics once the queue
// has accepted the access — a stream that dies with its submission still
// pending in the engine.
type panicAfterSubmit struct{ device.Device }

func (p panicAfterSubmit) ReadErr(c *simclock.Clock, off, length int64) error {
	//sledlint:allow errflow -- the access is abandoned by the panic that follows
	_ = device.ReadErr(p.Device, c, off, length)
	panic("broken wrapper")
}

func (p panicAfterSubmit) WriteErr(c *simclock.Clock, off, length int64) error {
	return device.WriteErr(p.Device, c, off, length)
}

// TestPanickingStreamReturnsPendingRequest: the pending submission of a
// stream that panics goes back to the pool, and the other streams run on.
func TestPanickingStreamReturnsPendingRequest(t *testing.T) {
	k, _, _, ida, idb := testKernel2(t, simclock.Millisecond, simclock.Millisecond)
	e := NewEngine(k)
	e.Queue(ida, NewFCFS())
	e.Queue(idb, NewFCFS())
	k.Devices.Replace(idb, panicAfterSubmit{k.Devices.Get(idb)})
	e.AddStream(0, devReadProg(ida, 0, 4096, 8192))
	e.AddStream(0, devReadProg(idb, 0))
	e.AddStream(0, devReadProg(ida, 12288))
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "stream 1 panicked: broken wrapper") {
		t.Fatalf("Run: %v, want stream 1's panic", err)
	}
	for _, id := range []StreamID{0, 2} {
		if st := e.streams[id]; st.err != nil {
			t.Fatalf("stream %d failed: %v", id, st.err)
		}
	}
	if depth := e.QueueDepth(idb); depth != 0 {
		t.Fatalf("abandoned request left queued: depth %d", depth)
	}
	assertPoolDrained(t, e)
}
