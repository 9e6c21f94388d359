package vfs

// Op lifetimes under the kernel's ioOp pool. A freed op is zeroed (its
// state reads opFreed, so running it panics) and its generation advances
// (so a stale IOStep's Resume panics instead of driving whatever op
// reuses the slot): a use after free cannot pass silently. The tests
// below pin that a suspended op stays out of the pool and that every
// release happens exactly once.

import (
	"bytes"
	"strings"
	"testing"

	"sleds/internal/device"
	"sleds/internal/simclock"
)

// parkDev stands in for an engine-queued device: while park is set, an
// access suspends (ErrBlocked) instead of completing; when explode is
// set, an access panics, as a broken device wrapper would.
type parkDev struct {
	id            device.ID
	park, explode bool
	parked        int
}

func (d *parkDev) Info() device.Info {
	return device.Info{ID: d.id, Name: "park", Level: device.LevelDisk, Size: 1 << 40}
}

func (d *parkDev) ReadErr(c *simclock.Clock, off, length int64) error {
	if d.explode {
		panic("parkDev: broken wrapper")
	}
	if d.park {
		d.parked++
		return ErrBlocked
	}
	c.Advance(simclock.Millisecond)
	return nil
}

func (d *parkDev) WriteErr(c *simclock.Clock, off, length int64) error {
	return d.ReadErr(c, off, length)
}
func (d *parkDev) Read(c *simclock.Clock, off, length int64)  { _ = d.ReadErr(c, off, length) }
func (d *parkDev) Write(c *simclock.Clock, off, length int64) { _ = d.WriteErr(c, off, length) }
func (d *parkDev) Reset()                                     {}

// parkMachine boots a 16-page kernel with a disk and a parkDev.
func parkMachine(t *testing.T) (*Kernel, device.ID, *parkDev, device.ID) {
	t.Helper()
	k, disk, _, _ := testMachine(t, 16)
	pd := &parkDev{id: device.ID(k.Devices.Len())}
	return k, disk, pd, k.AttachDevice(pd)
}

// assertOpsDrained fails unless every op the kernel allocated is back in
// the pool, each slot listed once.
func assertOpsDrained(t *testing.T, k *Kernel) {
	t.Helper()
	seen := map[int32]bool{}
	for _, s := range k.opFree {
		if seen[s] {
			t.Fatalf("op slot %d is on the free list twice", s)
		}
		seen[s] = true
	}
	for _, op := range k.ops {
		if !seen[op.slot] || op.state != opFreed {
			t.Fatalf("op in slot %d was never freed (state %d)", op.slot, op.state)
		}
	}
}

// mustPanic runs fn and returns its panic message, failing if it returns.
func mustPanic(t *testing.T, fn func()) (msg string) {
	t.Helper()
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("did not panic")
		}
		msg, _ = p.(string)
	}()
	fn()
	return ""
}

// TestSuspendedOpIsNeverReused: two reads suspend on the parked device;
// meanwhile faulting reads and evicting writes on another file take and
// release ops by the hundred. Neither suspended op may be handed out,
// and each resumes to the right bytes.
func TestSuspendedOpIsNeverReused(t *testing.T) {
	k, disk, pd, parked := parkMachine(t)
	a := mustCreateText(t, k, "/data/a", parked, 1, 3*testPage)
	b := mustCreateText(t, k, "/data/b", parked, 2, testPage)
	mustCreateText(t, k, "/data/c", disk, 3, 40*testPage)
	fa, _ := k.Open("/data/a")
	fb, _ := k.Open("/data/b")
	fc, _ := k.Open("/data/c")

	pd.park = true
	bufA, bufB := make([]byte, 3*testPage), make([]byte, 100)
	sa := fa.ReadAtStep(bufA, 0)
	sb := fb.ReadStep(bufB)
	if !sa.Blocked() || !sb.Blocked() || sa.op == sb.op || pd.parked != 2 {
		t.Fatalf("want two distinct suspended ops (parked %d)", pd.parked)
	}
	buf := make([]byte, 2*testPage)
	for i := int64(0); i < 200; i++ {
		if _, err := fc.ReadAt(buf, (i*7%39)*testPage); err != nil {
			t.Fatal(err)
		}
		if _, err := fc.WriteAt(buf[:300], (i*11%40)*testPage); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range []IOStep{sa, sb} {
		if s.op.state != opOutcome || s.op.gen != s.gen {
			t.Fatalf("suspended op was recycled: state %d, generation %d of %d", s.op.state, s.op.gen, s.gen)
		}
	}

	pd.park = false
	if done := sa.Resume(nil); done.Blocked() || done.Err() != nil || done.N() != int64(len(bufA)) {
		t.Fatalf("resumed read: n=%d err=%v", done.N(), done.Err())
	}
	if !bytes.Equal(bufA, a.content.ReadAll()) {
		t.Fatal("resumed read returned the wrong bytes")
	}
	if done := sb.Resume(nil); done.Err() != nil || done.N() != 100 || fb.pos != 100 {
		t.Fatalf("resumed Read: n=%d err=%v pos=%d", done.N(), done.Err(), fb.pos)
	}
	if !bytes.Equal(bufB, b.content.ReadAll()[:100]) {
		t.Fatal("resumed Read returned the wrong bytes")
	}
	assertOpsDrained(t, k)
	if msg := mustPanic(t, func() { sa.Resume(nil) }); !strings.Contains(msg, "recycled") {
		t.Fatalf("stale Resume: %q, want a recycled-op panic", msg)
	}
}

// TestPanickingOpReleasedOnce: a device access that panics unwinds the
// op's machine — on its first run, and on a resume after a retry — and
// the op goes back to the pool exactly once, ready for the next call.
func TestPanickingOpReleasedOnce(t *testing.T) {
	k, disk, pd, parked := parkMachine(t)
	a := mustCreateText(t, k, "/data/a", parked, 1, 2*testPage)
	mustCreateText(t, k, "/data/d", disk, 2, 2*testPage)
	fa, _ := k.Open("/data/a")
	fd, _ := k.Open("/data/d")
	buf := make([]byte, testPage)

	pd.explode = true
	if msg := mustPanic(t, func() { _, _ = fa.ReadAt(buf, 0) }); msg != "parkDev: broken wrapper" {
		t.Fatalf("panic %q", msg)
	}
	assertOpsDrained(t, k)

	// Suspend, then resume with a fault: the retry's attempt panics.
	pd.explode, pd.park = false, true
	s := fa.ReadAtStep(buf, testPage)
	if !s.Blocked() {
		t.Fatal("read did not suspend")
	}
	pd.park, pd.explode = false, true
	fault := &device.Fault{Dev: pd.id, Class: device.FaultTransient, Seq: 1}
	if msg := mustPanic(t, func() { s.Resume(fault) }); msg != "parkDev: broken wrapper" {
		t.Fatalf("panic %q", msg)
	}
	assertOpsDrained(t, k)

	// The pool still works: ops are reused, results are right.
	pd.explode = false
	if _, err := fa.ReadAt(buf, testPage); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, a.content.ReadAll()[testPage:]) {
		t.Fatal("read after the panics returned the wrong bytes")
	}
	if _, err := fd.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	assertOpsDrained(t, k)
	if len(k.ops) > 2 {
		t.Fatalf("%d ops allocated for at most two in flight: released ops were not reused", len(k.ops))
	}
}

// TestBlockedSyncCallReleasesOp: a synchronous call that suspends (blocking
// I/O on a queued device outside the engine's op loop) panics, and its op
// goes back to the pool first.
func TestBlockedSyncCallReleasesOp(t *testing.T) {
	k, _, pd, parked := parkMachine(t)
	mustCreateText(t, k, "/data/a", parked, 1, testPage)
	fa, _ := k.Open("/data/a")
	pd.park = true
	msg := mustPanic(t, func() { _, _ = fa.ReadAt(make([]byte, 10), 0) })
	if !strings.Contains(msg, "blocked on a queued device") {
		t.Fatalf("panic %q", msg)
	}
	assertOpsDrained(t, k)
}

func TestOpDoubleFreePanics(t *testing.T) {
	k, _, _, _ := testMachine(t, 4)
	op := k.newOp(opRead)
	k.freeOp(op)
	if !strings.Contains(mustPanic(t, func() { k.freeOp(op) }), "freed twice") {
		t.Fatal("double free did not report itself")
	}
	if msg := mustPanic(t, func() { k.run(op, nil) }); !strings.Contains(msg, "recycled") {
		t.Fatalf("running a pooled op: %q", msg)
	}
}
