package vfs

import (
	"testing"
)

const allocCachePages = 32

// allocCase is one warmed read or write path: step performs one
// operation, advancing through the file so successive calls exercise the
// same path on different pages, and counter is the kernel statistic every
// step must advance (proof that the path under test ran).
type allocCase struct {
	name    string
	k       *Kernel
	step    func(t testing.TB)
	counter func(RunStats) int64
}

// cycler steps an index through [0, n).
type cycler struct{ i, n int64 }

func (c *cycler) next() int64 {
	v := c.i
	c.i = (c.i + 1) % c.n
	return v
}

// newHitReader reads a resident file half the cache in 3/2-page slices.
func newHitReader(t testing.TB) allocCase {
	k, disk, _, _ := testMachine(t, allocCachePages)
	mustCreateText(t, k, "/data/f", disk, 1, allocCachePages/2*testPage)
	f, _ := k.Open("/data/f")
	buf := make([]byte, 3*testPage/2)
	pos := cycler{n: 8}
	return allocCase{"read hit", k, func(t testing.TB) {
		if _, err := f.ReadAt(buf, pos.next()*testPage); err != nil {
			t.Fatal(err)
		}
	}, func(s RunStats) int64 { return s.CacheHits }}
}

// newEvictingWriter writes patch at each page of a file twice the cache
// in turn: every write evicts a page an earlier write dirtied, and the
// victim's write-back runs before the new page goes in.
func newEvictingWriter(t testing.TB, name string, patch []byte) allocCase {
	k, disk, _, _ := testMachine(t, allocCachePages)
	mustCreateText(t, k, "/data/f", disk, 2, 2*allocCachePages*testPage)
	f, _ := k.Open("/data/f")
	pos := cycler{n: 2 * allocCachePages}
	return allocCase{name, k, func(t testing.TB) {
		if _, err := f.WriteAt(patch, pos.next()*testPage); err != nil {
			t.Fatal(err)
		}
	}, func(s RunStats) int64 { return s.PagesWrittenDev }}
}

// newResidentWriter patches cached pages in place.
func newResidentWriter(t testing.TB) allocCase {
	k, disk, _, _ := testMachine(t, allocCachePages)
	mustCreateText(t, k, "/data/f", disk, 3, allocCachePages/2*testPage)
	f, _ := k.Open("/data/f")
	if _, err := f.ReadAt(make([]byte, allocCachePages/2*testPage), 0); err != nil {
		t.Fatal(err)
	}
	patch := make([]byte, 100)
	pos := cycler{n: allocCachePages / 2}
	return allocCase{"resident write", k, func(t testing.TB) {
		if _, err := f.WriteAt(patch, pos.next()*testPage+7); err != nil {
			t.Fatal(err)
		}
	}, func(s RunStats) int64 { return s.BytesWritten / int64(len(patch)) }}
}

// TestReadPathSteadyStateAllocs is the zero-alloc gate of the kernel's
// synchronous read and write paths: once warmed — the op pool, the frame
// free list, the cache slab and the file's written-page store at their
// peak — a cache hit, a fault that evicts, a write whose insertion writes
// a dirty victim back, and a resident or full-page write allocate
// nothing: no op, cache node or page frame.
func TestReadPathSteadyStateAllocs(t *testing.T) {
	cold := newColdFaulter(t)
	cases := []allocCase{
		newHitReader(t),
		{"read fault evicting a clean page", cold.f.k, cold.fault, func(s RunStats) int64 { return s.Faults }},
		newEvictingWriter(t, "partial write faulting, evicting a dirty page", make([]byte, 100)),
		newEvictingWriter(t, "full-page write evicting a dirty page", make([]byte, testPage)),
		newResidentWriter(t),
	}
	const runs = 200
	for _, tc := range cases {
		for i := 0; i < 4*allocCachePages; i++ {
			tc.step(t)
		}
		before := tc.counter(tc.k.RunStats())
		if allocs := testing.AllocsPerRun(runs, func() { tc.step(t) }); allocs != 0 {
			t.Errorf("%s: %v allocs per op, want 0", tc.name, allocs)
		}
		if got := tc.counter(tc.k.RunStats()) - before; got < runs {
			t.Errorf("%s: counter advanced %d over %d ops: the path did not run", tc.name, got, runs)
		}
	}
}

// BenchmarkReadAtHit is a warmed 3/2-page ReadAt served from the cache.
func BenchmarkReadAtHit(b *testing.B) {
	hit := newHitReader(b)
	hit.step(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hit.step(b)
	}
}
