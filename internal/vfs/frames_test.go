package vfs

import (
	"bytes"
	"io"
	"runtime"
	"testing"

	"sleds/internal/device"
)

// TestRecycledFramesNeverAlias drives the page-frame free list hard: a
// file three times the cache is read through readahead and asynchronous
// prefetch while partial writes to a second file force dirty evictions and
// their write-back. A frame recycled while something still referenced it
// would surface as a read returning another page's bytes.
func TestRecycledFramesNeverAlias(t *testing.T) {
	const cachePages = 16
	mem := device.NewMem(device.DefaultMemConfig(0))
	k := NewKernel(Config{PageSize: testPage, CachePages: cachePages, MemDevice: mem, ReadaheadPages: 3})
	k.AttachDevice(mem)
	disk := k.AttachDevice(device.NewDisk(device.DefaultDiskConfig(1)))
	if err := k.MkdirAll("/d"); err != nil {
		t.Fatal(err)
	}
	src := mustCreateText(t, k, "/d/src", disk, 11, 3*cachePages*testPage)
	dst := mustCreateText(t, k, "/d/dst", disk, 12, cachePages*testPage+1234)
	shadow := dst.content.ReadAll() // dst as the application has written it
	fs, _ := k.Open("/d/src")
	fd, _ := k.Open("/d/dst")
	defer fs.Close()
	defer fd.Close()

	// checkSrc compares got, read at off, against Content.ReadPage: src is
	// never written, so its content is the truth for every byte.
	page := make([]byte, testPage)
	checkSrc := func(got []byte, off int64) {
		t.Helper()
		for i := 0; i < len(got); {
			p, in := (off+int64(i))/testPage, int((off+int64(i))%testPage)
			src.content.ReadPage(p, page)
			n := min(testPage-in, len(got)-i)
			if !bytes.Equal(got[i:i+n], page[in:in+n]) {
				t.Fatalf("src read at %d: page %d differs from Content.ReadPage", off, p)
			}
			i += n
		}
	}

	x := uint64(1)
	rnd := func(n int64) int64 {
		x = x*6364136223846793005 + 1442695040888963407
		return int64(x>>33) % n
	}
	buf := make([]byte, 3*testPage/2) // reads straddle page boundaries
	for pass := 0; pass < 3; pass++ {
		for off := int64(0); off < src.size; off += int64(len(buf)) {
			k.Prefetch(src, off/testPage+2, 4)
			n, err := fs.ReadAt(buf, off)
			if err != nil && err != io.EOF {
				t.Fatal(err)
			}
			checkSrc(buf[:n], off)

			// A partial write: read-modify-write of a page that is often
			// not resident, leaving it dirty for a later eviction.
			woff := rnd(dst.size - 200)
			patch := bytes.Repeat([]byte{byte(rnd(256))}, 1+int(rnd(199)))
			if _, err := fd.WriteAt(patch, woff); err != nil {
				t.Fatal(err)
			}
			copy(shadow[woff:], patch)
			if rnd(8) == 0 {
				// fsync writes dirty frames back but leaves them cached:
				// they must not be recycled.
				if err := fd.Sync(); err != nil {
					t.Fatal(err)
				}
			}

			roff := rnd(dst.size)
			got := make([]byte, 1+rnd(2*testPage))
			n, err = fd.ReadAt(got, roff)
			if err != nil && err != io.EOF {
				t.Fatal(err)
			}
			if !bytes.Equal(got[:n], shadow[roff:roff+int64(n)]) {
				t.Fatalf("dst read at %d differs from what was written", roff)
			}
		}
	}
	s := k.RunStats()
	if s.PagesWrittenDev == 0 || s.ReadaheadPages == 0 || s.PrefetchIssued == 0 {
		t.Fatalf("test did not exercise write-back, readahead and prefetch: %+v", s)
	}
	// Write-back extends content page-granularly; the file's own size
	// still bounds what was written.
	k.SyncAll()
	if got := dst.content.ReadAll(); !bytes.Equal(got[:len(shadow)], shadow) {
		t.Fatalf("dst content after sync differs from what was written")
	}
}

// coldFaulter reads one byte from each page of a file twice the cache in
// turn, so under LRU every read is a cold single-page fault that evicts a
// clean page.
type coldFaulter struct {
	f     *File
	pages int64
	next  int64
	b     [1]byte
}

func newColdFaulter(t testing.TB) *coldFaulter {
	const cachePages = 32
	k, disk, _, _ := testMachine(t, cachePages)
	mustCreateText(t, k, "/data/f", disk, 5, 2*cachePages*testPage)
	f, err := k.Open("/data/f")
	if err != nil {
		t.Fatal(err)
	}
	c := &coldFaulter{f: f, pages: 2 * cachePages}
	for i := 0; i < 2*cachePages; i++ { // fill the cache, reach steady state
		c.fault(t)
	}
	return c
}

func (c *coldFaulter) fault(t testing.TB) {
	if _, err := c.f.ReadAt(c.b[:], c.next*testPage); err != nil {
		t.Fatal(err)
	}
	c.next = (c.next + 1) % c.pages
}

// TestColdFaultRecyclesFrame pins that a steady-state cold fault takes its
// page frame from the free list, its op from the kernel's pool and its
// cache node from the slab: it allocates nothing.
func TestColdFaultRecyclesFrame(t *testing.T) {
	c := newColdFaulter(t)
	before := c.f.k.RunStats().Faults
	if allocs := testing.AllocsPerRun(200, func() { c.fault(t) }); allocs != 0 {
		t.Errorf("cold fault: %v allocs, want 0", allocs)
	}
	if got := c.f.k.RunStats().Faults - before; got != 201 {
		t.Fatalf("%d faults over 201 reads, want every read to fault", got)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const runs = 200
	for i := 0; i < runs; i++ {
		c.fault(t)
	}
	runtime.ReadMemStats(&m1)
	if perFault := (m1.TotalAlloc - m0.TotalAlloc) / runs; perFault >= testPage/4 {
		t.Errorf("cold fault allocates %d bytes, want well under a %d-byte page", perFault, testPage)
	}
}

func BenchmarkColdFault(b *testing.B) {
	c := newColdFaulter(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.fault(b)
	}
}
