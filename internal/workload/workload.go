// Package workload provides the data that lives "on" the simulated
// devices: deterministic, page-addressable file contents.
//
// The experiments scan files up to 128 MB many times over. Materialising
// those bytes would be wasteful and, worse, would couple the simulation to
// host memory, so content is generated on demand: page p of a file is a
// pure function of (seed, p). Three layers stack on top of the generator:
//
//   - fragments: byte ranges spliced in at fixed offsets (grep match lines
//     are planted this way);
//   - written pages: pages stored verbatim after a simulated write
//     (fimhisto's output file);
//   - a resize bound, so partially written files have a defined size.
package workload

import (
	"fmt"
	"sort"
)

// PageGen fills buf with the base content of the given page. buf always
// has the full page size; generators must fill it completely.
type PageGen func(page int64, buf []byte)

// fragment is a byte range overlaid on the base content.
type fragment struct {
	off  int64
	data []byte
}

// Content is the byte store behind one simulated file.
type Content struct {
	size     int64
	pageSize int
	gen      PageGen
	frags    []fragment       // sorted by offset
	written  map[int64][]byte // page -> stored page data
}

// New creates content of the given size whose base bytes come from gen.
func New(size int64, pageSize int, gen PageGen) *Content {
	if size < 0 || pageSize <= 0 {
		panic(fmt.Sprintf("workload: bad geometry size=%d pageSize=%d", size, pageSize))
	}
	if gen == nil {
		gen = ZeroGen
	}
	return &Content{size: size, pageSize: pageSize, gen: gen, written: make(map[int64][]byte)}
}

// NewBytes creates content holding exactly data (copied).
func NewBytes(data []byte, pageSize int) *Content {
	c := New(int64(len(data)), pageSize, ZeroGen)
	for off := 0; off < len(data); off += pageSize {
		end := off + pageSize
		if end > len(data) {
			end = len(data)
		}
		page := make([]byte, pageSize)
		copy(page, data[off:end])
		c.written[int64(off/pageSize)] = page
	}
	return c
}

// ZeroGen is a PageGen producing all-zero pages.
func ZeroGen(page int64, buf []byte) {
	for i := range buf {
		buf[i] = 0
	}
}

// Size returns the content length in bytes.
func (c *Content) Size() int64 { return c.size }

// PageSize returns the page size in bytes.
func (c *Content) PageSize() int { return c.pageSize }

// Pages returns the number of pages (the last may be partial).
func (c *Content) Pages() int64 {
	return (c.size + int64(c.pageSize) - 1) / int64(c.pageSize)
}

// Resize changes the logical size. Growing exposes more generated content;
// shrinking hides it. Written pages beyond the new size are discarded.
func (c *Content) Resize(size int64) {
	if size < 0 {
		panic(fmt.Sprintf("workload: negative size %d", size))
	}
	c.size = size
	lastPage := c.Pages()
	for p := range c.written {
		if p >= lastPage {
			delete(c.written, p)
		}
	}
}

// TryInsertAt splices data over the base content at byte offset off.
// Splices may not extend past the current size and may not overlap an
// existing fragment (the workloads plant disjoint match lines); violating
// either bound returns a descriptive error and leaves the content
// unchanged.
func (c *Content) TryInsertAt(off int64, data []byte) error {
	if off < 0 || off+int64(len(data)) > c.size {
		return fmt.Errorf("workload: splice [%d,%d) outside [0,%d)", off, off+int64(len(data)), c.size)
	}
	for _, f := range c.frags {
		if off < f.off+int64(len(f.data)) && f.off < off+int64(len(data)) {
			return fmt.Errorf("workload: splice at %d overlaps fragment at %d", off, f.off)
		}
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	c.frags = append(c.frags, fragment{off: off, data: cp})
	sort.Slice(c.frags, func(i, j int) bool { return c.frags[i].off < c.frags[j].off })
	return nil
}

// InsertAt is TryInsertAt for experiment driver code, where an
// out-of-range or overlapping splice is a programming error in the
// experiment's own geometry: it panics with TryInsertAt's error instead
// of returning it. Callers handling untrusted offsets use TryInsertAt.
func (c *Content) InsertAt(off int64, data []byte) {
	if err := c.TryInsertAt(off, data); err != nil {
		panic(err.Error())
	}
}

// ReadPage fills buf (which must be PageSize bytes) with the content of
// the given page: generated base, fragments overlaid, or the written page
// verbatim. Bytes past Size within the final page are zeroed.
func (c *Content) ReadPage(page int64, buf []byte) {
	if len(buf) != c.pageSize {
		panic(fmt.Sprintf("workload: ReadPage buffer %d != page size %d", len(buf), c.pageSize))
	}
	if page < 0 || page >= c.Pages() {
		panic(fmt.Sprintf("workload: page %d out of range [0,%d)", page, c.Pages()))
	}
	if w, ok := c.written[page]; ok {
		copy(buf, w)
	} else {
		c.gen(page, buf)
		c.applyFragments(page, buf)
	}
	// Zero the tail beyond EOF so short final pages read deterministically.
	pageStart := page * int64(c.pageSize)
	if pageStart+int64(c.pageSize) > c.size {
		for i := c.size - pageStart; i < int64(c.pageSize); i++ {
			buf[i] = 0
		}
	}
}

// applyFragments overlays the fragments intersecting the page.
func (c *Content) applyFragments(page int64, buf []byte) {
	pageStart := page * int64(c.pageSize)
	pageEnd := pageStart + int64(c.pageSize)
	// Fragments are sorted; find the first that could intersect.
	lo, hi := 0, len(c.frags)
	for lo < hi { // a closure-free sort.Search: the fault path runs it per page
		m := int(uint(lo+hi) >> 1)
		if f := c.frags[m]; f.off+int64(len(f.data)) > pageStart {
			hi = m
		} else {
			lo = m + 1
		}
	}
	i := lo
	for ; i < len(c.frags); i++ {
		f := c.frags[i]
		if f.off >= pageEnd {
			break
		}
		srcStart := int64(0)
		dstStart := f.off - pageStart
		if dstStart < 0 {
			srcStart = -dstStart
			dstStart = 0
		}
		n := int64(len(f.data)) - srcStart
		if dstStart+n > int64(c.pageSize) {
			n = int64(c.pageSize) - dstStart
		}
		copy(buf[dstStart:dstStart+n], f.data[srcStart:srcStart+n])
	}
}

// WritePage stores data as the page's content (copied). Subsequent reads
// of the page return it verbatim, shadowing the generator and fragments.
func (c *Content) WritePage(page int64, data []byte) {
	if len(data) != c.pageSize {
		panic(fmt.Sprintf("workload: WritePage buffer %d != page size %d", len(data), c.pageSize))
	}
	if page < 0 {
		panic(fmt.Sprintf("workload: negative page %d", page))
	}
	if cp, ok := c.written[page]; ok {
		copy(cp, data) // a rewrite reuses the page's stored copy
	} else {
		//sledlint:allow hotalloc -- the first write of a page stores it; every later write-back of the page copies in place
		cp = make([]byte, len(data))
		copy(cp, data)
		c.written[page] = cp
	}
	if end := (page + 1) * int64(c.pageSize); end > c.size {
		// Writing past EOF extends the file, page-granular (the simulated
		// FS trims via Resize when it knows the exact byte length).
		c.size = end
	}
}

// ReadAll materialises the whole content; intended for tests and small
// files only.
func (c *Content) ReadAll() []byte {
	out := make([]byte, c.size)
	buf := make([]byte, c.pageSize)
	for p := int64(0); p < c.Pages(); p++ {
		c.ReadPage(p, buf)
		start := p * int64(c.pageSize)
		copy(out[start:], buf)
	}
	return out
}
