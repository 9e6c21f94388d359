package cache

import (
	"bytes"
	"container/list"
	"fmt"
	"reflect"
	"sort"
	"testing"
)

// listFileIdx is one file's residency index: resident pages as coalesced runs
// plus a count of dirty pages, maintained incrementally so file-level
// operations need not consult any other file's frames.
type listFileIdx struct {
	runs  []Run
	dirty int
}

// insert adds page p to the run vector, coalescing with neighbours. The
// caller guarantees p is not already resident (the hash index is checked
// first); a resident p is tolerated as a no-op for safety.
func (fi *listFileIdx) insert(p int64) {
	runs := fi.runs
	// First run ending at or after p: the only candidates that contain or
	// touch p on the left.
	i := sort.Search(len(runs), func(i int) bool { return runs[i].End >= p })
	if i < len(runs) && runs[i].Start <= p && p < runs[i].End {
		return // already resident
	}
	left := i < len(runs) && runs[i].End == p
	j := i
	if left {
		j = i + 1
	}
	right := j < len(runs) && runs[j].Start == p+1
	switch {
	case left && right:
		runs[i].End = runs[j].End
		fi.runs = append(runs[:j], runs[j+1:]...)
	case left:
		runs[i].End = p + 1
	case right:
		runs[j].Start = p
	default:
		runs = append(runs, Run{})
		copy(runs[j+1:], runs[j:])
		runs[j] = Run{Start: p, End: p + 1}
		fi.runs = runs
	}
}

// remove drops page p from the run vector, splitting a run if p is
// interior. A non-resident p is a no-op.
func (fi *listFileIdx) remove(p int64) {
	runs := fi.runs
	i := sort.Search(len(runs), func(i int) bool { return runs[i].End > p })
	if i >= len(runs) || runs[i].Start > p {
		return // not resident
	}
	r := runs[i]
	switch {
	case r.Start == p && r.End == p+1:
		fi.runs = append(runs[:i], runs[i+1:]...)
	case r.Start == p:
		runs[i].Start = p + 1
	case r.End == p+1:
		runs[i].End = p
	default:
		runs[i].End = p
		runs = append(runs, Run{})
		copy(runs[i+2:], runs[i+1:])
		runs[i+1] = Run{Start: p + 1, End: r.End}
		fi.runs = runs
	}
}

// pages returns the total resident page count.
func (fi *listFileIdx) pages() int64 {
	var n int64
	for _, r := range fi.runs {
		n += r.Pages()
	}
	return n
}

// listFrame is one resident page.
type listFrame struct {
	key   Key
	data  []byte
	dirty bool
	ref   bool   // CLOCK reference bit
	stamp uint64 // recency stamp; mirrors list order (front = highest)
}

// listCache is Cache as it was before the frame slab: a container/list
// recency list with a map of list elements, kept as the oracle the slab
// must match operation for operation.
type listCache struct {
	capacity int
	policy   Policy
	onEvict  EvictFn

	// order holds *listFrame in recency order: front = most recently used
	// (LRU), or insertion order (FIFO/CLOCK with the hand at the back).
	order *list.List
	index map[Key]*list.Element

	// files is the per-file residency index, kept in lockstep with index.
	files map[uint64]*listFileIdx
	// epochs is the per-file residency epoch: bumped on every splice of a
	// file's run vector (a fresh page inserted, a resident page evicted or
	// invalidated). Dirty-bit changes (MarkDirty, Flush*) do not splice
	// runs and do not bump. Entries outlive the file's listFileIdx — the
	// epoch is monotone for the lifetime of the cache, never reset when
	// the last listFrame leaves — so FSLEDS_GET can memoize residency
	// skeletons against it without ever seeing an epoch value repeat with
	// different residency behind it.
	epochs map[uint64]uint64
	// tick stamps every move-to-front/insertion so that a file's frames
	// can be replayed in list order (descending stamp) without scanning
	// the list.
	tick uint64

	// scratch is reused by the file-scoped collect operations.
	scratch []*list.Element

	stats Stats
}

func newListCache(capacity int, policy Policy, onEvict EvictFn) *listCache {
	if capacity <= 0 {
		panic(fmt.Sprintf("cache: non-positive capacity %d", capacity))
	}
	return &listCache{
		capacity: capacity,
		policy:   policy,
		onEvict:  onEvict,
		order:    list.New(),
		index:    make(map[Key]*list.Element, capacity),
		files:    make(map[uint64]*listFileIdx),
		epochs:   make(map[uint64]uint64),
	}
}

// Len returns the number of resident pages.
func (c *listCache) Len() int { return c.order.Len() }

// touch moves e to the front and restamps it. Stamps mirror list order —
// a listFrame moved or pushed to the front always carries the highest stamp —
// so file-scoped operations can reconstruct list order by sorting.
func (c *listCache) touch(e *list.Element) {
	c.order.MoveToFront(e)
	c.tick++
	e.Value.(*listFrame).stamp = c.tick
}

// Get returns the page data if resident, updating recency state. The
// returned slice aliases the cached listFrame; callers must not retain it
// across evictions (the simulated kernel copies out immediately).
func (c *listCache) Get(k Key) ([]byte, bool) {
	e, ok := c.index[k]
	if !ok {
		return nil, false
	}
	f := e.Value.(*listFrame)
	switch c.policy {
	case LRU:
		c.touch(e)
	case Clock:
		f.ref = true
	case FIFO:
		// insertion order is never disturbed
	}
	c.stats.Hits++
	return f.data, true
}

// Contains reports residency WITHOUT touching recency state. This is what
// the kernel's FSLEDS_GET page scan uses: estimating latency must not
// itself reorder the cache (a probe effect the paper's implementation
// avoids by reading kernel page tables directly).
func (c *listCache) Contains(k Key) bool {
	_, ok := c.index[k]
	return ok
}

// fileOf returns the file's residency index, creating it if absent.
func (c *listCache) fileOf(file uint64) *listFileIdx {
	fi := c.files[file]
	if fi == nil {
		fi = &listFileIdx{}
		c.files[file] = fi
	}
	return fi
}

// unindex removes the listFrame from the hash index and the residency index
// (the caller owns removing it from the list).
func (c *listCache) unindex(f *listFrame) {
	delete(c.index, f.key)
	fi := c.files[f.key.File]
	if fi == nil {
		return
	}
	fi.remove(f.key.Page)
	c.epochs[f.key.File]++
	if f.dirty {
		fi.dirty--
	}
	if len(fi.runs) == 0 {
		delete(c.files, f.key.File)
	}
}

// Insert adds a page, evicting as needed. Inserting a key that is already
// resident replaces its data and dirty bit (and refreshes recency). The
// error (failure to find an eviction victim) is defensive — the bounded
// CLOCK sweep always terminates — but the read path is fallible now, so
// it is reported with context instead of panicking.
func (c *listCache) Insert(k Key, data []byte, dirty bool) error {
	if e, ok := c.index[k]; ok {
		f := e.Value.(*listFrame)
		f.data = data
		if dirty && !f.dirty {
			f.dirty = true
			c.fileOf(k.File).dirty++
		}
		switch c.policy {
		case LRU:
			c.touch(e)
		case Clock:
			f.ref = true
		}
		return nil
	}
	for c.order.Len() >= c.capacity {
		if err := c.evictOne(); err != nil {
			return fmt.Errorf("cache: inserting file %d page %d: %w", k.File, k.Page, err)
		}
	}
	c.tick++
	e := c.order.PushFront(&listFrame{key: k, data: data, dirty: dirty, stamp: c.tick})
	c.index[k] = e
	fi := c.fileOf(k.File)
	fi.insert(k.Page)
	c.epochs[k.File]++
	if dirty {
		fi.dirty++
	}
	c.stats.Inserts++
	return nil
}

// EvictOne removes one page according to the policy, invoking onEvict.
// Callers that must act between an eviction and a subsequent insertion
// (the kernel defers evicted dirty pages' write-backs so the multi-stream
// engine can suspend mid-write) evict explicitly with this before
// inserting; Insert still evicts on its own when room is short.
func (c *listCache) EvictOne() error { return c.evictOne() }

// evictOne removes one page according to the policy.
func (c *listCache) evictOne() error {
	var victim *list.Element
	switch c.policy {
	case LRU, FIFO:
		victim = c.order.Back()
	case Clock:
		// Second chance: examine the back; if referenced, clear the bit
		// and rotate to the front, else evict. Bounded by 2n iterations.
		for i := 0; i < 2*c.order.Len()+1; i++ {
			e := c.order.Back()
			f := e.Value.(*listFrame)
			if f.ref {
				f.ref = false
				c.touch(e)
				continue
			}
			victim = e
			break
		}
	}
	if victim == nil {
		return fmt.Errorf("cache: no eviction victim found (%d resident of %d frames, policy %s)",
			c.order.Len(), c.capacity, c.policy)
	}
	c.removeElement(victim)
	return nil
}

func (c *listCache) removeElement(e *list.Element) {
	f := e.Value.(*listFrame)
	c.order.Remove(e)
	c.unindex(f)
	c.stats.Evictions++
	if f.dirty {
		c.stats.DirtyEvictions++
	}
	if c.onEvict != nil {
		c.onEvict(f.key, f.data, f.dirty)
	}
}

// MarkDirty flags a resident page as modified; reports whether the page
// was resident.
func (c *listCache) MarkDirty(k Key) bool {
	e, ok := c.index[k]
	if !ok {
		return false
	}
	f := e.Value.(*listFrame)
	if !f.dirty {
		f.dirty = true
		c.fileOf(k.File).dirty++
	}
	return true
}

// Invalidate drops a page if resident, without calling onEvict for clean
// pages; dirty pages still flow through onEvict so data is not lost.
func (c *listCache) Invalidate(k Key) {
	e, ok := c.index[k]
	if !ok {
		return
	}
	f := e.Value.(*listFrame)
	if !f.dirty {
		c.order.Remove(e)
		c.unindex(f)
		return
	}
	c.removeElement(e)
}

// collectFile gathers the file's resident frames — just the dirty ones
// when dirtyOnly is set — in recency order (front of list first), using
// the residency index and the stamps instead of a whole-cache scan. The
// result aliases c.scratch; callers consume it before the next collect.
func (c *listCache) collectFile(file uint64, fi *listFileIdx, dirtyOnly bool) []*list.Element {
	els := c.scratch[:0]
	for _, r := range fi.runs {
		for p := r.Start; p < r.End; p++ {
			e := c.index[Key{File: file, Page: p}]
			if e == nil {
				continue // defensive: runs and index are kept in lockstep
			}
			if dirtyOnly && !e.Value.(*listFrame).dirty {
				continue
			}
			els = append(els, e)
		}
	}
	// Descending stamp = list front-to-back: the exact order the historical
	// whole-list scan visited these frames, which fixes the write-back and
	// eviction order the simulated devices observe.
	sort.Slice(els, func(i, j int) bool {
		return els[i].Value.(*listFrame).stamp > els[j].Value.(*listFrame).stamp
	})
	c.scratch = els
	return els
}

// InvalidateFile drops every page of the given file (used when a simulated
// file is deleted), touching only that file's frames.
func (c *listCache) InvalidateFile(file uint64) {
	fi := c.files[file]
	if fi == nil {
		return
	}
	for _, e := range c.collectFile(file, fi, false) {
		f := e.Value.(*listFrame)
		if f.dirty {
			c.removeElement(e)
		} else {
			c.order.Remove(e)
			c.unindex(f)
		}
	}
}

// FlushDirty invokes write for every dirty page (front-to-back) and marks
// them clean. It models sync/write-back without eviction.
func (c *listCache) FlushDirty(write func(Key, []byte)) {
	for e := c.order.Front(); e != nil; e = e.Next() {
		f := e.Value.(*listFrame)
		if f.dirty {
			if write != nil {
				write(f.key, f.data)
			}
			f.dirty = false
			if fi := c.files[f.key.File]; fi != nil {
				fi.dirty--
			}
		}
	}
}

// FlushFile invokes write for every dirty page of one file and marks them
// clean (fsync(2) for the simulated world). Only the file's own frames
// are visited — a file with no dirty pages costs one map lookup.
func (c *listCache) FlushFile(file uint64, write func(Key, []byte)) {
	fi := c.files[file]
	if fi == nil || fi.dirty == 0 {
		return
	}
	for _, e := range c.collectFile(file, fi, true) {
		f := e.Value.(*listFrame)
		if write != nil {
			write(f.key, f.data)
		}
		f.dirty = false
		fi.dirty--
	}
}

// ResidentRuns returns the file's resident pages as a sorted vector of
// maximally coalesced page runs, without touching recency state — the
// O(runs) residency snapshot FSLEDS_GET iterates. The returned slice
// aliases the index; callers must not modify it and should consume it
// before the next cache mutation.
func (c *listCache) ResidentRuns(file uint64) []Run {
	fi := c.files[file]
	if fi == nil {
		return nil
	}
	return fi.runs
}

// ResidencyEpoch returns the file's residency epoch: a counter that
// advances on every change to the file's resident-run vector and never
// moves backward or resets. Two calls returning the same value bracket a
// window in which ResidentRuns was unchanged — the invalidation signal
// core's skeleton memo keys on. Re-inserting a resident page (which only
// refreshes recency or the dirty bit) does not advance it.
func (c *listCache) ResidencyEpoch(file uint64) uint64 {
	return c.epochs[file]
}

// DirtyPages reports how many of the file's resident pages are dirty.
func (c *listCache) DirtyPages(file uint64) int {
	fi := c.files[file]
	if fi == nil {
		return 0
	}
	return fi.dirty
}

// AppendRecencyTrace appends the resident keys, most to least recently
// used, to dst and returns it — RecencyTrace without the per-call
// allocation, for harnesses that snapshot the cache repeatedly.
func (c *listCache) AppendRecencyTrace(dst []Key) []Key {
	for e := c.order.Front(); e != nil; e = e.Next() {
		dst = append(dst, e.Value.(*listFrame).key)
	}
	return dst
}

// RecencyTrace returns the resident keys from most to least recently used;
// the experiment harness uses it to render the paper's Figure 3 table.
func (c *listCache) RecencyTrace() []Key {
	return c.AppendRecencyTrace(make([]Key, 0, c.order.Len()))
}

// evictLog records eviction callbacks.
type evictLog struct{ ev []string }

func (l *evictLog) fn(key Key, data []byte, dirty bool) {
	l.ev = append(l.ev, fmt.Sprintf("%d/%d %q %v", key.File, key.Page, data, dirty))
}

// TestSlabMatchesListOracle drives the slab cache and the container/list
// oracle through the same seeded sequences of Insert, Get, EvictOne,
// Invalidate, MarkDirty, FlushFile, InvalidateFile and FlushDirty under
// every policy, comparing every answer, the eviction callbacks, the
// MRU-to-LRU order, every file's resident runs, dirty count and epoch,
// and the stats after each step.
func TestSlabMatchesListOracle(t *testing.T) {
	for _, pol := range []Policy{LRU, Clock, FIFO} {
		for seed := uint64(1); seed <= 30; seed++ {
			t.Run(fmt.Sprintf("%s/%d", pol, seed), func(t *testing.T) {
				rng := seed*0x9E3779B97F4A7C15 | 1
				next := func(n int64) int64 {
					rng ^= rng << 13
					rng ^= rng >> 7
					rng ^= rng << 17
					return int64(rng % uint64(n))
				}
				capacity := 1 + int(next(20))
				var log, rlog evictLog
				c := New(capacity, pol, log.fn)
				ref := newListCache(capacity, pol, rlog.fn)
				const files = 4
				key := func() Key { return Key{File: uint64(1 + next(files)), Page: next(24)} }
				for step := 0; step < 400; step++ {
					var what string
					switch op := next(16); {
					case op < 6:
						k := key()
						data := []byte(fmt.Sprint("s", step))
						dirty := next(3) == 0
						what = fmt.Sprintf("Insert(%v, %v)", k, dirty)
						err, rerr := c.Insert(k, data, dirty), ref.Insert(k, data, dirty)
						if fmt.Sprint(err) != fmt.Sprint(rerr) {
							t.Fatalf("step %d %s: %v, want %v", step, what, err, rerr)
						}
					case op < 10:
						k := key()
						what = fmt.Sprintf("Get(%v)", k)
						d, ok := c.Get(k)
						rd, rok := ref.Get(k)
						if ok != rok || !bytes.Equal(d, rd) {
							t.Fatalf("step %d %s = %q %v, want %q %v", step, what, d, ok, rd, rok)
						}
					case op == 10 && ref.Len() == 0:
						// The oracle's CLOCK sweep dereferences an empty
						// list's back; the kernel never evicts from an empty
						// cache, and the slab reports the missing victim.
						what = "EvictOne(empty)"
						if c.EvictOne() == nil {
							t.Fatalf("step %d %s: no error", step, what)
						}
					case op == 10:
						what = "EvictOne"
						err, rerr := c.EvictOne(), ref.EvictOne()
						if fmt.Sprint(err) != fmt.Sprint(rerr) {
							t.Fatalf("step %d %s: %v, want %v", step, what, err, rerr)
						}
					case op == 11:
						k := key()
						what = fmt.Sprintf("Invalidate(%v)", k)
						c.Invalidate(k)
						ref.Invalidate(k)
					case op == 12:
						k := key()
						what = fmt.Sprintf("MarkDirty(%v)", k)
						if got, want := c.MarkDirty(k), ref.MarkDirty(k); got != want {
							t.Fatalf("step %d %s = %v, want %v", step, what, got, want)
						}
					case op == 13:
						f := uint64(1 + next(files))
						what = fmt.Sprintf("FlushFile(%d)", f)
						var got, want []string
						c.FlushFile(f, func(k Key, d []byte) { got = append(got, fmt.Sprint(k, string(d))) })
						ref.FlushFile(f, func(k Key, d []byte) { want = append(want, fmt.Sprint(k, string(d))) })
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("step %d %s wrote %v, want %v", step, what, got, want)
						}
					case op == 14:
						f := uint64(1 + next(files))
						what = fmt.Sprintf("InvalidateFile(%d)", f)
						c.InvalidateFile(f)
						ref.InvalidateFile(f)
					default:
						what = "FlushDirty"
						var got, want []string
						c.FlushDirty(func(k Key, d []byte) { got = append(got, fmt.Sprint(k, string(d))) })
						ref.FlushDirty(func(k Key, d []byte) { want = append(want, fmt.Sprint(k, string(d))) })
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("step %d %s wrote %v, want %v", step, what, got, want)
						}
					}
					if !reflect.DeepEqual(log.ev, rlog.ev) {
						t.Fatalf("step %d %s: evictions %v, want %v", step, what, log.ev, rlog.ev)
					}
					if got, want := c.RecencyTrace(), ref.RecencyTrace(); !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d %s: recency %v, want %v", step, what, got, want)
					}
					if c.Len() != ref.Len() || c.Stats() != ref.stats {
						t.Fatalf("step %d %s: len %d stats %+v, want %d %+v", step, what, c.Len(), c.Stats(), ref.Len(), ref.stats)
					}
					for f := uint64(1); f <= files; f++ {
						if got, want := c.ResidentRuns(f), ref.ResidentRuns(f); !reflect.DeepEqual(got, want) {
							t.Fatalf("step %d %s: file %d runs %v, want %v", step, what, f, got, want)
						}
						if c.ResidencyEpoch(f) != ref.ResidencyEpoch(f) || c.DirtyPages(f) != ref.DirtyPages(f) {
							t.Fatalf("step %d %s: file %d epoch %d dirty %d, want %d %d", step, what, f,
								c.ResidencyEpoch(f), c.DirtyPages(f), ref.ResidencyEpoch(f), ref.DirtyPages(f))
						}
					}
				}
			})
		}
	}
}
