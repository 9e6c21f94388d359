// FSLEDS_GET as skeleton + overlay, with a memo of skeletons.
//
// Query's cost has two very different halves. The run/gap/zone
// decomposition of a file — which sections are resident, which device
// and device zone backs each gap — changes only when the cache's
// residency, the table's configuration or a stager's migration state
// changes. The load and health terms folded into each gap's latency
// change on practically every query. Every query therefore builds (or
// finds) the first half as a *residency skeleton* (a skelSeg vector
// with unloaded base entries, each device segment naming its backing
// device) and runs it through a *dynamic overlay* that samples each
// backing device once and re-estimates each segment in
// O(devices + segments).
//
// The memo caches skeletons per file. Invalidation is by epoch
// comparison, not notification: a lookup is valid iff the file's
// residency epoch (cache splice counter), the table's config epoch
// (SetMemory/SetDevice/SetDeviceZones/SetLoad counter) and the inode
// geometry (size, extent, device) all match the values captured at
// build time. Everything else that can change a SLED vector — queue
// depth, in-flight time, fault penalties and their decay, half-life
// changes, health resets — is sampled fresh by the overlay on every
// query, so it needs no epoch (the mutator-audit tests pin this). Two
// kinds of query are never cached: files on a staged device (HSM or a
// remote mount), whose stager moves pages between levels per its own
// migration state, which no epoch covers; and every query at capacity
// 0. Both build into the memo's scratch entry, which is never looked up
// again and never counted in MemoStats.
//
// Bit-identity with the per-page reference scan (queryRef, test-only)
// is load-bearing and relies on three facts. First, the overlay samples
// exactly the devices that back some uncached page, each once per
// query, in first-use order — so the lazy health decay (which is
// stateful and not step-composable in floating point) advances exactly
// as under the per-page scan, and a device missing from the table
// errors after the same devices were sampled. Second, estimate() is a
// deterministic map from (base, sample) to (entry, confidence): equal
// inputs give equal bits. Third, coalescing is associative, so
// pre-merging adjacent skeleton segments with the same device and base
// entry commutes with the coalescing of the output vector.
package core

import (
	"fmt"
	"math"

	"sleds/internal/device"
	"sleds/internal/simclock"
	"sleds/internal/vfs"
)

// DefaultMemoFiles is the default skeleton-memo capacity: enough for
// every file the experiment machines and the fleet tier keep live,
// small enough (a few runs' worth of segments per file) to be
// negligible next to the page cache itself.
const DefaultMemoFiles = 1024

// skelSeg is one segment of a residency skeleton: a byte range of the
// file together with the *unloaded* entry backing it. Memory segments
// (dev memSeg) carry the memory entry (confidence 1, no overlay term);
// device segments carry the zone's base entry and the index of their
// device in the entry's devs, to be run through that device's overlay
// estimate.
type skelSeg struct {
	off, end int64 // byte range [off, end), end clamped to file size
	dev      int   // index into memoEntry.devs, or memSeg
	base     Entry
}

// memSeg is the dev of a resident (memory-backed) skeleton segment.
const memSeg = -1

// overlaySample is the dynamic state folded into one query, captured so
// a repeat query under an identical sample can replay the previous
// output with a copy. Comparable: all fields are value types, and the
// floats involved are never NaN (penalties and durations are finite and
// non-negative).
type overlaySample struct {
	load  bool
	depth int
	rem   simclock.Duration
	pen   float64
}

// memoKey identifies a skeleton: the kernel disambiguates tables shared
// across machines, and inode numbers are allocated monotonically and
// never reused, so a key can never silently come to mean another file.
type memoKey struct {
	k   *vfs.Kernel
	ino vfs.Ino
}

// memoEntry is one file's skeleton plus the output of the most recent
// overlay run. Buffers (segs, devs, out) are retained across rebuilds
// so the steady state — including the rebuild-after-epoch-bump path and
// the uncached scratch path — stays allocation-free.
type memoEntry struct {
	key memoKey

	ok       bool // false until the first build
	resEpoch uint64
	cfgEpoch uint64
	size     int64
	extent   int64
	dev      device.ID
	devs     []device.ID // devices backing gap segments, in first-use order
	segs     []skelSeg

	haveOut bool // out/sample hold the previous overlay run
	sample  overlaySample
	out     []SLED

	prev, next *memoEntry // intrusive LRU list (front = most recent)
}

// MemoStats counts skeleton-memo activity since table construction.
type MemoStats struct {
	Hits       int64 // valid skeleton found (overlay only)
	Misses     int64 // no entry, stale epoch, or changed geometry (rebuild)
	FastCopies int64 // hits whose sample matched: output replayed by copy
	Evictions  int64 // entries dropped by the LRU bound
}

// sledMemo is a bounded LRU-over-files skeleton cache. Lookups go
// through the map; recency and eviction through the intrusive list (the
// map is never iterated, keeping the memo deterministic).
type sledMemo struct {
	cap     int
	entries map[memoKey]*memoEntry
	front   *memoEntry
	back    *memoEntry
	stats   MemoStats

	// scratch holds the skeleton of an uncached query (staged file or
	// capacity 0): built, overlaid and dropped.
	scratch memoEntry
	// samples is per-query device state indexed like an entry's devs:
	// zone cursors while building, overlay samples after.
	samples []querySample
}

func newSledMemo(capacity int) *sledMemo {
	return &sledMemo{
		cap:     capacity,
		entries: make(map[memoKey]*memoEntry, capacity),
	}
}

// detach unlinks e from the LRU list.
func (m *sledMemo) detach(e *memoEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if m.front == e {
		m.front = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if m.back == e {
		m.back = e.prev
	}
	e.prev, e.next = nil, nil
}

// pushFront links e as the most recently used entry.
func (m *sledMemo) pushFront(e *memoEntry) {
	e.next = m.front
	if m.front != nil {
		m.front.prev = e
	}
	m.front = e
	if m.back == nil {
		m.back = e
	}
}

// moveToFront refreshes e's recency.
func (m *sledMemo) moveToFront(e *memoEntry) {
	if m.front == e {
		return
	}
	m.detach(e)
	m.pushFront(e)
}

// install makes room and creates a fresh entry for key. This is the one
// allocating path of the memo: it runs once per file (plus once per
// re-admission after an LRU eviction), never in the steady state the
// alloc gates measure.
func (m *sledMemo) install(key memoKey) *memoEntry {
	for len(m.entries) >= m.cap && m.back != nil {
		victim := m.back
		m.detach(victim)
		delete(m.entries, victim.key)
		m.stats.Evictions++
	}
	//sledlint:allow hotalloc -- first query of a file only: the entry and its buffers are allocated once and reused across every later rebuild
	e := &memoEntry{key: key}
	m.entries[key] = e
	m.pushFront(e)
	return e
}

// query is FSLEDS_GET for a non-directory: epoch-checked lookup,
// skeleton (re)build on miss, dynamic overlay on every call. Staged
// files and capacity 0 skip the lookup and build into the scratch
// entry.
//
//sledlint:hotpath
func (m *sledMemo) query(dst []SLED, k *vfs.Kernel, t *Table, n *vfs.Inode) ([]SLED, error) {
	if !t.haveMem {
		return nil, fmt.Errorf("core: sleds table has no memory entry (boot fill missing?)")
	}
	size := n.Size()
	if size == 0 {
		return dst[:0], nil
	}
	if m.cap <= 0 || k.DeviceStaged(n.Device()) {
		m.build(&m.scratch, k, t, n)
		return m.overlay(&m.scratch, dst, t, k, n)
	}
	resEpoch := k.ResidencyEpoch(n)
	key := memoKey{k: k, ino: n.Ino()}
	e := m.entries[key]
	if e != nil {
		m.moveToFront(e)
		if e.ok && e.resEpoch == resEpoch && e.cfgEpoch == t.cfgEpoch &&
			e.size == size && e.extent == n.Extent() && e.dev == n.Device() {
			m.stats.Hits++
			return m.overlay(e, dst, t, k, n)
		}
	} else {
		e = m.install(key)
	}
	m.stats.Misses++
	m.build(e, k, t, n)
	e.ok = true
	e.resEpoch = resEpoch
	e.cfgEpoch = t.cfgEpoch
	e.size = size
	e.extent = n.Extent()
	e.dev = n.Device()
	return m.overlay(e, dst, t, k, n)
}

// build derives n's residency skeleton into e, reusing e's buffers.
// Resident runs become memory segments. Each gap is cut where its
// backing device's zone changes, found with a monotone per-device zone
// cursor, so a file on an unstaged device costs O(runs + zones). On a
// staged device the gap is also cut at every page, and the stager names
// the device backing each page. A device missing from the table still
// gets its segments (with a zero base): the overlay raises the error
// when it samples that device, in the per-page scan's order.
//
//sledlint:hotpath
func (m *sledMemo) build(e *memoEntry, k *vfs.Kernel, t *Table, n *vfs.Inode) {
	size := n.Size()
	ps := int64(k.PageSize())
	pages := (size + ps - 1) / ps
	extent := n.Extent()
	staged := k.DeviceStaged(n.Device())
	runs := k.ResidentRuns(n)

	est := 2*len(runs) + 1
	if zs, ok := t.zones[n.Device()]; ok {
		est += len(zs) - 1
	}
	segs := e.segs[:0]
	if cap(segs) < est {
		segs = make([]skelSeg, 0, est)
	}
	devs := e.devs[:0]
	curs := m.samples[:0]

	gap := func(from, to int64) {
		for p := from; p < to; {
			id := n.Device()
			if staged {
				id = k.DeviceForPage(n, p)
			}
			di := 0
			for di < len(devs) && devs[di] != id {
				di++
			}
			if di == len(devs) {
				devs = append(devs, id)
				curs = append(curs, t.cursor(id))
			}
			base, until := curs[di].entryAt(extent + p*ps)
			segEnd := to
			if staged {
				segEnd = p + 1
			} else if until != math.MaxInt64 {
				// First page whose start offset reaches the next zone.
				if q := (until - extent + ps - 1) / ps; q < segEnd {
					segEnd = q
				}
			}
			if segEnd <= p {
				segEnd = p + 1 // defensive: guarantee progress
			}
			segs = appendSeg(segs, p*ps, min(segEnd*ps, size), di, base)
			p = segEnd
		}
	}

	cursor := int64(0)
	for _, r := range runs {
		start, end := r.Start, r.End
		if start < cursor {
			start = cursor
		}
		if end > pages {
			end = pages
		}
		if start >= end {
			continue
		}
		if cursor < start {
			gap(cursor, start)
		}
		segs = appendSeg(segs, start*ps, min(end*ps, size), memSeg, t.mem)
		cursor = end
	}
	if cursor < pages {
		gap(cursor, pages)
	}
	e.segs, e.devs, m.samples = segs, devs, curs
	e.haveOut = false
}

// overlay folds the dynamic state into e's skeleton. Each device in
// e.devs is sampled once, in first-use order, and errors there if the
// table has no entry for it. When a single-device entry's sample
// matches its previous overlay run bit for bit, the cached output is
// replayed with a copy (never aliased: callers own dst and recycle it
// across files). The scratch entry retains nothing.
//
//sledlint:hotpath
func (m *sledMemo) overlay(e *memoEntry, dst []SLED, t *Table, k *vfs.Kernel, n *vfs.Inode) ([]SLED, error) {
	now := k.Clock.Now()
	samples := m.samples[:0]
	for _, id := range e.devs {
		s := t.sampleDevice(id, now)
		if !s.ok {
			return nil, fmt.Errorf("core: no sleds table entry for device %d (file %q)", id, n.Name())
		}
		samples = append(samples, s)
	}
	m.samples = samples

	var dyn overlaySample
	if len(samples) == 1 {
		dyn = overlaySample{load: samples[0].load, depth: samples[0].depth, rem: samples[0].rem, pen: samples[0].pen}
	}
	if e.haveOut && len(e.devs) <= 1 && dyn == e.sample {
		m.stats.FastCopies++
		out := dst[:0]
		if cap(out) < len(e.out) {
			out = make([]SLED, 0, len(e.out))
		}
		out = out[:len(e.out)]
		copy(out, e.out)
		return out, nil
	}

	out := dst[:0]
	if cap(out) < len(e.segs) {
		out = make([]SLED, 0, len(e.segs))
	}
	for i := range e.segs {
		s := &e.segs[i]
		if s.dev == memSeg {
			out = appendSLED(out, s.off, s.end-s.off, s.base, 1)
		} else {
			ent, conf := samples[s.dev].estimate(s.base)
			out = appendSLED(out, s.off, s.end-s.off, ent, conf)
		}
	}
	if e == &m.scratch {
		return out, nil
	}

	// Retain this run's output for the next sample-equal query.
	e.sample = dyn
	saved := e.out[:0]
	if cap(saved) < len(out) {
		saved = make([]SLED, 0, len(out))
	}
	saved = saved[:len(out)]
	copy(saved, out)
	e.out = saved
	e.haveOut = true
	return out, nil
}

// appendSeg appends the byte range [off, end) backed by dev and base to
// segs, merging with the previous segment when contiguous and backed by
// the same device and entry (safe: equal inputs give equal estimates,
// which the output would coalesce anyway).
//
//sledlint:hotpath
func appendSeg(segs []skelSeg, off, end int64, dev int, base Entry) []skelSeg {
	if l := len(segs) - 1; l >= 0 && segs[l].dev == dev && segs[l].base == base && segs[l].end == off {
		segs[l].end = end
		return segs
	}
	return append(segs, skelSeg{off: off, end: end, dev: dev, base: base})
}

// appendSLED appends one estimated section to out, coalescing with the
// previous SLED when contiguous and estimate-equal.
//
//sledlint:hotpath
func appendSLED(out []SLED, off, length int64, e Entry, conf float64) []SLED {
	cur := SLED{Offset: off, Length: length, Latency: e.Latency, Bandwidth: e.Bandwidth, Confidence: conf}
	if last := len(out) - 1; last >= 0 && out[last].SameEstimates(cur) && out[last].End() == cur.Offset {
		out[last].Length += cur.Length
		return out
	}
	return append(out, cur)
}
