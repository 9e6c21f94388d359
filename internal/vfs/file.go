package vfs

import (
	"fmt"
	"io"

	"sleds/internal/cache"
	"sleds/internal/device"
)

// File is an open file descriptor over a simulated inode.
type File struct {
	k      *Kernel
	ino    *Inode
	pos    int64
	closed bool

	// clusterStart/clusterEnd delimit the page run faulted in by the
	// current request, so that serving its later pages is not
	// misaccounted as cache hits.
	clusterStart, clusterEnd int64
}

// Open opens the file at path. Directories cannot be opened.
func (k *Kernel) Open(path string) (*File, error) {
	n, err := k.lookup(path)
	if err != nil {
		return nil, err
	}
	if n.isDir {
		return nil, fmt.Errorf("vfs: %q: %w", path, ErrIsDir)
	}
	return &File{k: k, ino: n}, nil
}

// OpenInode opens an already-resolved inode (used by library code holding
// Walk results).
func (k *Kernel) OpenInode(n *Inode) (*File, error) {
	if n.isDir {
		return nil, fmt.Errorf("vfs: %q: %w", n.name, ErrIsDir)
	}
	return &File{k: k, ino: n}, nil
}

// Inode returns the file's inode.
func (f *File) Inode() *Inode { return f.ino }

// Size returns the current file size.
func (f *File) Size() int64 { return f.ino.size }

// Close invalidates the descriptor. Dirty pages stay in cache (write-back
// happens on eviction or Sync, as in the real kernel).
func (f *File) Close() error {
	if f.closed {
		return ErrClosed
	}
	f.closed = true
	return nil
}

// Sync writes the file's dirty pages to its device (fsync). A page whose
// write-back fails after the kernel's retries surfaces the first such
// error (fsync reports EIO), though the remaining pages are still
// attempted.
func (f *File) Sync() error {
	if f.closed {
		return ErrClosed
	}
	var firstErr error
	f.k.cache.FlushFile(uint64(f.ino.ino), func(key cache.Key, data []byte) {
		if err := f.k.writePageToDevice(f.ino, key.Page, data); err != nil && firstErr == nil {
			firstErr = err
		}
	})
	return firstErr
}

// Seek implements the usual lseek semantics.
func (f *File) Seek(offset int64, whence int) (int64, error) {
	if f.closed {
		return 0, ErrClosed
	}
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = f.pos
	case io.SeekEnd:
		base = f.ino.size
	default:
		return 0, fmt.Errorf("vfs: bad whence %d", whence)
	}
	np := base + offset
	if np < 0 {
		return 0, fmt.Errorf("vfs: seek to negative offset %d", np)
	}
	f.pos = np
	return np, nil
}

// Read reads from the current position.
func (f *File) Read(p []byte) (int, error) {
	n, err := f.ReadAt(p, f.pos)
	f.pos += int64(n)
	return n, err
}

// Write writes at the current position.
func (f *File) Write(p []byte) (int, error) {
	n, err := f.WriteAt(p, f.pos)
	f.pos += int64(n)
	return n, err
}

// ReadAt reads len(p) bytes at offset off, short at EOF with io.EOF.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	return f.readAt(p, off, true)
}

// ReadAtStep begins a resumable ReadAt: the returned step is either
// complete or suspended on a queued-device request for the engine to
// service (see resume.go).
func (f *File) ReadAtStep(p []byte, off int64) IOStep {
	return f.readAtStep(p, off, true, ioDone)
}

// ReadAtMappedStep begins a resumable ReadAtMapped.
func (f *File) ReadAtMappedStep(p []byte, off int64) IOStep {
	return f.readAtStep(p, off, false, ioDone)
}

// ReadStep begins a resumable Read from the current position; the cursor
// advances when the step completes.
func (f *File) ReadStep(p []byte) IOStep {
	return f.readAtStep(p, f.pos, true, func(n int64, err error) IOStep {
		f.pos += n
		return ioDone(n, err)
	})
}

// WriteAtStep begins a resumable WriteAt.
func (f *File) WriteAtStep(p []byte, off int64) IOStep {
	return f.writeAtStep(p, off, ioDone)
}

// WriteStep begins a resumable Write at the current position; the cursor
// advances when the step completes.
func (f *File) WriteStep(p []byte) IOStep {
	return f.writeAtStep(p, f.pos, func(n int64, err error) IOStep {
		f.pos += n
		return ioDone(n, err)
	})
}

// ReadAtMapped is ReadAt without the user-space copy charge: the mmap
// access path the paper points at for reducing the SLEDs CPU penalty ("We
// used read(), rather than mmap(), which does not copy the data to meet
// application alignment criteria. An mmap-friendly SLEDs library is
// feasible, which should reduce the CPU penalty", §5.2). Page faults cost
// exactly what they cost through read().
func (f *File) ReadAtMapped(p []byte, off int64) (int, error) {
	return f.readAt(p, off, false)
}

func (f *File) readAt(p []byte, off int64, chargeCopy bool) (int, error) {
	n, err := mustComplete(f.readAtStep(p, off, chargeCopy, ioDone), "read")
	return int(n), err
}

// readAtStep is readAt in resumable form: the per-page loop is an explicit
// continuation so a page fault suspended on a queued device resumes where
// it left off.
func (f *File) readAtStep(p []byte, off int64, chargeCopy bool, done func(n int64, err error) IOStep) IOStep {
	if f.closed {
		return done(0, ErrClosed)
	}
	if off < 0 {
		return done(0, fmt.Errorf("vfs: negative read offset %d", off))
	}
	if off >= f.ino.size {
		return done(0, io.EOF)
	}
	want := int64(len(p))
	if off+want > f.ino.size {
		want = f.ino.size - off
	}
	ps := int64(f.k.cfg.PageSize)
	f.clusterStart, f.clusterEnd = 0, 0
	var got int64
	var loop func() IOStep
	loop = func() IOStep {
		if got >= want {
			// Copying from the page cache to the user buffer costs memory
			// bandwidth (the paper notes read() "copies the data to meet
			// application alignment criteria", unlike mmap).
			if chargeCopy {
				f.chargeMemCopy(got)
			}
			f.k.stats.BytesRead += got
			if got < int64(len(p)) {
				return done(got, io.EOF)
			}
			return done(got, nil)
		}
		cur := off + got
		page := cur / ps
		inPage := cur % ps
		n := ps - inPage
		if n > want-got {
			n = want - got
		}
		return f.ensureResidentStep(page, want-got, func(data []byte, err error) IOStep {
			if err != nil {
				// Partial read up to the failed page; EIO surfaces to the app.
				f.k.stats.BytesRead += got
				return done(got, err)
			}
			copy(p[got:got+n], data[inPage:inPage+n])
			got += n
			return loop()
		})
	}
	return loop()
}

// ensureResidentStep hands done the cached data for a page, faulting it
// (and, if the immediately following pages are part of the same request or
// covered by configured readahead, a cluster) in from the device.
//
// remaining is how many more bytes the current read() still needs from
// this page onward; contiguous missing pages within that window are
// fetched in a single device request, which is how the real kernel
// clusters paging I/O.
//
// A device fault is retried per the kernel's RetryPolicy; an error
// (wrapping ErrIO) means the policy gave up. The step is resumable: the
// cluster computation is synchronous, the device access and the per-page
// inserts (whose evictions may suspend on write-back) are continuations.
//
// The data aliases a cache frame, valid only until the next cache
// mutation: done must consume it before it inserts or evicts anything,
// because evicted frames are recycled (see Kernel.newFrame).
func (f *File) ensureResidentStep(page, remaining int64, done func(data []byte, err error) IOStep) IOStep {
	k := f.k
	key := cache.Key{File: uint64(f.ino.ino), Page: page}
	if data, ok := k.cache.Get(key); ok {
		if k.waitIfPending(key) {
			// Served by an asynchronous prefetch (possibly after waiting
			// for it to complete); accounted as PrefetchedPages.
			return done(data, nil)
		}
		// Pages pulled in by this very request's cluster are not cache
		// hits in the measured sense; they were faulted moments ago.
		if page < f.clusterStart || page >= f.clusterEnd {
			k.stats.CacheHits++
		}
		return done(data, nil)
	}
	k.cache.RecordMiss()

	ps := int64(k.cfg.PageSize)
	filePages := (f.ino.size + ps - 1) / ps

	// Cluster: the missing pages this request needs, plus readahead,
	// never more than the cache can hold (a larger cluster would evict
	// its own leading pages before they are served).
	wantPages := (remaining + ps - 1) / ps
	cluster := wantPages + int64(k.cfg.ReadaheadPages)
	if page+cluster > filePages {
		cluster = filePages - page
	}
	if max := int64(k.cache.Cap()); cluster > max {
		cluster = max
	}
	if cluster < 1 {
		cluster = 1
	}
	// Stop the cluster at the first already-resident page: re-reading it
	// would be wasted device work.
	run := int64(1)
	for run < cluster && !k.cache.Contains(cache.Key{File: uint64(f.ino.ino), Page: page + run}) {
		run++
	}
	// Never let one request cross a device chunk boundary (tape
	// cartridges).
	dev := k.Devices.Get(f.ino.dev)
	start := f.ino.extent + page*ps
	length := run * ps
	if cb, ok := dev.(interface{ ChunkSize() int64 }); ok {
		chunk := cb.ChunkSize()
		if end := start + length; start/chunk != (end-1)/chunk {
			length = (start/chunk+1)*chunk - start
			run = length / ps
			if run < 1 {
				run = 1
				length = ps
			}
		}
	}

	var issue func() error
	if k.stager != nil && k.stagedDevs[f.ino.dev] {
		issue = func() error { return k.stager.Fetch(f.ino, start, length) }
	} else {
		issue = func() error { return device.ReadErr(dev, k.Clock, start, length) }
	}
	return k.accessStep(issue, func(err error) IOStep {
		if err != nil {
			return done(nil, err)
		}
		q := page
		var insertLoop func() IOStep
		insertLoop = func() IOStep {
			if q >= page+run {
				// Demand-missed pages are hard faults; pure readahead beyond
				// the requested window is accounted separately.
				demand := run
				if demand > wantPages {
					k.stats.ReadaheadPages += demand - wantPages
					demand = wantPages
				}
				k.stats.Faults += demand
				f.clusterStart, f.clusterEnd = page, page+run

				data, ok := k.cache.Get(key)
				if !ok {
					panic("vfs: page vanished immediately after fault") //sledlint:allow panicpath -- cache invariant: the fault path just inserted this page
				}
				return done(data, nil)
			}
			buf := k.newFrame()
			f.ino.content.ReadPage(q, buf)
			qk := cache.Key{File: uint64(f.ino.ino), Page: q}
			return k.insertStep(qk, buf, false, func(err error) IOStep {
				if err != nil {
					return done(nil, err)
				}
				q++
				return insertLoop()
			})
		}
		return insertLoop()
	})
}

// WriteAt writes len(p) bytes at offset off, growing the file as needed.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	n, err := mustComplete(f.writeAtStep(p, off, ioDone), "write")
	return int(n), err
}

// writeAtStep is WriteAt in resumable form; the suspension points are the
// read-modify-write page fault and write-backs of pages its insertions
// evict.
func (f *File) writeAtStep(p []byte, off int64, done func(n int64, err error) IOStep) IOStep {
	if f.closed {
		return done(0, ErrClosed)
	}
	if off < 0 {
		return done(0, fmt.Errorf("vfs: negative write offset %d", off))
	}
	dev := f.k.Devices.Get(f.ino.dev)
	if ro, ok := dev.(interface{ ReadOnly() bool }); ok && ro.ReadOnly() {
		return done(0, fmt.Errorf("vfs: %q on %q: %w", f.ino.name, dev.Info().Name, ErrReadOnly))
	}
	if len(p) == 0 {
		return done(0, nil)
	}
	if err := f.k.ensureExtent(f.ino, off+int64(len(p))); err != nil {
		return done(0, err)
	}

	ps := int64(f.k.cfg.PageSize)
	var got int64
	want := int64(len(p))
	var loop func() IOStep
	loop = func() IOStep {
		if got >= want {
			if off+want > f.ino.size {
				f.ino.size = off + want
			}
			f.chargeMemCopy(want)
			f.k.stats.BytesWritten += want
			return done(want, nil)
		}
		cur := off + got
		page := cur / ps
		inPage := cur % ps
		n := ps - inPage
		if n > want-got {
			n = want - got
		}

		key := cache.Key{File: uint64(f.ino.ino), Page: page}
		if data, ok := f.k.cache.Get(key); ok {
			// Page resident: mutate in place.
			copy(data[inPage:inPage+n], p[got:got+n])
			f.k.cache.MarkDirty(key)
			got += n
			return loop()
		}
		if n == ps || cur >= f.ino.size {
			// Full-page write, or write entirely beyond current EOF: no
			// read needed; any EOF gap within the page is zero.
			buf := make([]byte, ps)
			if cur > f.ino.size && f.ino.size > page*ps {
				// Part of this page below cur holds file data: fetch it.
				f.ino.content.ReadPage(page, buf)
			}
			copy(buf[inPage:inPage+n], p[got:got+n])
			return f.k.insertStep(key, buf, true, func(err error) IOStep {
				if err != nil {
					return done(got, err)
				}
				got += n
				return loop()
			})
		}
		// Partial overwrite of a non-resident page: read-modify-write.
		return f.ensureResidentStep(page, n, func(data []byte, err error) IOStep {
			if err != nil {
				return done(got, err)
			}
			copy(data[inPage:inPage+n], p[got:got+n])
			f.k.cache.MarkDirty(key)
			got += n
			return loop()
		})
	}
	return loop()
}

// chargeMemCopy accounts the user/kernel copy cost as CPU time.
func (f *File) chargeMemCopy(n int64) {
	k := f.k
	before := k.Clock.Now()
	k.cfg.MemDevice.Read(k.Clock, 0, n)
	k.stats.CPUTime += k.Clock.Now() - before
}

// ensureExtent grows the inode's device reservation to cover size bytes.
func (k *Kernel) ensureExtent(n *Inode, size int64) error {
	ps := int64(k.cfg.PageSize)
	need := (size + ps - 1) / ps * ps
	have := n.reserved
	if need <= have {
		return nil
	}
	grow := need - have
	if k.nextAlloc[n.dev] == n.extent+have {
		// The file is the device's most recent allocation: extend in
		// place (the common case: output files are created last).
		d := k.Devices.Get(n.dev)
		if cb, ok := d.(interface{ ChunkSize() int64 }); ok {
			chunk := cb.ChunkSize()
			if n.extent/chunk != (n.extent+need-1)/chunk {
				return fmt.Errorf("vfs: growing %q across a cartridge: %w", n.name, ErrNoSpace)
			}
		}
		if devSize := d.Info().Size; devSize > 0 && n.extent+need > devSize {
			return fmt.Errorf("vfs: device %q full: %w", d.Info().Name, ErrNoSpace)
		}
		k.nextAlloc[n.dev] += grow
		n.reserved = need
		return nil
	}
	// Relocate: allocate a fresh extent. The simulator moves no bytes —
	// contents are address-independent — so this under-charges the copy
	// an extent-based FS would do; acceptable because the workloads only
	// grow the most recently created file.
	extent, err := k.allocExtent(n.dev, need)
	if err != nil {
		return err
	}
	n.extent = extent
	n.reserved = need
	return nil
}
