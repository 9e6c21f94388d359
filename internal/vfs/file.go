package vfs

import (
	"fmt"
	"io"

	"sleds/internal/cache"
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
	return f.readAtStep(p, off, true, false)
}

// ReadAtMappedStep begins a resumable ReadAtMapped.
func (f *File) ReadAtMappedStep(p []byte, off int64) IOStep {
	return f.readAtStep(p, off, false, false)
}

// ReadStep begins a resumable Read from the current position; the cursor
// advances when the step completes.
func (f *File) ReadStep(p []byte) IOStep {
	return f.readAtStep(p, f.pos, true, true)
}

// WriteAtStep begins a resumable WriteAt.
func (f *File) WriteAtStep(p []byte, off int64) IOStep {
	return f.writeAtStep(p, off, false)
}

// WriteStep begins a resumable Write at the current position; the cursor
// advances when the step completes.
func (f *File) WriteStep(p []byte) IOStep {
	return f.writeAtStep(p, f.pos, true)
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
	n, err := mustComplete(f.readAtStep(p, off, chargeCopy, false), "read")
	return int(n), err
}

// readAtStep starts readAt's machine (opRead); advance moves the cursor by
// the result.
func (f *File) readAtStep(p []byte, off int64, chargeCopy, advance bool) IOStep {
	if f.closed {
		return DoneStep(0, ErrClosed)
	}
	if off < 0 {
		return DoneStep(0, fmt.Errorf("vfs: negative read offset %d", off))
	}
	if off >= f.ino.size {
		return DoneStep(0, io.EOF)
	}
	want := int64(len(p))
	if off+want > f.ino.size {
		want = f.ino.size - off
	}
	f.clusterStart, f.clusterEnd = 0, 0
	op := f.k.newOp(opRead)
	op.f, op.p, op.off, op.want = f, p, off, want
	op.copyCharge, op.advance = chargeCopy, advance
	return f.k.run(op, nil)
}

// nextPage positions a read or write loop on the page holding its next
// byte: the page, the offset within it and the bytes it contributes.
func (op *ioOp) nextPage() {
	ps := int64(op.k.cfg.PageSize)
	cur := op.off + op.got
	op.page, op.inPage = cur/ps, cur%ps
	op.span = min(ps-op.inPage, op.want-op.got)
}

// read serves the next page of a read from the cache, or faults it in.
func (op *ioOp) read() {
	f := op.f
	if op.got >= op.want {
		// Copying from the page cache to the user buffer costs memory
		// bandwidth (the paper notes read() "copies the data to meet
		// application alignment criteria", unlike mmap).
		if op.copyCharge {
			f.chargeMemCopy(op.got)
		}
		f.k.stats.BytesRead += op.got
		if op.got < int64(len(op.p)) {
			op.finish(op.got, io.EOF)
			return
		}
		op.finish(op.got, nil)
		return
	}
	op.nextPage()
	if data, ok := f.cached(op.page); ok {
		copy(op.p[op.got:op.got+op.span], data[op.inPage:op.inPage+op.span])
		op.got += op.span
		return
	}
	op.faultIn(op.want-op.got, opReadFaulted)
}

// readFaulted copies a faulted page out, or ends the read short of the
// failed page; EIO surfaces to the app.
func (op *ioOp) readFaulted() {
	if op.err != nil {
		op.f.k.stats.BytesRead += op.got
		op.finish(op.got, op.err)
		return
	}
	copy(op.p[op.got:op.got+op.span], op.data[op.inPage:op.inPage+op.span])
	op.data = nil
	op.got += op.span
	op.state = opRead
}

// cached returns the page's data if it is resident, with hit accounting:
// a page served by an asynchronous prefetch (possibly after waiting for it
// to complete) counts as PrefetchedPages, and a page this very request's
// cluster pulled in moments ago is not a cache hit in the measured sense.
// A miss is recorded. The data aliases a cache frame, valid until the next
// cache mutation.
func (f *File) cached(page int64) ([]byte, bool) {
	k := f.k
	key := cache.Key{File: uint64(f.ino.ino), Page: page}
	data, ok := k.cache.Get(key)
	if !ok {
		k.cache.RecordMiss()
		return nil, false
	}
	if !k.waitIfPending(key) && (page < f.clusterStart || page >= f.clusterEnd) {
		k.stats.CacheHits++
	}
	return data, true
}

// faultIn calls the fault machine for the loop's current page, resuming
// at next with the page's data (or the error) in the result registers.
// remaining is how many more bytes the current request still needs from
// this page onward.
func (op *ioOp) faultIn(remaining int64, next opState) {
	ps := int64(op.k.cfg.PageSize)
	op.fPage, op.wantPages = op.page, (remaining+ps-1)/ps
	op.call(opFault, next)
}

// fault starts faulting in a missing page — and, if the immediately
// following pages are part of the same request or covered by configured
// readahead, a cluster — from the device. Contiguous missing pages within
// the request's window are fetched in a single device request, which is
// how the real kernel clusters paging I/O. A device fault is retried per
// the kernel's RetryPolicy; an error (wrapping ErrIO) means the policy
// gave up.
func (op *ioOp) fault() {
	k, f, page := op.k, op.f, op.fPage
	ps := int64(k.cfg.PageSize)
	filePages := (f.ino.size + ps - 1) / ps

	// Cluster: the missing pages this request needs, plus readahead,
	// never more than the cache can hold (a larger cluster would evict
	// its own leading pages before they are served).
	cluster := op.wantPages + int64(k.cfg.ReadaheadPages)
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
	op.run = run
	a := devAccess{kind: accRead, dev: dev, off: start, length: length}
	if k.stager != nil && k.stagedDevs[f.ino.dev] {
		a = devAccess{kind: accStage, ino: f.ino, off: start, length: length}
	}
	op.access(a, true, opFaultRead)
}

// faultRead starts inserting the cluster a successful read brought in.
func (op *ioOp) faultRead() {
	if op.err != nil {
		op.ret()
		return
	}
	op.q = op.fPage
	op.state = opFaultInsert
}

// faultInsert inserts the next cluster page (evictions may suspend on
// write-back), or — the cluster in — serves the demanded page. The
// demanded page is held against eviction from its insertion until it is
// served, as the real kernel's page lock keeps it: otherwise a CLOCK
// sweep that rotates every referenced page ahead of it would evict it to
// make room for its own cluster.
func (op *ioOp) faultInsert() {
	k, f := op.k, op.f
	if op.q < op.fPage+op.run {
		buf := k.newFrame()
		f.ino.content.ReadPage(op.q, buf)
		op.ikey = cache.Key{File: uint64(f.ino.ino), Page: op.q}
		op.ibuf, op.idirty = buf, false
		op.call(opInsert, opFaultInserted)
		return
	}
	// Demand-missed pages are hard faults; pure readahead beyond the
	// requested window is accounted separately.
	demand := op.run
	if demand > op.wantPages {
		k.stats.ReadaheadPages += demand - op.wantPages
		demand = op.wantPages
	}
	k.stats.Faults += demand
	f.clusterStart, f.clusterEnd = op.fPage, op.fPage+op.run

	key := cache.Key{File: uint64(f.ino.ino), Page: op.fPage}
	data, ok := k.cache.Get(key)
	if !ok {
		panic("vfs: page vanished immediately after fault") //sledlint:allow panicpath -- cache invariant: the fault path just inserted this page and held it
	}
	k.cache.Release(key)
	op.data = data
	op.ret()
}

// faultInserted moves on to the next cluster page, holding the demanded
// one once it is in.
func (op *ioOp) faultInserted() {
	if op.err != nil {
		op.k.cache.Release(cache.Key{File: uint64(op.f.ino.ino), Page: op.fPage})
		op.ret()
		return
	}
	if op.q == op.fPage {
		op.k.cache.Hold(op.ikey)
	}
	op.q++
	op.state = opFaultInsert
}

// WriteAt writes len(p) bytes at offset off, growing the file as needed.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	n, err := mustComplete(f.writeAtStep(p, off, false), "write")
	return int(n), err
}

// writeAtStep starts WriteAt's machine (opWrite); advance moves the cursor
// by the result. Its suspension points are the read-modify-write page
// fault and write-backs of pages its insertions evict.
func (f *File) writeAtStep(p []byte, off int64, advance bool) IOStep {
	if f.closed {
		return DoneStep(0, ErrClosed)
	}
	if off < 0 {
		return DoneStep(0, fmt.Errorf("vfs: negative write offset %d", off))
	}
	dev := f.k.Devices.Get(f.ino.dev)
	if ro, ok := dev.(interface{ ReadOnly() bool }); ok && ro.ReadOnly() {
		return DoneStep(0, fmt.Errorf("vfs: %q on %q: %w", f.ino.name, dev.Info().Name, ErrReadOnly))
	}
	if len(p) == 0 {
		return DoneStep(0, nil)
	}
	if err := f.k.ensureExtent(f.ino, off+int64(len(p))); err != nil {
		return DoneStep(0, err)
	}
	op := f.k.newOp(opWrite)
	op.f, op.p, op.off, op.want = f, p, off, int64(len(p))
	op.advance = advance
	return f.k.run(op, nil)
}

// write patches the next page of a write: in place when resident, into a
// fresh frame when the write covers the page or lies beyond EOF, else by
// read-modify-write.
func (op *ioOp) write() {
	f := op.f
	k := f.k
	if op.got >= op.want {
		if op.off+op.want > f.ino.size {
			f.ino.size = op.off + op.want
		}
		f.chargeMemCopy(op.want)
		k.stats.BytesWritten += op.want
		op.finish(op.want, nil)
		return
	}
	op.nextPage()
	ps := int64(k.cfg.PageSize)
	src := op.p[op.got : op.got+op.span]
	key := cache.Key{File: uint64(f.ino.ino), Page: op.page}
	if data, ok := k.cache.Get(key); ok {
		// Page resident: mutate in place.
		copy(data[op.inPage:], src)
		k.cache.MarkDirty(key)
		op.got += op.span
		return
	}
	cur := op.off + op.got
	if op.span == ps || cur >= f.ino.size {
		// Full-page write, or write entirely beyond current EOF: no read
		// needed; any EOF gap within the page is zero.
		buf := k.newFrame()
		if cur > f.ino.size && f.ino.size > op.page*ps {
			// Part of this page below cur holds file data: fetch it.
			f.ino.content.ReadPage(op.page, buf)
		} else if op.span < ps {
			clear(buf)
		}
		copy(buf[op.inPage:], src)
		op.ikey, op.ibuf, op.idirty = key, buf, true
		op.call(opInsert, opWriteInserted)
		return
	}
	// Partial overwrite of a non-resident page: read-modify-write.
	k.cache.RecordMiss()
	op.faultIn(op.span, opWriteFaulted)
}

// writeInserted moves past a page that went in whole, or ends the write
// short of it.
func (op *ioOp) writeInserted() {
	if op.err != nil {
		op.finish(op.got, op.err)
		return
	}
	op.got += op.span
	op.state = opWrite
}

// writeFaulted patches a page read-modify-write brought in, or ends the
// write short of it.
func (op *ioOp) writeFaulted() {
	if op.err != nil {
		op.finish(op.got, op.err)
		return
	}
	copy(op.data[op.inPage:], op.p[op.got:op.got+op.span])
	op.data = nil
	op.k.cache.MarkDirty(cache.Key{File: uint64(op.f.ino.ino), Page: op.page})
	op.got += op.span
	op.state = opWrite
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
