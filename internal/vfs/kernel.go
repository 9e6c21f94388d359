// Package vfs implements the simulated kernel's file layer: a rooted
// directory tree of inodes whose data lives on simulated devices
// (internal/device), read and written page-at-a-time through the buffer
// cache (internal/cache), with all costs charged to a virtual clock.
//
// This is the substrate the paper modified: its SLEDs changes live in the
// Linux VFS layer, "independent of the on-disk data structure of ext2 or
// ISO9660". Mirroring that, files here are device-independent; the device
// a file lives on determines retrieval cost, nothing else.
//
// The kernel is single-threaded (one logical CPU, as on the paper's test
// machines); no locking.
package vfs

import (
	"errors"
	"fmt"

	"sleds/internal/cache"
	"sleds/internal/device"
	"sleds/internal/simclock"
)

// Sentinel errors returned by path and file operations.
var (
	ErrNotExist = errors.New("file does not exist")
	ErrExist    = errors.New("file already exists")
	ErrIsDir    = errors.New("is a directory")
	ErrNotDir   = errors.New("not a directory")
	ErrClosed   = errors.New("file already closed")
	ErrReadOnly = errors.New("read-only device")
	ErrNoSpace  = errors.New("no space left on device")
	// ErrIO is surfaced (wrapped, EIO-style) when a device access still
	// fails after the retry policy is exhausted. Check with errors.Is.
	ErrIO = errors.New("input/output error")
)

// RetryPolicy governs how the kernel responds to device faults on the
// fallible I/O path (device.FallibleDevice): how many attempts one
// request gets, and the capped exponential backoff between them, all in
// virtual time.
type RetryPolicy struct {
	// MaxAttempts is the total attempts per request (first try included);
	// <= 0 selects the default (5).
	MaxAttempts int
	// Backoff is the delay before the second attempt; each further retry
	// doubles it. <= 0 selects the default (10 ms).
	Backoff simclock.Duration
	// BackoffCap caps the exponential schedule. <= 0 selects the default
	// (1 s).
	BackoffCap simclock.Duration
	// FailFast surfaces the first fault as EIO immediately instead of
	// retrying (fail-fast vs the default fail-safe behaviour).
	FailFast bool
}

// DefaultRetryPolicy returns the fail-safe default: 5 attempts, 10 ms
// initial backoff doubling to a 1 s cap.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 5, Backoff: 10 * simclock.Millisecond, BackoffCap: simclock.Second}
}

// withDefaults fills unset fields from DefaultRetryPolicy.
func (p RetryPolicy) withDefaults() RetryPolicy {
	d := DefaultRetryPolicy()
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = d.MaxAttempts
	}
	if p.Backoff <= 0 {
		p.Backoff = d.Backoff
	}
	if p.BackoffCap <= 0 {
		p.BackoffCap = d.BackoffCap
	}
	return p
}

// backoffBefore returns the delay before attempt number next (>= 2):
// Backoff doubled per prior retry, capped at BackoffCap.
func (p RetryPolicy) backoffBefore(next int) simclock.Duration {
	b := p.Backoff
	for i := 2; i < next && b < p.BackoffCap; i++ {
		b *= 2
	}
	if b > p.BackoffCap {
		b = p.BackoffCap
	}
	return b
}

// Ino is a kernel-wide unique inode number.
type Ino uint64

// Config parameterises the kernel.
type Config struct {
	// PageSize is the VM page size; the paper's machines used 4 KiB.
	PageSize int
	// CachePages is the number of page frames available to cache file
	// pages (the paper's 64 MB machine had roughly 44 MB of them).
	CachePages int
	// Policy selects the replacement policy (default LRU).
	Policy cache.Policy
	// ReadaheadPages is how many extra pages a demand fault pulls in
	// (default 0: Figure 9's fault counts indicate demand paging).
	ReadaheadPages int
	// MemDevice is the device whose cost model is charged for cache-hit
	// copies to user space. Required.
	MemDevice device.Device
	// JitterSeed/JitterFrac perturb device I/O times to model background
	// activity; frac 0 disables.
	JitterSeed int64
	JitterFrac float64
	// Retry governs fault handling on the fallible device path; the zero
	// value selects DefaultRetryPolicy.
	Retry RetryPolicy
}

// RunStats counts the activity of one measured run (between ResetRunStats
// and a later snapshot). Faults corresponds to what the paper's `time`
// command reports: demand reads that had to go to a device.
type RunStats struct {
	Faults          int64 // demand-missed pages read from a device
	ReadaheadPages  int64 // additional pages pulled in by readahead
	PagesWrittenDev int64 // dirty pages written back to a device
	CacheHits       int64
	BytesRead       int64
	BytesWritten    int64
	IOWait          simclock.Duration
	CPUTime         simclock.Duration

	// Asynchronous prefetch (the hints substrate):
	PrefetchIssued  int64 // pages scheduled on background device timelines
	PrefetchedPages int64 // demand accesses served by a completed prefetch
	PrefetchWaits   int64 // demand accesses that waited for in-flight I/O

	// Fault handling (the internal/faults substrate):
	DeviceFaults  int64             // failed device attempts observed
	Retries       int64             // attempts re-issued after a fault
	RetryWait     simclock.Duration // virtual time spent in retry backoff
	EIOs          int64             // requests abandoned after the policy gave up
	WritebackEIOs int64             // asynchronous write-backs among them (page dropped)
}

// Kernel is the simulated machine: clock, devices, cache, and file tree.
type Kernel struct {
	Clock   *simclock.Clock
	Devices *device.Registry

	cfg    Config
	cache  *cache.Cache
	jitter *simclock.Jitter

	root    *Inode
	inodes  map[Ino]*Inode
	nextIno Ino

	// stager, when set, intercepts device reads for files on the devices
	// in stagedDevs (an HSM layer migrating tape blocks to a disk cache).
	stager     Stager
	stagedDevs map[device.ID]bool

	// Asynchronous prefetch state: per-device background timelines and
	// in-flight pages (see prefetch.go).
	pending   prefetchPending
	busyUntil map[device.ID]simclock.Duration

	// nextAlloc tracks the next free byte on each device.
	nextAlloc map[device.ID]int64

	// faultObs, when set, sees every device fault the kernel observes
	// (the sleds table's health feed).
	faultObs func(*device.Fault)

	// wb queues dirty pages evicted by a cache mutation until the
	// mutation's drain point writes them back (see resume.go).
	wb []wbItem

	// free holds evicted page frames for the fault and prefetch paths to
	// refill (see newFrame): clean frames on eviction, dirty ones once
	// their write-back has copied them into the file's content.
	free [][]byte

	stats RunStats
}

// NewKernel boots a simulated machine with an empty file tree and an
// empty cache. Storage devices are attached afterwards with AttachDevice;
// cfg.MemDevice (used to cost cache-hit copies) is charged directly and
// does not need to be attached.
//
//sledlint:allow panicpath -- constructor validates static config before any simulated I/O exists
func NewKernel(cfg Config) *Kernel {
	if cfg.PageSize <= 0 {
		panic(fmt.Sprintf("vfs: bad page size %d", cfg.PageSize))
	}
	if cfg.CachePages <= 0 {
		panic(fmt.Sprintf("vfs: bad cache size %d", cfg.CachePages))
	}
	if cfg.MemDevice == nil {
		panic("vfs: MemDevice is required")
	}
	k := &Kernel{
		Clock:     simclock.New(),
		Devices:   device.NewRegistry(),
		cfg:       cfg,
		inodes:    make(map[Ino]*Inode),
		nextAlloc: make(map[device.ID]int64),
	}
	if cfg.JitterFrac > 0 {
		k.jitter = simclock.NewJitter(cfg.JitterSeed, cfg.JitterFrac)
	}
	k.cache = cache.New(cfg.CachePages, cfg.Policy, k.onEvict)
	k.root = &Inode{ino: k.allocIno(), name: "/", isDir: true, children: map[string]*Inode{}}
	k.inodes[k.root.ino] = k.root
	return k
}

// Config returns the kernel's configuration.
func (k *Kernel) Config() Config { return k.cfg }

// SetClock installs c as the kernel's clock. The multi-stream scheduler
// (internal/iosched) gives each simulated process its own virtual timeline
// and installs it here while that process runs, so every charge the
// kernel makes lands on the running stream's clock; single-stream code
// never needs this.
func (k *Kernel) SetClock(c *simclock.Clock) { k.Clock = c }

// PageSize returns the VM page size.
func (k *Kernel) PageSize() int { return k.cfg.PageSize }

// Cache exposes the buffer cache (read-mostly: experiments inspect it, the
// SLED scan probes residency).
func (k *Kernel) Cache() *cache.Cache { return k.cache }

// ResidentRuns returns the inode's resident pages as sorted, maximally
// coalesced page runs without perturbing replacement state — the O(runs)
// counterpart of per-page PageResident, and what FSLEDS_GET iterates.
// The returned slice aliases the cache's residency index; callers must
// not modify it and should consume it before the next cache mutation.
func (k *Kernel) ResidentRuns(n *Inode) []cache.Run {
	return k.cache.ResidentRuns(uint64(n.ino))
}

// ResidencyEpoch returns the inode's residency epoch: a monotone counter
// the cache advances on every splice of the file's resident-run vector.
// Equal values from two calls guarantee ResidentRuns did not change in
// between — the invalidation signal core's skeleton memo keys on.
func (k *Kernel) ResidencyEpoch(n *Inode) uint64 {
	return k.cache.ResidencyEpoch(uint64(n.ino))
}

// DeviceStaged reports whether reads from the device are interposed by a
// stager (HSM or remote mount), i.e. whether DeviceForPage may differ
// from the inode's own device for files living on it.
func (k *Kernel) DeviceStaged(id device.ID) bool {
	return k.stager != nil && k.stagedDevs[id]
}

// AttachDevice adds a device to the machine.
func (k *Kernel) AttachDevice(d device.Device) device.ID {
	return k.Devices.Attach(d)
}

func (k *Kernel) allocIno() Ino {
	k.nextIno++
	return k.nextIno
}

// ResetRunStats zeroes the per-run counters (called at the start of each
// measured run).
func (k *Kernel) ResetRunStats() { k.stats = RunStats{} }

// RunStats returns a snapshot of the per-run counters.
func (k *Kernel) RunStats() RunStats { return k.stats }

// ChargeCPU advances the clock by d and accounts it as CPU time. The
// applications use this to model their per-byte processing cost.
func (k *Kernel) ChargeCPU(d simclock.Duration) {
	k.Clock.Advance(d)
	k.stats.CPUTime += d
}

// ChargeCPUBytes charges CPU time for processing n bytes at rate
// bytesPerSec.
func (k *Kernel) ChargeCPUBytes(n int64, bytesPerSec float64) {
	k.ChargeCPU(simclock.TransferTime(n, bytesPerSec))
}

// SetFaultObserver installs fn to be called on every device fault the
// kernel observes on its I/O paths (demand reads, readahead, prefetch,
// write-back), including faults that a retry then rides out. The sleds
// table's health tracking hooks in here; nil detaches.
func (k *Kernel) SetFaultObserver(fn func(*device.Fault)) { k.faultObs = fn }

// deviceAccess runs one logical device access with the kernel's retry
// policy: device faults are counted, reported to the fault observer, and
// retried after capped exponential backoff (in virtual time, charged to
// the current clock); when the policy gives up the access fails with a
// wrapped ErrIO. Non-fault errors pass through untouched. This is the
// synchronous driver of deviceAccessStep (see resume.go).
func (k *Kernel) deviceAccess(fn func() error) error {
	_, err := mustComplete(k.deviceAccessStep(fn, func(err error) IOStep {
		return ioDone(0, err)
	}), "device access")
	return err
}

// onEvict is the cache's eviction callback: dirty pages are queued for
// write-back to their device. The queue is drained immediately after the
// cache mutation that triggered the eviction (insertStep, invalidation),
// which keeps the write at the same virtual instant as the historical
// write-during-eviction while letting the engine suspend mid-write-back.
// Eviction is asynchronous write-back — there is no one to return an error
// to — so a write-back that still fails after retries is counted
// (WritebackEIOs) and the page dropped, as a real kernel's failed async
// write-back ends up doing. Clean frames go straight to the free list.
func (k *Kernel) onEvict(key cache.Key, data []byte, dirty bool) {
	// An evicted page can no longer be served by its in-flight prefetch.
	delete(k.pending, key)
	if !dirty {
		k.recycleFrame(data)
		return
	}
	ino, ok := k.inodes[Ino(key.File)]
	if !ok {
		// File deleted with dirty pages still cached; drop them.
		k.recycleFrame(data)
		return
	}
	k.wb = append(k.wb, wbItem{ino: ino, page: key.Page, data: data})
}

// newFrame returns a page frame for a caller that overwrites all of it
// (Content.ReadPage does): a recycled frame when one is free, else a fresh
// one.
func (k *Kernel) newFrame() []byte {
	if n := len(k.free); n > 0 {
		buf := k.free[n-1]
		k.free = k.free[:n-1]
		return buf
	}
	return make([]byte, k.cfg.PageSize)
}

// recycleFrame puts a frame nothing references any more on the free list,
// which never holds more than a cache's worth of frames.
func (k *Kernel) recycleFrame(buf []byte) {
	if len(k.free) < k.cache.Cap() {
		k.free = append(k.free, buf)
	}
}

// writePageToDevice stores page data into the inode's content and charges
// the device write, with retries per the kernel policy — the synchronous
// driver of writePageStep, used by sync(2)-family paths.
func (k *Kernel) writePageToDevice(ino *Inode, page int64, data []byte) error {
	_, err := mustComplete(k.writePageStep(ino, page, data, func(err error) IOStep {
		return ioDone(0, err)
	}), "page write-back")
	return err
}

// allocExtent reserves size bytes of contiguous space on a device,
// page-aligned, respecting chunk boundaries for chunked media (tape
// cartridges).
func (k *Kernel) allocExtent(id device.ID, size int64) (int64, error) {
	d := k.Devices.Get(id)
	ps := int64(k.cfg.PageSize)
	next := k.nextAlloc[id]
	// Round up to a page boundary.
	next = (next + ps - 1) / ps * ps

	if cb, ok := d.(interface{ ChunkSize() int64 }); ok {
		chunk := cb.ChunkSize()
		if size > chunk {
			return 0, fmt.Errorf("vfs: file of %d bytes exceeds %q chunk size %d: %w",
				size, d.Info().Name, chunk, ErrNoSpace)
		}
		// Avoid spanning a chunk (cartridge) boundary.
		if next/chunk != (next+size-1)/chunk {
			next = (next/chunk + 1) * chunk
		}
	}
	if devSize := d.Info().Size; devSize > 0 && next+size > devSize {
		return 0, fmt.Errorf("vfs: device %q full: %w", d.Info().Name, ErrNoSpace)
	}
	k.nextAlloc[id] = next + size
	return next, nil
}

// Stager is a hierarchical storage layer interposed between the page
// cache and a device: fetches may be served from a faster migration cache
// (disk) instead of the backing device (tape), and the SLED query wants to
// know which.
type Stager interface {
	// Fetch charges the virtual-time cost of making [devOff, devOff+n) of
	// the file's backing bytes available for copying into the page cache,
	// migrating between levels as needed. A fault on an underlying device
	// surfaces as the error (the kernel's retry policy then re-runs the
	// whole fetch; already-migrated blocks are simply served from the
	// stage on the retry).
	Fetch(ino *Inode, devOff, length int64) error
	// DeviceFor reports the device the byte at devOff would currently be
	// served from.
	DeviceFor(ino *Inode, devOff int64) device.ID
}

// SetStager interposes s on reads from files living on the given devices.
func (k *Kernel) SetStager(s Stager, devs ...device.ID) {
	k.stager = s
	k.stagedDevs = make(map[device.ID]bool, len(devs))
	for _, d := range devs {
		k.stagedDevs[d] = true
	}
}

// DeviceForPage reports which device currently backs the given page: the
// inode's device, or whatever level the stager has it at.
func (k *Kernel) DeviceForPage(n *Inode, page int64) device.ID {
	if k.stager != nil && k.stagedDevs[n.dev] {
		return k.stager.DeviceFor(n, n.extent+page*int64(k.cfg.PageSize))
	}
	return n.dev
}

// ReserveExtent allocates size bytes of device space outside any file
// (used by the HSM stager for its disk migration area).
func (k *Kernel) ReserveExtent(dev device.ID, size int64) (int64, error) {
	return k.allocExtent(dev, size)
}

// ResetDeviceState resets the mechanical state of every device (between
// independent experiment trials), including the background prefetch
// timelines. Cache contents are preserved; use DropCaches for a cold
// cache.
func (k *Kernel) ResetDeviceState() {
	k.Devices.ResetAll()
	k.busyUntil = nil
}

// DropCaches empties the buffer cache, writing back dirty pages first —
// the simulator's /proc/sys/vm/drop_caches.
func (k *Kernel) DropCaches() {
	k.SyncAll()
	k.pending = nil
	// Invalidate clean pages file by file. SyncAll left nothing dirty, but
	// drain defensively in case an eviction raced a write-back failure.
	for _, ino := range k.inodes {
		if !ino.isDir {
			k.cache.InvalidateFile(uint64(ino.ino))
		}
	}
	k.drainWritebacksSync()
}

// SyncAll writes every dirty page back to its device (sync(2)). Pages
// whose write-back still fails after retries are counted in
// WritebackEIOs and dropped — sync(2) historically absorbs write errors
// silently; File.Sync is the path that reports them.
func (k *Kernel) SyncAll() {
	k.cache.FlushDirty(func(key cache.Key, data []byte) {
		ino, ok := k.inodes[Ino(key.File)]
		if !ok {
			return
		}
		_ = k.writePageToDevice(ino, key.Page, data)
	})
}
