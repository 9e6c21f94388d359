// Package core implements Storage Latency Estimation Descriptors — the
// paper's primary contribution.
//
// A SLED describes one contiguous section of a file together with the
// estimated latency to its first byte and the bandwidth at which the rest
// will arrive (paper Figure 2). A file's state is reported as a vector of
// SLEDs: walking the file from start to end, every discontinuity in
// storage level, latency or bandwidth starts a new SLED.
//
// The package also implements the kernel half of the paper's design
// (§4.1): a per-device table of (latency, bandwidth) entries filled at
// boot (FSLEDS_FILL, here Table.SetDevice fed by internal/lmbench), and
// the page-residency scan that builds the SLED vector for an open file
// (FSLEDS_GET, here Query).
package core

import (
	"fmt"
	"math"
	"sort"

	"sleds/internal/device"
	"sleds/internal/simclock"
	"sleds/internal/vfs"
)

// SLED is the paper's struct sled: a file section and its retrieval
// estimates. Latency is in seconds and Bandwidth in bytes/second —
// floating point, as in the paper, because the necessary range exceeds
// integers (nanoseconds to hundreds of seconds).
type SLED struct {
	Offset    int64   // byte offset into the file
	Length    int64   // length of the section in bytes
	Latency   float64 // seconds to the first byte
	Bandwidth float64 // bytes/second once flowing

	// Confidence is the staleness/degradation grade of the estimate, in
	// (0, 1]: 1 means the backing device has shown no recent faults and
	// the latency is the calibrated estimate; lower values mean observed
	// faults have inflated Latency by the device's health penalty, and
	// the true cost is correspondingly less certain. 0 means unknown
	// (e.g. a SLED decoded from the wire format, which does not carry
	// the field).
	Confidence float64
}

// End returns the offset one past the section.
func (s SLED) End() int64 { return s.Offset + s.Length }

// DeliveryTime estimates seconds to retrieve the whole section.
func (s SLED) DeliveryTime() float64 {
	if s.Length == 0 {
		return 0
	}
	return s.Latency + float64(s.Length)/s.Bandwidth
}

// SameEstimates reports whether two SLEDs carry identical performance
// estimates (the coalescing criterion).
func (s SLED) SameEstimates(o SLED) bool {
	return s.Latency == o.Latency && s.Bandwidth == o.Bandwidth && s.Confidence == o.Confidence
}

// String renders the SLED the way the gmc properties panel shows it. The
// confidence grade is appended only when degraded (in (0,1)), so output
// from healthy machines is unchanged.
func (s SLED) String() string {
	base := fmt.Sprintf("[%d,+%d) lat=%.6gs bw=%.4g MB/s", s.Offset, s.Length, s.Latency, s.Bandwidth/(1<<20))
	if s.Confidence > 0 && s.Confidence < 1 {
		base += fmt.Sprintf(" conf=%.2f", s.Confidence)
	}
	return base
}

// Entry is one row of the kernel sleds table: the measured performance of
// one storage level.
type Entry struct {
	Latency   float64 // seconds
	Bandwidth float64 // bytes/second
}

// valid reports whether the entry is usable.
func (e Entry) valid() bool { return e.Bandwidth > 0 && e.Latency >= 0 }

// ZoneEntry is the multi-zone extension the paper leaves as future work
// ("entries which account for the different bandwidths of different disk
// zones will be added in a future version"): an Entry that applies from a
// given device byte offset onward.
type ZoneEntry struct {
	FromByte int64
	Entry
}

// Load reports the live queueing state of a device. It is implemented by
// internal/iosched's Engine; the table uses it to make SLED latency
// estimates load-aware (§6: estimates "must reflect dynamic conditions"
// — under contention, queueing dominates positioning).
type Load interface {
	// QueueDepth is the number of requests waiting (not yet dispatched)
	// at the device.
	QueueDepth(id device.ID) int
	// InFlightRemaining is the service time the request currently on the
	// device still needs, as seen from virtual time now.
	InFlightRemaining(id device.ID, now simclock.Duration) simclock.Duration
}

// Table is the kernel sleds table: one entry for primary memory and one
// (or, with the zone extension, several) per device. It is filled at boot
// by measuring the devices — see internal/lmbench — exactly as the paper
// fills it from a boot script running lmbench.
type Table struct {
	mem     Entry
	devs    map[device.ID]Entry
	zones   map[device.ID][]ZoneEntry
	haveMem bool
	load    Load

	health   map[device.ID]*health
	halfLife simclock.Duration

	// cfgEpoch advances on every mutation that can change which entry a
	// file offset maps to or whether load is folded in at all (SetMemory,
	// SetDevice, SetDeviceZones, SetLoad). Mutations the per-query device
	// sample already absorbs — fault observations, health decay and
	// resets, half-life changes, load *values* behind an attached source —
	// deliberately do not bump it; see the memo's overlay.
	cfgEpoch uint64
	// memo builds and caches residency skeletons per (kernel, inode);
	// at capacity 0 it caches none.
	memo *sledMemo
}

// health is the per-device degradation state the fault observer feeds.
// penalty is in seconds of extra first-byte latency and decays
// exponentially in virtual time; updated is the instant penalty was last
// brought current (decay is applied lazily).
type health struct {
	penalty float64
	faults  int64
	updated simclock.Duration
}

// DefaultHealthHalfLife is the virtual-time half-life of a device's fault
// penalty: long enough that a burst of faults keeps routing away from the
// device for the minutes an experiment run lasts, short enough that a
// recovered device wins traffic back.
const DefaultHealthHalfLife = 60 * simclock.Second

// NewTable returns an empty table with skeleton memoization enabled at
// DefaultMemoFiles capacity.
func NewTable() *Table {
	return &Table{
		devs:     make(map[device.ID]Entry),
		zones:    make(map[device.ID][]ZoneEntry),
		health:   make(map[device.ID]*health),
		halfLife: DefaultHealthHalfLife,
		memo:     newSledMemo(DefaultMemoFiles),
	}
}

// SetMemoCapacity bounds the skeleton memo at n files (LRU over files),
// dropping any cached skeletons; n <= 0 disables memoization, so every
// query builds its skeleton afresh. Query results are bit-identical at
// every setting — the knob exists for ablation and for capping memory
// on machines querying very many files.
func (t *Table) SetMemoCapacity(n int) {
	t.memo = newSledMemo(max(n, 0))
}

// MemoCapacity reports the skeleton memo's file capacity (0 = disabled).
func (t *Table) MemoCapacity() int { return t.memo.cap }

// MemoStats returns a copy of the skeleton memo's activity counters
// (zeroes when memoization is disabled).
func (t *Table) MemoStats() MemoStats { return t.memo.stats }

// SetHealthHalfLife overrides the fault-penalty decay half-life; hl <= 0
// restores the default.
func (t *Table) SetHealthHalfLife(hl simclock.Duration) {
	if hl <= 0 {
		hl = DefaultHealthHalfLife
	}
	t.halfLife = hl
}

// ObserveFault records a fault on a device at virtual time now: the
// fault's extra service time is added to the device's latency penalty,
// which subsequent queries fold into the device's reported latency. The
// penalty decays as penalty * 2^(-dt/halfLife), so a device that stops
// faulting gradually earns its calibrated estimates back. This is the
// observer the kernel's retry loop feeds (vfs.Kernel.SetFaultObserver).
func (t *Table) ObserveFault(id device.ID, extra simclock.Duration, now simclock.Duration) {
	h := t.healthAt(id, now)
	if h == nil {
		h = &health{updated: now}
		t.health[id] = h
	}
	h.penalty += extra.Seconds()
	h.faults++
}

// HealthPenalty reports the device's decayed latency penalty in seconds at
// virtual time now (0 for a device that has never faulted).
func (t *Table) HealthPenalty(id device.ID, now simclock.Duration) float64 {
	if h := t.healthAt(id, now); h != nil {
		return h.penalty
	}
	return 0
}

// FaultCount reports the total faults observed on a device (undecayed).
func (t *Table) FaultCount(id device.ID) int64 {
	if h, ok := t.health[id]; ok {
		return h.faults
	}
	return 0
}

// Confidence reports the degradation grade the table would stamp on a
// SLED for the device's pages at virtual time now: base/(base+penalty)
// where base is the calibrated latency. 1 means healthy/unknown device.
func (t *Table) Confidence(id device.ID, now simclock.Duration) float64 {
	pen := t.HealthPenalty(id, now)
	if pen <= 0 {
		return 1
	}
	e, ok := t.devs[id]
	if !ok {
		return 1
	}
	return confidence(e.Latency, pen)
}

// confidence grades an estimate whose base latency has been inflated by a
// fault penalty (both in seconds).
func confidence(base, penalty float64) float64 {
	if penalty <= 0 {
		return 1
	}
	if base+penalty <= 0 {
		return 0
	}
	return base / (base + penalty)
}

// healthAt returns the device's health brought current to virtual time
// now, applying the lazy exponential decay. Returns nil when the device
// has never faulted. Negative dt (an observation from a stream clock that
// lags another) leaves the penalty as-is rather than inflating it.
func (t *Table) healthAt(id device.ID, now simclock.Duration) *health {
	h, ok := t.health[id]
	if !ok {
		return nil
	}
	if dt := now - h.updated; dt > 0 {
		if h.penalty > 0 {
			h.penalty *= math.Exp2(-float64(dt) / float64(t.halfLife))
			if h.penalty < 1e-12 {
				h.penalty = 0
			}
		}
		h.updated = now
	}
	return h
}

// ResetHealth clears all fault observations (used between measured runs
// that should not inherit the previous run's degradation state).
func (t *Table) ResetHealth() {
	t.health = make(map[device.ID]*health)
}

// SetMemory installs the primary-memory entry.
func (t *Table) SetMemory(e Entry) error {
	if !e.valid() {
		return fmt.Errorf("core: invalid memory entry %+v", e)
	}
	t.mem = e
	t.haveMem = true
	t.cfgEpoch++
	return nil
}

// Memory returns the primary-memory entry.
func (t *Table) Memory() (Entry, bool) { return t.mem, t.haveMem }

// SetDevice installs the single-zone entry for a device (FSLEDS_FILL).
func (t *Table) SetDevice(id device.ID, e Entry) error {
	if !e.valid() {
		return fmt.Errorf("core: invalid entry %+v for device %d", e, id)
	}
	t.devs[id] = e
	delete(t.zones, id)
	t.cfgEpoch++
	return nil
}

// SetDeviceZones installs the multi-zone extension for a device. Zones
// must be sorted by FromByte with the first at 0.
func (t *Table) SetDeviceZones(id device.ID, zs []ZoneEntry) error {
	if len(zs) == 0 {
		return fmt.Errorf("core: empty zone list for device %d", id)
	}
	if zs[0].FromByte != 0 {
		return fmt.Errorf("core: first zone for device %d starts at %d, want 0", id, zs[0].FromByte)
	}
	for i, z := range zs {
		if !z.valid() {
			return fmt.Errorf("core: invalid zone %d for device %d", i, id)
		}
		if i > 0 && zs[i].FromByte <= zs[i-1].FromByte {
			return fmt.Errorf("core: zones for device %d not strictly increasing", id)
		}
	}
	cp := make([]ZoneEntry, len(zs))
	copy(cp, zs)
	t.zones[id] = cp
	// Keep a representative single-zone entry too (first zone), so code
	// that does not understand zones still works.
	t.devs[id] = zs[0].Entry
	t.cfgEpoch++
	return nil
}

// Device returns the single-zone entry for a device.
func (t *Table) Device(id device.ID) (Entry, bool) {
	e, ok := t.devs[id]
	return e, ok
}

// SetLoad attaches a live queueing-state source. Subsequent queries fold
// the device's current queue depth and in-flight service time into the
// latency estimates; nil detaches. Attaching/detaching bumps the config
// epoch (the skeleton memo's sample shape changes); the *values* the
// source reports are re-sampled on every query and need no epoch.
func (t *Table) SetLoad(l Load) {
	t.load = l
	t.cfgEpoch++
}

// underLoad inflates a device entry by its current queueing state at
// virtual time now: the first byte cannot arrive before the in-flight
// request drains and every queued request ahead is positioned, so
//
//	latency' = latency*(1+depth) + inFlightRemaining
//
// using the calibrated per-request latency as the service estimate for
// each queued request (transfer sizes of queued requests are unknown to
// the table, exactly as they are to a real kernel's estimator). Bandwidth
// is unchanged: once flowing, the stream runs at device speed.
func (t *Table) underLoad(id device.ID, e Entry, now simclock.Duration) Entry {
	if t.load == nil {
		return e
	}
	depth := t.load.QueueDepth(id)
	rem := t.load.InFlightRemaining(id, now)
	if depth == 0 && rem == 0 {
		return e
	}
	e.Latency = e.Latency*float64(1+depth) + rem.Seconds()
	return e
}

// deviceAt returns the entry in effect at a device byte offset, consulting
// zones when installed.
func (t *Table) deviceAt(id device.ID, off int64) (Entry, bool) {
	if zs, ok := t.zones[id]; ok {
		cur := zs[0].Entry
		for _, z := range zs {
			if z.FromByte > off {
				break
			}
			cur = z.Entry
		}
		return cur, true
	}
	e, ok := t.devs[id]
	return e, ok
}

// Devices returns the IDs with installed entries, in ascending ID
// order so that callers iterating the result stay deterministic.
func (t *Table) Devices() []device.ID {
	out := make([]device.ID, 0, len(t.devs))
	for id := range t.devs {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// querySample is one device's estimate state frozen at the query instant:
// its table entry (or zone vector with a monotone cursor), its queueing
// state, and its decayed health penalty. Sampling once per device per
// query is exact because the reference per-page scan reads the same
// values for every page — the load source is consulted at one virtual
// instant, and HealthPenalty's lazy decay is idempotent at a fixed now.
type querySample struct {
	ok     bool
	zones  []ZoneEntry // nil when the device has a single flat entry
	zi     int         // zone cursor; offsets are queried in ascending order
	single Entry
	load   bool
	depth  int
	rem    simclock.Duration
	pen    float64
}

// cursor returns a device's zone cursor: its table entries, without
// the dynamic load and health state.
func (t *Table) cursor(id device.ID) querySample {
	var s querySample
	if zs, ok := t.zones[id]; ok {
		s.zones, s.ok = zs, true
	} else if e, ok := t.devs[id]; ok {
		s.single, s.ok = e, true
	}
	return s
}

// sampleDevice captures a device's estimate state at virtual time now.
func (t *Table) sampleDevice(id device.ID, now simclock.Duration) querySample {
	s := t.cursor(id)
	if !s.ok {
		return s
	}
	if t.load != nil {
		s.load = true
		s.depth = t.load.QueueDepth(id)
		s.rem = t.load.InFlightRemaining(id, now)
	}
	s.pen = t.HealthPenalty(id, now)
	return s
}

// entryAt returns the entry in effect at device byte off and the device
// offset at which it stops applying (math.MaxInt64 for the last zone).
// Offsets must be presented in non-decreasing order: the cursor only
// advances, which is what makes the zoned walk O(runs + zones).
func (s *querySample) entryAt(off int64) (Entry, int64) {
	if s.zones == nil {
		return s.single, math.MaxInt64
	}
	for s.zi+1 < len(s.zones) && s.zones[s.zi+1].FromByte <= off {
		s.zi++
	}
	until := int64(math.MaxInt64)
	if s.zi+1 < len(s.zones) {
		until = s.zones[s.zi+1].FromByte
	}
	return s.zones[s.zi].Entry, until
}

// estimate folds the sampled queueing state and health penalty into a
// base entry, in exactly the order the per-page scan applies them: load
// first, then the fault penalty, with confidence graded against the
// post-load latency.
func (s *querySample) estimate(base Entry) (Entry, float64) {
	e := base
	if s.load && !(s.depth == 0 && s.rem == 0) {
		e.Latency = e.Latency*float64(1+s.depth) + s.rem.Seconds()
	}
	conf := 1.0
	if s.pen > 0 {
		conf = confidence(e.Latency, s.pen)
		e.Latency += s.pen
	}
	return e, conf
}

// Query is FSLEDS_GET: it reports the file's state as a SLED vector —
// resident sections carry the memory entry, on-device sections the
// backing device's entry (zone-dependent when zones are installed, with
// queueing state and fault degradation folded in). Residency is probed
// without perturbing replacement state.
//
// The query splits the file into a residency skeleton — the cache's
// coalesced resident runs, and the gaps between them cut at device and
// zone boundaries — and an overlay that samples each backing device's
// load and health once per query and estimates each segment (memo.go).
// A file on an unstaged device costs O(runs + zones) instead of
// O(pages), and a repeat query whose residency and table config are
// unchanged reuses the cached skeleton. The resulting vector is
// provably identical to the per-page scan's (see the equivalence tests
// against queryRef).
func Query(k *vfs.Kernel, t *Table, n *vfs.Inode) ([]SLED, error) {
	return QueryAppend(nil, k, t, n)
}

// QueryAppend is Query appending into dst's storage (dst's length is
// ignored): callers issuing many queries — the pick library's Refresh,
// file-set ordering — reuse one scratch vector across calls instead of
// allocating per query. The result is valid until the next QueryAppend
// reusing the same scratch.
//
// The steady-state path is allocation-free, memoized or not, staged or
// not (BenchmarkQueryAppend and the alloc tests pin allocs/op at zero);
// hotalloc enforces the same statically.
//
//sledlint:hotpath
func QueryAppend(dst []SLED, k *vfs.Kernel, t *Table, n *vfs.Inode) ([]SLED, error) {
	if n.IsDir() {
		return nil, fmt.Errorf("core: %q is a directory", n.Name())
	}
	return t.memo.query(dst, k, t, n)
}

// Validate checks the structural invariants of a SLED vector for a file of
// the given size: sorted, contiguous, covering [0, size), maximally
// coalesced, positive estimates. Returns nil if all hold. Exposed because
// both tests and downstream consumers (the pick library) rely on them.
func Validate(sleds []SLED, size int64) error {
	if size == 0 {
		if len(sleds) != 0 {
			return fmt.Errorf("core: %d SLEDs for empty file", len(sleds))
		}
		return nil
	}
	if len(sleds) == 0 {
		return fmt.Errorf("core: no SLEDs for %d-byte file", size)
	}
	if sleds[0].Offset != 0 {
		return fmt.Errorf("core: first SLED starts at %d, want 0", sleds[0].Offset)
	}
	for i, s := range sleds {
		if s.Length <= 0 {
			return fmt.Errorf("core: SLED %d has non-positive length %d", i, s.Length)
		}
		if s.Bandwidth <= 0 || s.Latency < 0 {
			return fmt.Errorf("core: SLED %d has invalid estimates %+v", i, s)
		}
		if s.Confidence < 0 || s.Confidence > 1 {
			return fmt.Errorf("core: SLED %d has confidence %g outside [0,1]", i, s.Confidence)
		}
		if i > 0 {
			prev := sleds[i-1]
			if prev.End() != s.Offset {
				return fmt.Errorf("core: gap/overlap between SLED %d and %d", i-1, i)
			}
			if prev.SameEstimates(s) {
				return fmt.Errorf("core: SLEDs %d and %d not coalesced", i-1, i)
			}
		}
	}
	if last := sleds[len(sleds)-1]; last.End() != size {
		return fmt.Errorf("core: SLEDs end at %d, file size %d", last.End(), size)
	}
	return nil
}

// TotalDeliveryTime sums delivery estimates over a SLED vector.
//
// Plan selects the paper's attack_plan argument: PlanLinear charges each
// SLED's latency plus transfer in file order (one head repositioning per
// discontinuity); PlanBest assumes the reader visits low-latency sections
// first and the expensive latencies are paid only once per level change —
// modelled, as in our library, by charging each distinct latency class
// once plus all transfer times.
func TotalDeliveryTime(sleds []SLED, plan Plan) float64 {
	switch plan {
	case PlanLinear:
		var total float64
		for _, s := range sleds {
			total += s.DeliveryTime()
		}
		return total
	case PlanBest:
		var transfer float64
		latSeen := map[float64]bool{}
		var latOnce float64
		for _, s := range sleds {
			transfer += float64(s.Length) / s.Bandwidth
			if !latSeen[s.Latency] {
				latSeen[s.Latency] = true
				latOnce += s.Latency
			}
		}
		return transfer + latOnce
	default:
		panic(fmt.Sprintf("core: unknown plan %d", plan))
	}
}

// Plan is the attack_plan argument of sleds_total_delivery_time.
type Plan int

// Attack plans (paper §4.2: SLEDS_LINEAR and SLEDS_BEST).
const (
	PlanLinear Plan = iota
	PlanBest
)

// String names the plan.
func (p Plan) String() string {
	switch p {
	case PlanLinear:
		return "SLEDS_LINEAR"
	case PlanBest:
		return "SLEDS_BEST"
	default:
		return fmt.Sprintf("plan(%d)", int(p))
	}
}
