package core

import (
	"fmt"
	"io"
	"testing"
	"testing/quick"

	"sleds/internal/cache"
	"sleds/internal/device"
	"sleds/internal/hsm"
	"sleds/internal/simclock"
	"sleds/internal/vfs"
	"sleds/internal/workload"
)

// memoFile creates and partially reads one file so its residency has
// both runs and gaps, returning the inode.
func memoFile(t testing.TB, k *vfs.Kernel, disk device.ID, path string, pages int64, seed uint64) *vfs.Inode {
	t.Helper()
	n, err := k.Create(path, disk, workload.NewText(seed, pages*testPage, testPage))
	if err != nil {
		t.Fatal(err)
	}
	fh, err := k.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	buf := make([]byte, 3*testPage)
	for off := int64(0); off < pages; off += 7 {
		if _, err := fh.ReadAt(buf, off*testPage); err != nil && err != io.EOF {
			t.Fatal(err)
		}
	}
	return n
}

// TestMemoDifferentialProperty is the memo's differential property
// suite: randomized interleavings of reads (cache inserts + evictions),
// page invalidations, fault observations, health decay across virtual
// time, load changes and half-life changes, over several files, with the
// memoized Query compared bit-for-bit against an uncached query and the
// per-page reference after every step — at memo capacities including 0
// (disabled) and 1 (every file switch thrashes the LRU).
func TestMemoDifferentialProperty(t *testing.T) {
	for _, capN := range []int{0, 1, 4, DefaultMemoFiles} {
		capN := capN
		t.Run(fmt.Sprintf("cap%d", capN), func(t *testing.T) {
			f := func(ops []uint32, seed uint64, polSel uint8) bool {
				pol := []cache.Policy{cache.LRU, cache.Clock, cache.FIFO}[int(polSel)%3]
				// CLOCK gets a cache larger than the largest file for the
				// same pre-existing vfs hazard TestQueryEquivalenceProperty
				// documents; fragmentation comes from the invalidation op.
				capacity := 48
				if pol == cache.Clock {
					capacity = 96
				}
				k, disk, tab := equivMachine(t, capacity, pol)
				tab.SetMemoCapacity(capN)
				load := &fakeLoad{
					depth: map[device.ID]int{},
					rem:   map[device.ID]simclock.Duration{},
				}
				sizes := []int64{23, 40, 61} // pages; last page deliberately partial below
				names := []string{"/d/a", "/d/b", "/d/c"}
				inodes := make([]*vfs.Inode, len(names))
				handles := make([]*vfs.File, len(names))
				for i, name := range names {
					size := (sizes[i]-1)*testPage + testPage/2
					n, err := k.Create(name, disk, workload.NewText(seed+uint64(i), size, testPage))
					if err != nil {
						t.Fatal(err)
					}
					inodes[i] = n
					fh, err := k.Open(name)
					if err != nil {
						t.Fatal(err)
					}
					defer fh.Close()
					handles[i] = fh
				}
				buf := make([]byte, 4*testPage)
				for _, op := range ops {
					fi := int(op % 3)
					n, fh := inodes[fi], handles[fi]
					pages := sizes[fi]
					switch (op >> 2) % 8 {
					case 0, 1, 2: // read: inserts, evictions, recency churn
						off := (int64(op>>5) % pages) * testPage
						ln := int64((op>>5)%4+1) * testPage
						if _, err := fh.ReadAt(buf[:ln], off); err != nil && err != io.EOF {
							t.Fatal(err)
						}
					case 3: // invalidate one page: splices a run
						k.Cache().Invalidate(cache.Key{File: uint64(n.Ino()), Page: int64(op>>5) % pages})
					case 4: // fault: health penalty rises
						tab.ObserveFault(disk, simclock.Duration(op>>5%50)*simclock.Millisecond, k.Clock.Now())
					case 5: // decay: penalty shrinks lazily at next sample
						k.Clock.Advance(simclock.Duration(op>>5%90) * simclock.Second)
					case 6: // load flip: attach/detach + change the values
						if (op>>5)%3 == 0 {
							tab.SetLoad(nil)
						} else {
							load.depth[disk] = int(op>>5) % 5
							load.rem[disk] = simclock.Duration(op>>5%3) * simclock.Millisecond
							tab.SetLoad(load)
						}
					case 7: // health shape: half-life change or full reset
						if (op>>5)%4 == 0 {
							tab.ResetHealth()
						} else {
							tab.SetHealthHalfLife(simclock.Duration(1+op>>5%120) * simclock.Second)
						}
					}
					mustMatchRef(t, k, tab, n)
				}
				for _, n := range inodes {
					mustMatchRef(t, k, tab, n)
				}
				if capN == 0 {
					if st := tab.MemoStats(); st != (MemoStats{}) {
						t.Fatalf("disabled memo recorded activity: %+v", st)
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMemoMutatorAudit is the memo's bug-class audit: every mutation
// that can change a future SLED vector either bumps an epoch (the memo
// rebuilds: Misses advances) or is absorbed by the per-query overlay
// sample (the skeleton is reused: Hits advances) — and in both cases the
// memoized result stays bit-identical to an uncached query and the
// per-page reference.
func TestMemoMutatorAudit(t *testing.T) {
	cases := []struct {
		name     string
		absorbed bool // true: overlay absorbs (no rebuild); false: epoch bump expected
		mutate   func(t *testing.T, k *vfs.Kernel, disk device.ID, tab *Table)
	}{
		{"ObserveFault", true, func(t *testing.T, k *vfs.Kernel, disk device.ID, tab *Table) {
			tab.ObserveFault(disk, 25*simclock.Millisecond, k.Clock.Now())
		}},
		{"HealthDecay", true, func(t *testing.T, k *vfs.Kernel, disk device.ID, tab *Table) {
			tab.ObserveFault(disk, 25*simclock.Millisecond, k.Clock.Now())
			k.Clock.Advance(90 * simclock.Second)
		}},
		{"ResetHealth", true, func(t *testing.T, k *vfs.Kernel, disk device.ID, tab *Table) {
			tab.ObserveFault(disk, 25*simclock.Millisecond, k.Clock.Now())
			tab.ResetHealth()
		}},
		{"SetHealthHalfLife", true, func(t *testing.T, k *vfs.Kernel, disk device.ID, tab *Table) {
			tab.ObserveFault(disk, 25*simclock.Millisecond, k.Clock.Now())
			tab.SetHealthHalfLife(5 * simclock.Second)
			k.Clock.Advance(20 * simclock.Second)
		}},
		{"RegistryReplace", true, func(t *testing.T, k *vfs.Kernel, disk device.ID, tab *Table) {
			// Swapping the device object behind an ID (fault interposition
			// does this) changes simulated service times, not the table:
			// queries never consult the registry, so no epoch is needed.
			k.Devices.Replace(disk, device.NewDisk(device.DefaultDiskConfig(disk)))
		}},
		{"SetMemory", false, func(t *testing.T, k *vfs.Kernel, disk device.ID, tab *Table) {
			if err := tab.SetMemory(Entry{Latency: 200e-9, Bandwidth: 40 * (1 << 20)}); err != nil {
				t.Fatal(err)
			}
		}},
		{"SetDevice", false, func(t *testing.T, k *vfs.Kernel, disk device.ID, tab *Table) {
			if err := tab.SetDevice(disk, Entry{Latency: 21e-3, Bandwidth: 7 * (1 << 20)}); err != nil {
				t.Fatal(err)
			}
		}},
		{"SetDeviceZones", false, func(t *testing.T, k *vfs.Kernel, disk device.ID, tab *Table) {
			if err := tab.SetDeviceZones(disk, []ZoneEntry{
				{FromByte: 0, Entry: Entry{Latency: 15e-3, Bandwidth: 12 * (1 << 20)}},
				{FromByte: 9*testPage + 100, Entry: Entry{Latency: 19e-3, Bandwidth: 8 * (1 << 20)}},
			}); err != nil {
				t.Fatal(err)
			}
		}},
		{"SetLoad", false, func(t *testing.T, k *vfs.Kernel, disk device.ID, tab *Table) {
			tab.SetLoad(&fakeLoad{
				depth: map[device.ID]int{disk: 3},
				rem:   map[device.ID]simclock.Duration{disk: simclock.Millisecond},
			})
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			k, disk, tab := equivMachine(t, 64, cache.LRU)
			n := memoFile(t, k, disk, "/d/f", 30, 11)
			mustMatchRef(t, k, tab, n) // build
			mustMatchRef(t, k, tab, n) // warm
			before := tab.MemoStats()
			tc.mutate(t, k, disk, tab)
			mustMatchRef(t, k, tab, n)
			after := tab.MemoStats()
			if tc.absorbed {
				if after.Hits <= before.Hits {
					t.Fatalf("%s should be absorbed by the overlay (hit), got stats %+v -> %+v", tc.name, before, after)
				}
				if after.Misses != before.Misses {
					t.Fatalf("%s rebuilt the skeleton, want overlay absorption: %+v -> %+v", tc.name, before, after)
				}
			} else {
				if after.Misses <= before.Misses {
					t.Fatalf("%s must bump the config epoch (rebuild), got stats %+v -> %+v", tc.name, before, after)
				}
			}
		})
	}
}

// TestMemoStagedBypass pins the HSM contract: files on a staged device
// never enter the memo (the stager's migration state is outside every
// epoch; they build into its uncached scratch entry), and stage/destage
// churn therefore cannot stale it.
func TestMemoStagedBypass(t *testing.T) {
	mem := device.NewMem(device.DefaultMemConfig(0))
	k := vfs.NewKernel(vfs.Config{PageSize: testPage, CachePages: 32, Policy: cache.LRU, MemDevice: mem})
	k.AttachDevice(mem)
	disk := k.AttachDevice(device.NewDisk(device.DefaultDiskConfig(1)))
	tape := k.AttachDevice(device.NewTapeLibrary(device.DefaultTapeLibraryConfig(2)))
	if err := k.MkdirAll("/d"); err != nil {
		t.Fatal(err)
	}
	tab := NewTable()
	if err := tab.SetMemory(Entry{Latency: 175e-9, Bandwidth: 48 * (1 << 20)}); err != nil {
		t.Fatal(err)
	}
	if err := tab.SetDevice(disk, Entry{Latency: 18e-3, Bandwidth: 9 * (1 << 20)}); err != nil {
		t.Fatal(err)
	}
	if err := tab.SetDevice(tape, Entry{Latency: 40, Bandwidth: 2 * (1 << 20)}); err != nil {
		t.Fatal(err)
	}
	size := int64(64 * testPage)
	if _, err := hsm.New(k, hsm.Config{Tape: tape, Disk: disk, BlockSize: 8 * testPage, Capacity: size / 2}); err != nil {
		t.Fatal(err)
	}
	n, err := k.Create("/d/f", tape, workload.NewText(9, size, testPage))
	if err != nil {
		t.Fatal(err)
	}
	fh, err := k.Open("/d/f")
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	buf := make([]byte, 12*testPage)
	for i := 0; i < 4; i++ {
		// Each read stages more blocks to disk — vector changes with zero
		// cache/table epochs moving, which is why staged devices bypass.
		if _, err := fh.ReadAt(buf, int64(i)*16*testPage); err != nil {
			t.Fatal(err)
		}
		mustMatchRef(t, k, tab, n)
	}
	if st := tab.MemoStats(); st != (MemoStats{}) {
		t.Fatalf("staged-device queries must bypass the memo, got %+v", st)
	}
}

// TestMemoGeometryInvalidation covers the one mutation path with no
// epoch at all: a WriteAt inside an already-resident page that extends
// the file's size touches neither the residency index (Get+MarkDirty
// only) nor the table, so the memo must catch it via the per-lookup
// geometry (size/extent/device) comparison.
func TestMemoGeometryInvalidation(t *testing.T) {
	k, disk, tab := equivMachine(t, 64, cache.LRU)
	size := int64(3*testPage + testPage/4)
	n, err := k.Create("/d/f", disk, workload.NewText(4, size, testPage))
	if err != nil {
		t.Fatal(err)
	}
	fh, err := k.Open("/d/f")
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	buf := make([]byte, 4*testPage)
	if _, err := fh.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	mustMatchRef(t, k, tab, n)
	mustMatchRef(t, k, tab, n)
	epochBefore := k.ResidencyEpoch(n)
	// Extend within the resident last page: size grows, no insert.
	if _, err := fh.WriteAt(buf[:testPage/2], size); err != nil {
		t.Fatal(err)
	}
	if n.Size() <= size {
		t.Fatalf("write did not extend the file: size %d", n.Size())
	}
	if got := k.ResidencyEpoch(n); got != epochBefore {
		t.Skipf("write bumped the residency epoch (%d -> %d); geometry path not exercised", epochBefore, got)
	}
	sleds := mustMatchRef(t, k, tab, n)
	if sleds[len(sleds)-1].End() != n.Size() {
		t.Fatalf("memoized vector stops at %d, file size %d", sleds[len(sleds)-1].End(), n.Size())
	}
}

// TestMemoCapacityOneThrash alternates two files through a one-entry
// memo: every switch evicts and rebuilds, results stay exact, and the
// eviction counter proves the bound is enforced.
func TestMemoCapacityOneThrash(t *testing.T) {
	k, disk, tab := equivMachine(t, 96, cache.LRU)
	tab.SetMemoCapacity(1)
	a := memoFile(t, k, disk, "/d/a", 25, 1)
	b := memoFile(t, k, disk, "/d/b", 31, 2)
	for i := 0; i < 6; i++ {
		mustMatchRef(t, k, tab, a)
		mustMatchRef(t, k, tab, b)
	}
	st := tab.MemoStats()
	if st.Evictions == 0 {
		t.Fatalf("capacity-1 memo with two files should evict, got %+v", st)
	}
	// mustMatchRef queries each file once per call; every same-file repeat
	// is a miss here because the other file evicted it in between.
	if st.Hits != 0 {
		t.Fatalf("capacity-1 alternation can never hit, got %+v", st)
	}
}

// TestMemoFastCopy pins the sample-equal replay tier: with residency,
// config, load and health all quiet, the second query is a hit served by
// copying the previous output — and the copy must not alias the memo's
// retained buffer.
func TestMemoFastCopy(t *testing.T) {
	k, disk, tab := equivMachine(t, 64, cache.LRU)
	n := memoFile(t, k, disk, "/d/f", 30, 6)
	first, err := Query(k, tab, n)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Query(k, tab, n)
	if err != nil {
		t.Fatal(err)
	}
	st := tab.MemoStats()
	if st.Hits != 1 || st.FastCopies != 1 || st.Misses != 1 {
		t.Fatalf("want 1 miss then 1 fast-copy hit, got %+v", st)
	}
	// Corrupt the returned vector; a third query must be unaffected.
	for i := range second {
		second[i].Latency = -1
	}
	third, err := Query(k, tab, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range third {
		if third[i] != first[i] {
			t.Fatalf("memo retained caller-corrupted storage: %v vs %v", third[i], first[i])
		}
	}
}

// TestMemoWarmAllocsZero pins the alloc contract on both warm tiers at
// paper scale: the sample-equal fast copy and the rebuild-after-config-
// bump path (which reuses the entry's retained buffers) are both
// allocation-free once the scratch has grown.
func TestMemoWarmAllocsZero(t *testing.T) {
	k, tab, n := benchFile(t)
	var scratch []SLED
	warm := func() {
		out, err := QueryAppend(scratch, k, tab, n)
		if err != nil {
			t.Fatal(err)
		}
		scratch = out
	}
	warm() // build skeleton, grow buffers
	if a := testing.AllocsPerRun(10, warm); a != 0 {
		t.Fatalf("warm fast-copy path allocates %.0f/op, want 0", a)
	}
	load := &fakeLoad{depth: map[device.ID]int{}, rem: map[device.ID]simclock.Duration{}}
	rebuild := func() {
		tab.SetLoad(load) // bumps the config epoch: full skeleton rebuild
		out, err := QueryAppend(scratch, k, tab, n)
		if err != nil {
			t.Fatal(err)
		}
		scratch = out
	}
	rebuild()
	if a := testing.AllocsPerRun(10, rebuild); a != 0 {
		t.Fatalf("rebuild path allocates %.0f/op, want 0", a)
	}
}

// BenchmarkQueryAppendCold is the memo-disabled baseline the ≥10x
// acceptance criterion compares BenchmarkQueryAppend (warm) against, on
// the same 1024-run paper-scale file.
func BenchmarkQueryAppendCold(b *testing.B) {
	k, tab, n := benchFile(b)
	tab.SetMemoCapacity(0)
	var scratch []SLED
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := QueryAppend(scratch, k, tab, n)
		if err != nil {
			b.Fatal(err)
		}
		scratch = out
	}
}

// BenchmarkQueryAppendOverlay measures the middle tier: skeleton valid
// but the dynamic sample changed, so every segment is re-estimated (no
// fast copy). The load flips between two depths each iteration.
func BenchmarkQueryAppendOverlay(b *testing.B) {
	k, tab, n := benchFile(b)
	load := &fakeLoad{depth: map[device.ID]int{n.Device(): 1}, rem: map[device.ID]simclock.Duration{}}
	tab.SetLoad(load)
	var scratch []SLED
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		load.depth[n.Device()] = 1 + i%2
		out, err := QueryAppend(scratch, k, tab, n)
		if err != nil {
			b.Fatal(err)
		}
		scratch = out
	}
}

// BenchmarkQueryAppendRebuild measures a full skeleton rebuild per query
// (config epoch bumped every iteration) — the worst warm-memo case,
// still allocation-free because the entry's buffers are reused.
func BenchmarkQueryAppendRebuild(b *testing.B) {
	k, tab, n := benchFile(b)
	load := &fakeLoad{depth: map[device.ID]int{}, rem: map[device.ID]simclock.Duration{}}
	var scratch []SLED
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.SetLoad(load)
		out, err := QueryAppend(scratch, k, tab, n)
		if err != nil {
			b.Fatal(err)
		}
		scratch = out
	}
}
