package core

import (
	"io"
	"reflect"
	"testing"
	"testing/quick"

	"sleds/internal/cache"
	"sleds/internal/device"
	"sleds/internal/hsm"
	"sleds/internal/simclock"
	"sleds/internal/vfs"
	"sleds/internal/workload"
)

// equivMachine is testMachine with a selectable replacement policy; the
// equivalence suite runs every scenario under LRU, CLOCK and FIFO because
// the policies produce different residency shapes for the same reads.
func equivMachine(t testing.TB, cachePages int, pol cache.Policy) (*vfs.Kernel, device.ID, *Table) {
	t.Helper()
	mem := device.NewMem(device.DefaultMemConfig(0))
	k := vfs.NewKernel(vfs.Config{PageSize: testPage, CachePages: cachePages, Policy: pol, MemDevice: mem})
	k.AttachDevice(mem)
	disk := k.AttachDevice(device.NewDisk(device.DefaultDiskConfig(1)))
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
	return k, disk, tab
}

// mustMatchRef asserts Query (memoized by default), a fresh
// zero-capacity memo's query (which builds into its scratch entry and
// leaves the table's memo state alone) and the per-page reference
// produce byte-identical SLED vectors (or identical errors) for the
// inode. Calling all three back to back at one virtual instant is
// exact: the lazy health decay is idempotent at a fixed now, so the
// first call brings the penalty current and the others observe the
// same bits.
func mustMatchRef(t *testing.T, k *vfs.Kernel, tab *Table, n *vfs.Inode) []SLED {
	t.Helper()
	got, gotErr := Query(k, tab, n)
	cold, coldErr := newSledMemo(0).query(nil, k, tab, n)
	want, wantErr := queryRef(k, tab, n)
	if (gotErr == nil) != (wantErr == nil) || (coldErr == nil) != (wantErr == nil) {
		t.Fatalf("error divergence: new=%v cold=%v ref=%v", gotErr, coldErr, wantErr)
	}
	if gotErr != nil {
		if gotErr.Error() != wantErr.Error() || coldErr.Error() != wantErr.Error() {
			t.Fatalf("error text divergence:\nnew: %v\ncold: %v\nref: %v", gotErr, coldErr, wantErr)
		}
		return nil
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SLED vector divergence:\nnew: %v\nref: %v", got, want)
	}
	if !reflect.DeepEqual(cold, want) {
		t.Fatalf("SLED vector divergence:\ncold: %v\nref: %v", cold, want)
	}
	if err := Validate(got, n.Size()); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestQueryEquivalenceProperty drives randomized read patterns (hence
// randomized residency-run shapes) through every policy, with and without
// zones and load, and demands exact agreement with the per-page scan.
func TestQueryEquivalenceProperty(t *testing.T) {
	for _, pol := range []cache.Policy{cache.LRU, cache.Clock, cache.FIFO} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			f := func(sizeSel uint8, tail uint16, reads []uint16, zoned, loaded bool, seed uint64) bool {
				pages := int64(sizeSel%60) + 1
				size := (pages-1)*testPage + int64(tail)%testPage + 1
				k, disk, tab := equivMachine(t, 37, pol)
				if zoned {
					// Boundaries deliberately misaligned to the page size:
					// a page straddling a zone must be classified by its
					// start offset, as the per-page scan does.
					if err := tab.SetDeviceZones(disk, []ZoneEntry{
						{FromByte: 0, Entry: Entry{Latency: 15e-3, Bandwidth: 12 * (1 << 20)}},
						{FromByte: 13*testPage + 777, Entry: Entry{Latency: 18e-3, Bandwidth: 9 * (1 << 20)}},
						{FromByte: 41 * testPage, Entry: Entry{Latency: 22e-3, Bandwidth: 6 * (1 << 20)}},
					}); err != nil {
						t.Fatal(err)
					}
				}
				if loaded {
					tab.SetLoad(&fakeLoad{
						depth: map[device.ID]int{disk: 2},
						rem:   map[device.ID]simclock.Duration{disk: simclock.Millisecond},
					})
				}
				n, err := k.Create("/d/f", disk, workload.NewText(seed, size, testPage))
				if err != nil {
					t.Fatal(err)
				}
				fh, err := k.Open("/d/f")
				if err != nil {
					t.Fatal(err)
				}
				buf := make([]byte, 4*testPage)
				for _, r := range reads {
					off := (int64(r>>4) % pages) * testPage
					ln := int64(r%4+1) * testPage
					if _, err := fh.ReadAt(buf[:ln], off); err != nil && err != io.EOF {
						t.Fatal(err)
					}
					mustMatchRef(t, k, tab, n)
				}
				fh.Close()
				// Punch holes to fragment the residency runs further.
				for i, r := range reads {
					if i%3 == 0 {
						k.Cache().Invalidate(cache.Key{File: uint64(n.Ino()), Page: int64(r) % pages})
					}
				}
				mustMatchRef(t, k, tab, n)
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestQueryEquivalenceDegraded compares against the reference while the
// device's health penalty decays across virtual time: confidence grading
// and penalty folding must agree at every sample instant.
func TestQueryEquivalenceDegraded(t *testing.T) {
	k, disk, tab := equivMachine(t, 64, cache.LRU)
	n, err := k.Create("/d/f", disk, workload.NewText(3, 20*testPage, testPage))
	if err != nil {
		t.Fatal(err)
	}
	fh, err := k.Open("/d/f")
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	buf := make([]byte, 5*testPage)
	if _, err := fh.ReadAt(buf, 8*testPage); err != nil {
		t.Fatal(err)
	}

	tab.ObserveFault(disk, 40*simclock.Millisecond, k.Clock.Now())
	for i := 0; i < 6; i++ {
		sleds := mustMatchRef(t, k, tab, n)
		if i == 0 {
			degraded := false
			for _, s := range sleds {
				if s.Confidence < 1 {
					degraded = true
				}
			}
			if !degraded {
				t.Fatalf("no degraded SLED right after a fault: %v", sleds)
			}
		}
		k.Clock.Advance(45 * simclock.Second) // across penalty half-lives
	}
}

// hsmMachine boots a machine whose tape is fronted by an HSM stager
// migrating blocks to the disk. The table holds the memory entry only;
// callers install the device entries.
func hsmMachine(t testing.TB, cachePages int, pol cache.Policy, size int64) (k *vfs.Kernel, tape, disk device.ID, tab *Table) {
	t.Helper()
	mem := device.NewMem(device.DefaultMemConfig(0))
	k = vfs.NewKernel(vfs.Config{PageSize: testPage, CachePages: cachePages, Policy: pol, MemDevice: mem})
	k.AttachDevice(mem)
	disk = k.AttachDevice(device.NewDisk(device.DefaultDiskConfig(1)))
	tape = k.AttachDevice(device.NewTapeLibrary(device.DefaultTapeLibraryConfig(2)))
	if err := k.MkdirAll("/d"); err != nil {
		t.Fatal(err)
	}
	tab = NewTable()
	if err := tab.SetMemory(Entry{Latency: 175e-9, Bandwidth: 48 * (1 << 20)}); err != nil {
		t.Fatal(err)
	}
	if _, err := hsm.New(k, hsm.Config{Tape: tape, Disk: disk, BlockSize: 8 * testPage, Capacity: size / 2}); err != nil {
		t.Fatal(err)
	}
	return k, tape, disk, tab
}

// hsmEquiv is the staged-file equivalence property: a tape file under
// an HSM stager, driven through reads (stage-ins and cache churn), page
// invalidations, fault observations on either level and clock advances
// across penalty half-lives, must match the per-page scan after every
// step. The page cache is smaller than the stager's disk area, which
// leaves staged-but-not-resident ranges under every policy. sameEntries
// gives tape and disk identical table entries, so only the per-device
// samples tell their pages apart; missingDisk leaves the disk out of the
// table, so any staged-but-not-resident page must raise the reference's
// error.
func hsmEquiv(t *testing.T, pol cache.Policy, ops []uint16, zoned, loaded, sameEntries, missingDisk bool) {
	size := int64(80 * testPage)
	pages := size / testPage
	k, tape, disk, tab := hsmMachine(t, 32, pol, size)
	tapeEntry := Entry{Latency: 40, Bandwidth: 2 * (1 << 20)}
	diskEntry := Entry{Latency: 18e-3, Bandwidth: 9 * (1 << 20)}
	if sameEntries {
		diskEntry = tapeEntry
	}
	if err := tab.SetDevice(tape, tapeEntry); err != nil {
		t.Fatal(err)
	}
	switch {
	case missingDisk:
	case zoned:
		if err := tab.SetDeviceZones(disk, []ZoneEntry{
			{FromByte: 0, Entry: diskEntry},
			{FromByte: 13*testPage + 777, Entry: Entry{Latency: 22e-3, Bandwidth: 6 * (1 << 20)}},
			{FromByte: 41 * testPage, Entry: diskEntry},
		}); err != nil {
			t.Fatal(err)
		}
	default:
		if err := tab.SetDevice(disk, diskEntry); err != nil {
			t.Fatal(err)
		}
	}
	if loaded {
		tab.SetLoad(&fakeLoad{
			depth: map[device.ID]int{tape: 1, disk: 2},
			rem:   map[device.ID]simclock.Duration{tape: 3 * simclock.Millisecond, disk: simclock.Millisecond},
		})
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
	for _, op := range ops {
		arg := int64(op >> 3)
		switch op & 7 {
		case 0, 1, 2: // read: stage-ins, cache inserts and evictions
			off := (arg % pages) * testPage
			ln := (arg%6 + 1) * 2 * testPage
			if _, err := fh.ReadAt(buf[:ln], off); err != nil && err != io.EOF {
				t.Fatal(err)
			}
		case 3: // invalidate one page: splices a run
			k.Cache().Invalidate(cache.Key{File: uint64(n.Ino()), Page: arg % pages})
		case 4: // fault on the tape
			tab.ObserveFault(tape, simclock.Duration(arg%50+1)*simclock.Millisecond, k.Clock.Now())
		case 5: // fault on the disk
			tab.ObserveFault(disk, simclock.Duration(arg%50+1)*simclock.Millisecond, k.Clock.Now())
		default: // decay across penalty half-lives
			k.Clock.Advance(simclock.Duration(arg%90+1) * simclock.Second)
		}
		mustMatchRef(t, k, tab, n)
	}
}

// TestQueryEquivalenceHSM runs the staged-file property under LRU, CLOCK
// and FIFO, plus one fixed case that defeats a skeleton merging
// segments across devices: tape and disk share a table entry and only
// the disk has faulted, so an unstaged tape page and an adjacent
// staged-but-not-resident disk page differ only in their device's
// sample.
func TestQueryEquivalenceHSM(t *testing.T) {
	for _, pol := range []cache.Policy{cache.LRU, cache.Clock, cache.FIFO} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			// Stage and cache pages 60..72 and 30..36, punch page 33,
			// then fault the disk.
			hsmEquiv(t, pol, []uint16{60<<3 | 0, 30<<3 | 2, 33<<3 | 3, 7<<3 | 5}, false, false, true, false)
			f := func(ops []uint16, zoned, loaded, sameEntries, missingDisk bool) bool {
				hsmEquiv(t, pol, ops, zoned, loaded, sameEntries, missingDisk)
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestQueryStagedAllocsZero pins the staged path at zero allocations:
// a warm QueryAppend of an HSM-staged file builds into the memo's
// scratch entry and samples both levels into retained buffers.
func TestQueryStagedAllocsZero(t *testing.T) {
	size := int64(80 * testPage)
	k, tape, disk, tab := hsmMachine(t, 32, cache.LRU, size)
	if err := tab.SetDevice(tape, Entry{Latency: 40, Bandwidth: 2 * (1 << 20)}); err != nil {
		t.Fatal(err)
	}
	if err := tab.SetDevice(disk, Entry{Latency: 18e-3, Bandwidth: 9 * (1 << 20)}); err != nil {
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
	if _, err := fh.ReadAt(buf, 40*testPage); err != nil {
		t.Fatal(err)
	}
	tab.ObserveFault(disk, 20*simclock.Millisecond, k.Clock.Now())
	var scratch []SLED
	warm := func() {
		out, err := QueryAppend(scratch, k, tab, n)
		if err != nil {
			t.Fatal(err)
		}
		scratch = out
	}
	warm()
	if len(scratch) < 3 {
		t.Fatalf("want RAM, disk and tape sections, got %v", scratch)
	}
	if a := testing.AllocsPerRun(10, warm); a != 0 {
		t.Fatalf("warm staged query allocates %.0f/op, want 0", a)
	}
}

// TestQueryEquivalenceMissingEntry checks the error path agrees with the
// reference: same message, raised at the first uncached page, and a fully
// cached file on an unknown device must NOT error (the reference never
// consults the table for resident pages).
func TestQueryEquivalenceMissingEntry(t *testing.T) {
	k, disk, _ := equivMachine(t, 64, cache.LRU)
	n, err := k.Create("/d/f", disk, workload.NewText(5, 6*testPage, testPage))
	if err != nil {
		t.Fatal(err)
	}
	bare := NewTable()
	if err := bare.SetMemory(Entry{Latency: 175e-9, Bandwidth: 48 * (1 << 20)}); err != nil {
		t.Fatal(err)
	}
	mustMatchRef(t, k, bare, n) // cold file, no device entry: both must error identically

	fh, err := k.Open("/d/f")
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	buf := make([]byte, 6*testPage)
	if _, err := fh.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if sleds := mustMatchRef(t, k, bare, n); len(sleds) != 1 {
		t.Fatalf("fully cached file: %v", sleds)
	}
}

// benchFile builds a paper-scale sparse-residency file: 256 MB (65536
// pages) with an 8-page resident run every 64 pages — 1024 runs, the
// FSLEDS_GET shape the index is built for. Residency is installed
// directly in the page cache so setup stays cheap.
func benchFile(b testing.TB) (*vfs.Kernel, *Table, *vfs.Inode) {
	b.Helper()
	k, disk, tab := equivMachine(b, 1<<14, cache.LRU)
	size := int64(256 << 20)
	n, err := k.Create("/d/big", disk, workload.NewText(7, size, testPage))
	if err != nil {
		b.Fatal(err)
	}
	c := k.Cache()
	for p := int64(0); p < size/testPage; p += 64 {
		for q := p; q < p+8; q++ {
			if err := c.Insert(cache.Key{File: uint64(n.Ino()), Page: q}, nil, false); err != nil {
				b.Fatal(err)
			}
		}
	}
	return k, tab, n
}

// BenchmarkQuery measures the O(runs) FSLEDS_GET on the paper-scale
// sparse file; compare with BenchmarkQueryRef (the per-page scan) for the
// speedup and allocation delta.
func BenchmarkQuery(b *testing.B) {
	k, tab, n := benchFile(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Query(k, tab, n); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryAppend is BenchmarkQuery with the scratch-reuse entry
// point the pick library uses: steady-state queries allocate nothing.
func BenchmarkQueryAppend(b *testing.B) {
	k, tab, n := benchFile(b)
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

// BenchmarkQueryRef is the original per-page FSLEDS_GET on the same file,
// kept as the baseline the acceptance criterion compares against.
func BenchmarkQueryRef(b *testing.B) {
	k, tab, n := benchFile(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := queryRef(k, tab, n); err != nil {
			b.Fatal(err)
		}
	}
}

// TestQueryAllocsFewerThanRef pins the "strictly fewer allocations"
// acceptance criterion at paper scale.
func TestQueryAllocsFewerThanRef(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale allocation comparison")
	}
	k, tab, n := benchFile(t)
	newAllocs := testing.AllocsPerRun(5, func() {
		if _, err := Query(k, tab, n); err != nil {
			t.Fatal(err)
		}
	})
	refAllocs := testing.AllocsPerRun(5, func() {
		if _, err := queryRef(k, tab, n); err != nil {
			t.Fatal(err)
		}
	})
	if newAllocs >= refAllocs {
		t.Fatalf("Query allocs/op = %.0f, reference = %.0f; want strictly fewer", newAllocs, refAllocs)
	}
	t.Logf("allocs/op: new=%.0f ref=%.0f", newAllocs, refAllocs)
}
