package wcapp

import (
	"bytes"
	"testing"
	"testing/quick"

	"sleds/internal/apps/apptest"
	"sleds/internal/workload"
)

// refCount is the reference word counter: a single in-memory pass.
func refCount(data []byte) Result {
	var r Result
	inWord := false
	for _, c := range data {
		if c == '\n' {
			r.Lines++
		}
		if isSpace(c) {
			inWord = false
		} else if !inWord {
			inWord = true
			r.Words++
		}
	}
	r.Bytes = int64(len(data))
	return r
}

func TestLinearMatchesReference(t *testing.T) {
	m := apptest.New(t, 64)
	c := m.TextFile(t, "/data/f", 42, 3*apptest.PageSize+777)
	want := refCount(c.ReadAll())
	got, err := Run(m.Env(false), "/data/f")
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("linear wc = %+v, want %+v", got, want)
	}
}

func TestSLEDsMatchesReferenceColdCache(t *testing.T) {
	m := apptest.New(t, 64)
	c := m.TextFile(t, "/data/f", 42, 3*apptest.PageSize+777)
	want := refCount(c.ReadAll())
	got, err := Run(m.Env(true), "/data/f")
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("SLEDs wc = %+v, want %+v", got, want)
	}
}

func TestSLEDsMatchesReferenceWarmPartialCache(t *testing.T) {
	// The crucial case: file larger than cache, tail resident, so the
	// SLEDs variant reads out of order and must reconcile boundaries.
	m := apptest.New(t, 8)
	c := m.TextFile(t, "/data/f", 7, 20*apptest.PageSize+123)
	m.WarmFile(t, "/data/f")
	want := refCount(c.ReadAll())
	// ReadAll materialises content without touching the simulated cache,
	// so the warm state is intact.
	got, err := Run(m.Env(true), "/data/f")
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("SLEDs wc (warm) = %+v, want %+v", got, want)
	}
}

func TestBoundaryWordNotDoubleCounted(t *testing.T) {
	// Build a file whose only content is one long word spanning many
	// pages: every chunk boundary cuts it, so without reconciliation the
	// SLEDs count would be ~chunks, not 1.
	m := apptest.New(t, 8)
	size := int64(6 * apptest.PageSize)
	word := bytes.Repeat([]byte{'x'}, int(size))
	c := workload.NewBytes(word, apptest.PageSize)
	if _, err := m.K.Create("/data/oneword", m.Disk, c); err != nil {
		t.Fatal(err)
	}
	m.WarmFile(t, "/data/oneword")
	env := m.Env(true)
	env.BufSize = apptest.PageSize
	got, err := Run(env, "/data/oneword")
	if err != nil {
		t.Fatal(err)
	}
	if got.Words != 1 || got.Lines != 0 || got.Bytes != size {
		t.Fatalf("one-word file counted as %+v", got)
	}
}

func TestEmptyFile(t *testing.T) {
	m := apptest.New(t, 8)
	if _, err := m.K.CreateEmpty("/data/empty", m.Disk); err != nil {
		t.Fatal(err)
	}
	for _, sleds := range []bool{false, true} {
		got, err := Run(m.Env(sleds), "/data/empty")
		if err != nil {
			t.Fatal(err)
		}
		if got != (Result{}) {
			t.Fatalf("empty file (sleds=%v) = %+v", sleds, got)
		}
	}
}

func TestMissingFile(t *testing.T) {
	m := apptest.New(t, 8)
	if _, err := Run(m.Env(false), "/data/nope"); err == nil {
		t.Fatalf("missing file succeeded")
	}
	if _, err := Run(m.Env(true), "/data/nope"); err == nil {
		t.Fatalf("missing file (sleds) succeeded")
	}
}

func TestSLEDsFewerFaultsOnWarmCache(t *testing.T) {
	m := apptest.New(t, 8)
	m.TextFile(t, "/data/f", 3, 16*apptest.PageSize)
	m.WarmFile(t, "/data/f")

	m.K.ResetRunStats()
	if _, err := Run(m.Env(false), "/data/f"); err != nil {
		t.Fatal(err)
	}
	without := m.K.RunStats().Faults

	m.WarmFile(t, "/data/f")
	m.K.ResetRunStats()
	if _, err := Run(m.Env(true), "/data/f"); err != nil {
		t.Fatal(err)
	}
	with := m.K.RunStats().Faults

	if without != 16 {
		t.Fatalf("without SLEDs faults = %d, want 16", without)
	}
	if with >= without {
		t.Fatalf("SLEDs faults %d not below %d", with, without)
	}
}

func TestSLEDsFasterOnWarmCacheLargerThanCache(t *testing.T) {
	m := apptest.New(t, 8)
	m.TextFile(t, "/data/f", 3, 24*apptest.PageSize)
	m.WarmFile(t, "/data/f")

	w := m.Env(false).Timer()
	Run(m.Env(false), "/data/f")
	without := w.Elapsed()

	m.WarmFile(t, "/data/f")
	w = m.Env(true).Timer()
	Run(m.Env(true), "/data/f")
	with := w.Elapsed()

	if with >= without {
		t.Fatalf("SLEDs run (%v) not faster than linear (%v)", with, without)
	}
}

func TestCountChunkEdges(t *testing.T) {
	cases := []struct {
		in                 string
		lines, words       int64
		startsNon, endsNon bool
	}{
		{"", 0, 0, false, false},
		{"a", 0, 1, true, true},
		{" a ", 0, 1, false, false},
		{"a b", 0, 2, true, true},
		{"\n\n", 2, 0, false, false},
		{"one two\nthree", 1, 3, true, true},
		{"  ", 0, 0, false, false},
	}
	for _, tc := range cases {
		l, w, s, e := countChunk([]byte(tc.in))
		if l != tc.lines || w != tc.words || s != tc.startsNon || e != tc.endsNon {
			t.Errorf("countChunk(%q) = %d,%d,%v,%v", tc.in, l, w, s, e)
		}
	}
}

// Property: SLEDs and linear wc agree for any seed/size/buffer/cache
// configuration.
func TestAgreementProperty(t *testing.T) {
	f := func(seed uint16, sizeRaw uint16, bufRaw uint8) bool {
		m := apptest.New(t, 4)
		size := int64(sizeRaw)%40000 + 1
		m.TextFile(t, "/data/f", uint64(seed), size)
		m.WarmFile(t, "/data/f")
		envL := m.Env(false)
		envS := m.Env(true)
		envS.BufSize = int64(bufRaw)%6000 + 64
		a, err := Run(envL, "/data/f")
		if err != nil {
			return false
		}
		b, err := Run(envS, "/data/f")
		if err != nil {
			return false
		}
		return a == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// countChunkRef is the byte-at-a-time counter countChunk replaced, kept
// verbatim as the oracle for the table-driven loop.
func countChunkRef(p []byte) (lines, words int64, startsNonSpace, endsNonSpace bool) {
	inWord := false
	for _, c := range p {
		if c == '\n' {
			lines++
		}
		if isSpace(c) {
			inWord = false
		} else if !inWord {
			inWord = true
			words++
		}
	}
	if len(p) > 0 {
		startsNonSpace = !isSpace(p[0])
		endsNonSpace = !isSpace(p[len(p)-1])
	}
	return
}

// separators are wc's default word separators, spelled out independently
// of the table countChunk reads.
const separators = " \t\n\v\f\r\x00"

func TestSeparatorTable(t *testing.T) {
	for c := 0; c < 256; c++ {
		want := bytes.IndexByte([]byte(separators), byte(c)) >= 0
		if got := isSpace(byte(c)); got != want {
			t.Errorf("isSpace(%#02x) = %v, want %v", c, got, want)
		}
	}
}

func FuzzCountChunk(f *testing.F) {
	all := make([]byte, 256)
	for i := range all {
		all[i] = byte(i)
		f.Add([]byte{byte(i)})
		f.Add([]byte{'a', byte(i), 'b'})
	}
	f.Add(all)
	for i := 0; i < len(separators); i++ {
		f.Add([]byte("word" + separators[i:i+1] + "word"))
		f.Add([]byte(separators[i:i+1] + "x" + separators[i:i+1]))
	}
	f.Add([]byte(""))
	f.Add([]byte("one two\nthree  four\t\tfive\n"))
	f.Fuzz(func(t *testing.T, p []byte) {
		l, w, s, e := countChunk(p)
		rl, rw, rs, re := countChunkRef(p)
		if l != rl || w != rw || s != rs || e != re {
			t.Fatalf("countChunk(%q) = %d,%d,%v,%v; reference %d,%d,%v,%v", p, l, w, s, e, rl, rw, rs, re)
		}
	})
}

func BenchmarkCountChunk(b *testing.B) {
	c := workload.NewText(1, 16<<10, apptest.PageSize)
	p := c.ReadAll()
	b.SetBytes(int64(len(p)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		countChunk(p)
	}
}
