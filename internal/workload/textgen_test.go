package workload

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"
)

// textGenRef is the byte-at-a-time generator TextGen replaced, kept
// verbatim as the oracle: TextGen must emit exactly its bytes.
func textGenRef(seed uint64) PageGen {
	lexicon := lexicon[:]
	return func(page int64, buf []byte) {
		state := seed ^ (uint64(page)+1)*0x9e3779b97f4a7c15
		// Warm the stream so adjacent pages decorrelate.
		splitmix64(&state)

		lineLen := 0
		i := 0
		for i < len(buf) {
			w := lexicon[splitmix64(&state)%uint64(len(lexicon))]
			for j := 0; j < len(w) && i < len(buf); j++ {
				buf[i] = w[j]
				i++
				lineLen++
			}
			if i >= len(buf) {
				break
			}
			if lineLen >= 50+int(splitmix64(&state)%20) {
				buf[i] = '\n'
				lineLen = 0
			} else {
				buf[i] = ' '
			}
			i++
		}
	}
}

func TestTextGenMatchesReference(t *testing.T) {
	sizes := []int{1, 5, 16, 17, 63, 4095, 4096, 4097, 8192}
	check := func(seed uint64) {
		gen, ref := TextGen(seed), textGenRef(seed)
		for _, size := range sizes {
			got := make([]byte, size)
			want := make([]byte, size)
			for page := int64(0); page < 300; page++ {
				// Poison the output so a byte TextGen forgets to write
				// shows up as a mismatch.
				for i := range got {
					got[i] = 0xa5
				}
				gen(page, got)
				ref(page, want)
				if !bytes.Equal(got, want) {
					i := 0
					for got[i] == want[i] {
						i++
					}
					t.Fatalf("seed %#x size %d page %d: first difference at byte %d: got %q, want %q",
						seed, size, page, i, got[i:min(i+16, size)], want[i:min(i+16, size)])
				}
			}
		}
	}
	check(0)
	check(1)
	check(7)
	check(1 << 63)
	check(0xdeadbeef)
}

// TestTextGenPinned pins the generator's output to a literal hash so that
// the reference cannot drift together with TextGen unnoticed: both the
// lexicon and the splitmix64 call sequence feed every figure.
func TestTextGenPinned(t *testing.T) {
	if len(lexicon) != 42 {
		t.Fatalf("lexicon has %d words, want 42", len(lexicon))
	}
	for _, tc := range []struct {
		name string
		gen  PageGen
	}{{"TextGen", TextGen(1)}, {"textGenRef", textGenRef(1)}} {
		h := fnv.New64()
		buf := make([]byte, 4096)
		for page := int64(0); page < 16; page++ {
			tc.gen(page, buf)
			h.Write(buf)
		}
		if got, want := fmt.Sprintf("%#016x", h.Sum64()), "0xe3d337ce1ad10120"; got != want {
			t.Errorf("%s(1) pages 0..15: FNV-64 = %s, want %s", tc.name, got, want)
		}
	}
}

func BenchmarkTextGen(b *testing.B) {
	gen := TextGen(1)
	buf := make([]byte, 4096)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		gen(int64(i), buf)
	}
}
