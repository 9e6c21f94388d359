package workload

import (
	"encoding/binary"
	"fmt"
)

// Deterministic pseudo-text generation. Each page is generated
// independently from (seed, page) with a splitmix64 stream, so any page
// can be produced in O(pageSize) without generating its predecessors —
// the property that lets the simulator serve random page faults cheaply.

// lexicon is a small pool of lowercase words; none of them contains the
// grep experiment's needle ("xyzzy..."), so planted matches are the only
// matches. It is an array so the per-word `% len(lexicon)` compiles to a
// multiply by a constant rather than a divide.
var lexicon = [...]string{
	"the", "quick", "brown", "fox", "jumps", "over", "lazy", "dog",
	"storage", "latency", "estimation", "descriptor", "cache", "page",
	"fault", "disk", "tape", "mount", "seek", "transfer", "bandwidth",
	"kernel", "library", "vector", "offset", "length", "segment", "file",
	"system", "buffer", "linear", "pass", "reorder", "prune", "report",
	"astronomy", "image", "histogram", "rebin", "pixel", "header", "unit",
}

// packedWord is a lexicon word packed little-endian into 16 zero-padded
// bytes, so TextGen can emit it with two unconditional 8-byte stores.
type packedWord struct {
	lo, hi uint64
	n      int
}

// packed holds lexicon[i] packed at index i. The longest word is 10
// bytes; a word over 16 would not fit, and TestTextGenMatchesReference
// would fail.
var packed = func() (out [len(lexicon)]packedWord) {
	for i, w := range lexicon {
		var b [16]byte
		copy(b[:], w)
		out[i] = packedWord{lo: binary.LittleEndian.Uint64(b[:8]), hi: binary.LittleEndian.Uint64(b[8:]), n: len(w)}
	}
	return out
}()

// splitmix64 advances x and returns a well-mixed 64-bit value.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// TextGen returns a PageGen producing line-oriented pseudo-text: words from
// the lexicon separated by single spaces, newlines roughly every 50-70
// bytes. Page content depends only on (seed, page).
//
// The stream draws one splitmix64 value per word and then, unless the
// word reached the end of the page, one per separator (a newline once the
// line is at least 50 plus the draw mod 20 bytes long, else a space).
// While at least 17 bytes of the page remain, a word is written with one
// 16-byte store: the word and its separator fit, and the zero padding
// past the word is overwritten by the separator and the words after it.
// Nearer the end of the page, words are copied.
func TextGen(seed uint64) PageGen {
	return func(page int64, buf []byte) {
		state := seed ^ (uint64(page)+1)*0x9e3779b97f4a7c15
		// Warm the stream so adjacent pages decorrelate.
		splitmix64(&state)

		lineLen := 0
		i := 0
		for i < len(buf) {
			k := splitmix64(&state) % uint64(len(lexicon))
			var n int
			if len(buf)-i > 16 {
				w := &packed[k]
				binary.LittleEndian.PutUint64(buf[i:], w.lo)
				binary.LittleEndian.PutUint64(buf[i+8:], w.hi)
				n = w.n
			} else {
				n = copy(buf[i:], lexicon[k])
			}
			i += n
			lineLen += n
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

// NewText creates pseudo-text content of the given size.
func NewText(seed uint64, size int64, pageSize int) *Content {
	return New(size, pageSize, TextGen(seed))
}

// MatchLine builds a full text line embedding needle, padded to exactly
// width bytes including the trailing newline (width must exceed
// len(needle)+2). Planting whole lines keeps the grep experiments honest:
// the match is found by scanning line content, not by luck of phasing.
func MatchLine(needle string, width int) []byte {
	if width < len(needle)+2 {
		panic("workload: match line width too small")
	}
	line := make([]byte, width)
	for i := range line {
		line[i] = 'a' + byte(i%13)
	}
	line[0] = '\n' // terminate whatever line the splice lands inside
	copy(line[1+(width-2-len(needle))/2:], needle)
	line[width-1] = '\n'
	return line
}

// matchLineWidth is the fixed width of a planted match line.
const matchLineWidth = 64

// TryPlantMatch splices a line containing needle so that it covers byte
// offset off, clamping off so the line fits inside the content. It
// returns an error when the content is too small to hold a whole match
// line at all (under matchLineWidth bytes), or when the clamped splice
// overlaps a previously planted line.
func TryPlantMatch(c *Content, off int64, needle string) error {
	if c.Size() < matchLineWidth {
		return fmt.Errorf("workload: content of %d bytes cannot hold a %d-byte match line", c.Size(), matchLineWidth)
	}
	if off > c.Size()-matchLineWidth {
		off = c.Size() - matchLineWidth
	}
	if off < 0 {
		off = 0
	}
	return c.TryInsertAt(off, MatchLine(needle, matchLineWidth))
}

// PlantMatch is TryPlantMatch for experiment driver code: a file too
// small for a match line or an overlapping plant is a programming error
// in the experiment's geometry, so it panics with TryPlantMatch's error
// instead of returning it.
func PlantMatch(c *Content, off int64, needle string) {
	if err := TryPlantMatch(c, off, needle); err != nil {
		panic(err.Error())
	}
}
