// Package wcapp is the modified wc(1) of the paper's §4.3: it counts
// lines, words and bytes, either by a conventional sequential scan or by
// reading in the order the SLEDs pick library advises.
//
// Word counting is order-sensitive at chunk boundaries only (a word
// spanning two chunks must not be counted twice). The paper notes that
// "since the order of data access is not significant, little overhead is
// generated in modifying the code": the SLEDs variant counts each chunk
// independently and then reconciles adjacent chunk boundaries, exactly the
// boundary bookkeeping a real out-of-order wc needs.
package wcapp

import (
	"bytes"
	"errors"
	"io"
	"sort"

	"sleds/internal/apps/appenv"
	"sleds/internal/simclock"
	"sleds/internal/sledlib"
)

// scanRate is the modelled CPU cost of wc's byte classification loop
// (bytes/second on the paper's ~400 MHz test machine).
const scanRate = 30 * float64(1<<20)

// sledsChunkOverhead is the modelled per-chunk CPU cost of the SLEDs
// variant (pick-library call, lseek, boundary bookkeeping).
const sledsChunkOverhead = 25 * simclock.Microsecond

// defaultBufSize matches GNU wc's read buffer.
const defaultBufSize = 64 << 10

// Result is wc's output.
type Result struct {
	Lines int64
	Words int64
	Bytes int64
}

// space flags wc's default word separators (NUL, space, \t, \n, \v, \f
// and \r) with 1 and every other byte with 0, so countChunk classifies a
// byte with one table load instead of a chain of comparisons.
var space = [256]uint8{0: 1, ' ': 1, '\t': 1, '\n': 1, '\v': 1, '\f': 1, '\r': 1}

// isSpace matches wc's default word separators.
func isSpace(c byte) bool { return space[c] != 0 }

// countChunk counts a chunk in isolation: words are space->nonspace
// transitions with the chunk treated as if preceded by a space.
//
// prev and cur are the separator flags of consecutive bytes, so prev &^ cur
// is 1 exactly at a word's first byte; prev starts at 1 for the implied
// leading space. Adding the flag rather than testing it leaves the loop no
// data-dependent branch to mispredict. Lines are counted by bytes.Count,
// which scans for the newline a machine word or vector at a time.
func countChunk(p []byte) (lines, words int64, startsNonSpace, endsNonSpace bool) {
	prev, starts := uint(1), uint(0)
	for _, c := range p {
		cur := uint(space[c])
		starts += prev &^ cur
		prev = cur
	}
	lines, words = int64(bytes.Count(p, []byte{'\n'})), int64(starts)
	if len(p) > 0 {
		startsNonSpace = !isSpace(p[0])
		endsNonSpace = prev == 0
	}
	return
}

// Run counts the file at path under env.
func Run(env *appenv.Env, path string) (Result, error) {
	if env.UseSLEDs {
		return runSLEDs(env, path)
	}
	return runLinear(env, path)
}

// runLinear is stock wc: one sequential pass. Each read is counted with
// countChunk; a word cut by the boundary between two reads (the previous
// one ended inside it and this one starts inside it) was counted on both
// sides, so one count is taken back.
func runLinear(env *appenv.Env, path string) (Result, error) {
	f, err := env.K.Open(path)
	if err != nil {
		return Result{}, err
	}
	defer f.Close()

	bufSize := env.BufSize
	if bufSize <= 0 {
		bufSize = defaultBufSize
	}
	buf := make([]byte, bufSize)
	var res Result
	inWord := false
	for {
		n, err := f.Read(buf)
		lines, words, startsNonSpace, endsNonSpace := countChunk(buf[:n])
		res.Lines += lines
		res.Words += words
		if inWord && startsNonSpace {
			res.Words-- // a word straddling two reads was counted twice
		}
		inWord = endsNonSpace
		res.Bytes += int64(n)
		env.ChargeCPUBytes(int64(n), scanRate)
		if err == io.EOF {
			break
		}
		if err != nil {
			return Result{}, err
		}
	}
	return res, nil
}

// boundaryInfo records what chunk-edge reconciliation needs.
type boundaryInfo struct {
	off            int64
	end            int64
	startsNonSpace bool
	endsNonSpace   bool
}

// runSLEDs is the SLEDs-aware wc: chunks are read in pick order, counted
// independently, and words double-counted across adjacent chunk edges are
// subtracted in a final reconciliation pass.
func runSLEDs(env *appenv.Env, path string) (Result, error) {
	f, err := env.K.Open(path)
	if err != nil {
		return Result{}, err
	}
	defer f.Close()

	picker, err := sledlib.PickInit(env.K, env.Table, f, sledlib.Options{BufSize: env.BufSize})
	if err != nil {
		return Result{}, err
	}
	defer picker.Finish()

	var res Result
	var edges []boundaryInfo
	var buf []byte
	for {
		off, n, err := picker.NextRead()
		if errors.Is(err, sledlib.ErrFinished) {
			break
		}
		if err != nil {
			return Result{}, err
		}
		if int64(len(buf)) < n {
			buf = make([]byte, n)
		}
		if _, err := f.ReadAt(buf[:n], off); err != nil && err != io.EOF {
			return Result{}, err
		}
		lines, words, sns, ens := countChunk(buf[:n])
		res.Lines += lines
		res.Words += words
		res.Bytes += n
		edges = append(edges, boundaryInfo{off: off, end: off + n, startsNonSpace: sns, endsNonSpace: ens})
		env.ChargeCPUBytes(n, scanRate)
		env.ChargeCPU(sledsChunkOverhead)
	}

	// Reconcile: a word straddling the boundary between two adjacent
	// chunks was counted once in each; subtract the duplicates.
	sort.Slice(edges, func(i, j int) bool { return edges[i].off < edges[j].off })
	for i := 1; i < len(edges); i++ {
		if edges[i-1].end == edges[i].off && edges[i-1].endsNonSpace && edges[i].startsNonSpace {
			res.Words--
		}
	}
	env.ChargeCPU(simclock.Duration(len(edges)) * simclock.Microsecond)
	return res, nil
}
