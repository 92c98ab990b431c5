package lz4

import (
	"bytes"
	"errors"
	"testing"
)

// Fuzz targets: `go test -fuzz=FuzzRoundTrip ./internal/lz4`. Under
// plain `go test` the seed corpus below runs as regression tests.

func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("a"))
	f.Add(bytes.Repeat([]byte("abc"), 100))
	f.Add(bytes.Repeat([]byte{0}, 1000))
	f.Add([]byte("the quick brown fox jumps over the lazy dog"))
	f.Fuzz(func(t *testing.T, src []byte) {
		dst := make([]byte, CompressBound(len(src)))
		n, err := CompressBlock(src, dst)
		if err != nil {
			t.Fatalf("CompressBlock: %v", err)
		}
		got, err := Decompress(dst[:n], len(src))
		if err != nil {
			t.Fatalf("Decompress: %v", err)
		}
		if !bytes.Equal(got, src) {
			t.Fatal("round trip mismatch")
		}
		// HC must agree with the same decoder.
		nhc, err := CompressBlockHC(src, dst, 16)
		if err != nil {
			t.Fatalf("CompressBlockHC: %v", err)
		}
		got, err = Decompress(dst[:nhc], len(src))
		if err != nil || !bytes.Equal(got, src) {
			t.Fatalf("HC round trip: %v", err)
		}
	})
}

func FuzzDecompressNeverPanics(f *testing.F) {
	f.Add([]byte{0x60, 'a', 'b', 'c', 'd', 'e', 'f'}, 6)
	f.Add([]byte{0x1f, 'a', 0x01, 0x00, 0x00}, 20)
	f.Add([]byte{0xff, 0xff, 0xff}, 100)
	f.Fuzz(func(t *testing.T, junk []byte, size int) {
		if size < 0 || size > 1<<20 {
			return
		}
		dst := make([]byte, size)
		// Must error or succeed, never panic or write out of bounds.
		_, _ = DecompressBlock(junk, dst)
	})
}

// FuzzDecompressMatchesReference holds DecompressBlock to refDecompress,
// the plain byte-wise decoder: on any input and any dst size both must
// fail alike (ErrCorrupt or ErrDstTooSmall) or return the same n and the
// same dst[:n]. The input is also compressed by CompressBlock and by
// refCompress: the two outputs must be identical, and each decoder must
// read the other encoder's output.
func FuzzDecompressMatchesReference(f *testing.F) {
	for _, e := range fastPathEdges() {
		f.Add(e.src, e.size)
	}
	f.Fuzz(func(t *testing.T, src []byte, size int) {
		if size < 0 || size > 1<<20 {
			return
		}
		got, want := make([]byte, size), make([]byte, size)
		n, err := DecompressBlock(src, got)
		rn, rerr := refDecompress(src, want)
		if errClass(err) != errClass(rerr) || n != rn {
			t.Fatalf("DecompressBlock = %d, %v; reference = %d, %v", n, err, rn, rerr)
		}
		if !bytes.Equal(got[:n], want[:rn]) {
			t.Fatalf("decoded bytes differ from the reference (n=%d)", n)
		}

		enc := make([]byte, CompressBound(len(src)))
		ref := make([]byte, CompressBound(len(src)))
		en, err := CompressBlock(src, enc)
		if err != nil {
			t.Fatalf("CompressBlock: %v", err)
		}
		refn, err := refCompress(src, ref)
		if err != nil {
			t.Fatalf("refCompress: %v", err)
		}
		if !bytes.Equal(enc[:en], ref[:refn]) {
			t.Fatalf("CompressBlock output (%d B) differs from the reference encoder's (%d B)", en, refn)
		}
		out := make([]byte, len(src))
		if m, err := refDecompress(enc[:en], out); err != nil || m != len(src) || !bytes.Equal(out, src) {
			t.Fatalf("reference decode of CompressBlock output: n=%d err=%v", m, err)
		}
		clear(out)
		if m, err := DecompressBlock(ref[:refn], out); err != nil || m != len(src) || !bytes.Equal(out, src) {
			t.Fatalf("DecompressBlock of reference encoder output: n=%d err=%v", m, err)
		}
	})
}

func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrCorrupt):
		return "corrupt"
	case errors.Is(err, ErrDstTooSmall):
		return "dst too small"
	default:
		return err.Error()
	}
}

// blockBuilder assembles a hand-made LZ4 block sequence by sequence.
type blockBuilder struct {
	src []byte
	di  int // decoded length so far
}

// seq appends a sequence and returns the decoded length before it.
func (w *blockBuilder) seq(lit []byte, offset, mLen int) int {
	di := w.di
	tmp := make([]byte, len(lit)+mLen/255+32)
	n := emitSequence(tmp, 0, lit, offset, mLen)
	w.src = append(w.src, tmp[:n]...)
	w.di += len(lit) + mLen
	return di
}

// last appends the final literal-only sequence and returns the block.
func (w *blockBuilder) last(lit []byte) []byte {
	tmp := make([]byte, len(lit)+len(lit)/255+2)
	n := emitLastLiterals(lit, tmp, 0, 0)
	w.src = append(w.src, tmp[:n]...)
	w.di += len(lit)
	return w.src
}

type edgeCase struct {
	src  []byte
	size int
}

// fastPathEdges are blocks at the decoder fast path's boundaries: the
// offsets either side of the 8-byte move, the nibbles either side of the
// extension marker, tokens at the 18-byte src and 48-byte dst margins,
// and invalid offsets that only the fast-path guard sees first.
func fastPathEdges() []edgeCase {
	lits := func(n int) []byte { return bytes.Repeat([]byte("abcdefghijklmnopqrstuvwxyz"), 4)[:n] }
	var cases []edgeCase
	add := func(src []byte, size int) {
		cases = append(cases, edgeCase{src, size}, edgeCase{src, size + 64})
	}

	// Offsets 1, 7, 8 and 9, at match lengths inside one 8-byte move,
	// spanning all three, and the longest fast-path match.
	for _, off := range []int{1, 7, 8, 9} {
		for _, mLen := range []int{4, 8, 9, 18} {
			var w blockBuilder
			w.seq(lits(16), 16, 4)
			w.seq(lits(3), off, mLen)
			w.seq(lits(2), off, 5)
			add(w.last(lits(32)), w.di)
		}
	}

	// Literal and match nibbles 14 (fast path) and 15 (extension byte).
	for _, litLen := range []int{14, 15} {
		for _, mLen := range []int{18, 19} {
			var w blockBuilder
			w.seq(lits(20), 9, mLen)
			w.seq(lits(litLen), 12, mLen)
			add(w.last(lits(30)), w.di)
		}
	}

	// A fast-path token exactly 18 bytes from the end of src (offset,
	// final token and 14 literals follow it), and one 17 bytes out.
	for _, tail := range []int{14, 13} {
		var w blockBuilder
		w.seq(lits(24), 8, 20)
		w.seq(nil, 8, 4)
		add(w.last(lits(tail)), w.di)
	}

	// A fast-path token whose dst has exactly 48 and exactly 47 bytes
	// left, and the same block one byte short of its output.
	{
		var w blockBuilder
		w.seq(lits(24), 8, 20)
		di := w.seq(lits(5), 9, 12)
		src := w.last(lits(40))
		cases = append(cases,
			edgeCase{src, di + 48}, edgeCase{src, di + 47}, edgeCase{src, w.di - 1})
	}

	// Offset 0 and an offset past the decoded output, each on a token
	// the fast path accepts.
	for _, bad := range []func(di int) int{
		func(int) int { return 0 },
		func(di int) int { return di + 1 },
	} {
		var w blockBuilder
		w.seq(lits(16), 16, 4)
		tmp := make([]byte, 32)
		n := emitSequence(tmp, 0, lits(3), bad(w.di+3), 6)
		w.src = append(w.src, tmp[:n]...)
		w.di += 9
		add(w.last(lits(32)), w.di)
	}
	return cases
}
