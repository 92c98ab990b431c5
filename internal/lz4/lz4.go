// Package lz4 implements the LZ4 block compression format from scratch in
// pure Go. The paper compresses every 11.0592 MB X-ray projection chunk
// with LZ4 before transmission and decompresses it at the gateway; this
// package is the stand-in for the reference C library (github.com/lz4/lz4).
//
// The block format is the official one: a stream of sequences, each a
// token byte (literal length high nibble, match length - 4 low nibble,
// 15 meaning "extended by 255-value bytes"), the literals, a 2-byte
// little-endian match offset, and the match-length extension bytes. The
// final sequence carries literals only. The compressor uses a 64 Ki-entry
// hash table over 4-byte windows, the same strategy as the reference
// "fast" (level 1) compressor, so compression ratios carry over. The
// speed asymmetry does not: the paper's C lz4 decompresses about 3x
// faster than it compresses, while this codec measures about 2x on
// projection data (BenchmarkLZ4Compress, BenchmarkLZ4Decompress).
package lz4

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
)

const (
	minMatch     = 4  // smallest encodable match
	lastLiterals = 5  // spec: last 5 bytes must be literals
	mfLimit      = 12 // spec: no match may start within 12 bytes of the end
	maxOffset    = 65535

	hashLog  = 16
	hashSize = 1 << hashLog
	// Knuth multiplicative hash constant for 32-bit keys.
	hashMul = 2654435761
)

// Errors returned by this package.
var (
	// ErrDstTooSmall reports a destination buffer smaller than the
	// produced output. Use CompressBound to size compression buffers.
	ErrDstTooSmall = errors.New("lz4: destination buffer too small")
	// ErrCorrupt reports malformed compressed input.
	ErrCorrupt = errors.New("lz4: corrupt compressed data")
)

// CompressBound returns the maximum compressed size for an input of n
// bytes, including worst-case incompressible expansion.
func CompressBound(n int) int {
	return n + n/255 + 16
}

func hash4(u uint32) uint32 {
	return (u * hashMul) >> (32 - hashLog)
}

func load32(b []byte, i int) uint32 {
	return binary.LittleEndian.Uint32(b[i:])
}

// CompressBlock compresses src into dst using the LZ4 block format and
// returns the number of bytes written. dst must be at least
// CompressBound(len(src)) bytes; otherwise ErrDstTooSmall is returned.
// An empty src produces zero output bytes.
func CompressBlock(src, dst []byte) (int, error) {
	if len(dst) < CompressBound(len(src)) {
		return 0, ErrDstTooSmall
	}
	if len(src) == 0 {
		return 0, nil
	}
	// Inputs too short to ever contain a match are emitted as one
	// literal run.
	if len(src) < mfLimit {
		return emitLastLiterals(src, dst, 0, 0), nil
	}

	// The 256 KiB hash table is too large for the stack, and one heap
	// allocation per block would dominate the steady-state allocation
	// profile of a pipeline compressing thousands of chunks, so tables
	// are rented. Their entries are tagged rather than cleared: see
	// hashTable.
	t := rentTable(len(src))
	n := compressBlock(src, dst, t)
	t.release(len(src))
	return n, nil
}

// hashTable maps the hash of a 4-byte window to the most recent position
// holding it. Each entry stores base+pos+1, and any entry at or below
// base is empty. A rented table thus starts empty without clearing
// 256 KiB, which would be a large share of a small block's time;
// release retires a block's entries by moving base past them.
type hashTable struct {
	pos  [hashSize]int32
	base int32
}

// tablePool recycles hash tables across CompressBlock and
// CompressBlockHC calls.
var tablePool = sync.Pool{New: func() any { return new(hashTable) }}

// rentTable returns an empty table for a block of n bytes. It clears the
// table only when base+n would overflow an entry.
func rentTable(n int) *hashTable {
	t := tablePool.Get().(*hashTable)
	if int64(t.base)+int64(n) > math.MaxInt32 {
		clear(t.pos[:])
		t.base = 0
	}
	return t
}

// release empties t of the entries of the n-byte block it indexed and
// returns it to the pool.
func (t *hashTable) release(n int) {
	t.base += int32(n)
	tablePool.Put(t)
}

// matchLen returns the length n of the common prefix of src[a:] and
// src[b:], with a < b, capped so that b+n <= end. It compares eight
// bytes at a time; the first differing byte of a word is the lowest
// nonzero byte of their XOR.
func matchLen(src []byte, a, b, end int) int {
	n := 0
	for b+n+8 <= end {
		if x := binary.LittleEndian.Uint64(src[b+n:]) ^ binary.LittleEndian.Uint64(src[a+n:]); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
		n += 8
	}
	for b+n < end && src[a+n] == src[b+n] {
		n++
	}
	return n
}

func compressBlock(src, dst []byte, t *hashTable) int {
	sn := len(src) - mfLimit // last position where a match may start
	matchEnd := len(src) - lastLiterals
	base := int(t.base)

	di := 0
	anchor := 0
	si := 0
	searchSteps := 0

	for si <= sn {
		cur := load32(src, si)
		h := hash4(cur)
		ref := int(t.pos[h]) - base - 1
		t.pos[h] = int32(base + si + 1)
		if ref < 0 || si-ref > maxOffset || load32(src, ref) != cur {
			// No usable match: advance. The skip strength grows
			// slowly through incompressible regions, mirroring the
			// reference compressor's acceleration behaviour.
			searchSteps++
			si += 1 + (searchSteps >> 6)
			continue
		}
		searchSteps = 0

		// Extend the match backwards over bytes we already counted
		// as literals.
		for si > anchor && ref > 0 && src[si-1] == src[ref-1] {
			si--
			ref--
		}

		// Extend the match forwards, stopping before the mandatory
		// trailing literal region.
		mLen := minMatch + matchLen(src, ref+minMatch, si+minMatch, matchEnd)

		// Most sequences have a few literals and a short match: write
		// the token, one 8-byte literal store (at least mfLimit bytes
		// of src follow anchor) and the offset. The offset and the
		// next sequence overwrite the store's surplus bytes.
		if litLen, mCode := si-anchor, mLen-minMatch; litLen < 8 && mCode < 15 && len(dst)-di >= 11 {
			dst[di] = byte(litLen<<4 | mCode)
			binary.LittleEndian.PutUint64(dst[di+1:], binary.LittleEndian.Uint64(src[anchor:]))
			binary.LittleEndian.PutUint16(dst[di+1+litLen:], uint16(si-ref))
			di += 1 + litLen + 2
		} else {
			di = emitSequence(dst, di, src[anchor:si], si-ref, mLen)
		}
		si += mLen
		anchor = si
	}

	return emitLastLiterals(src, dst, anchor, di)
}

// emitSequence writes one token + literals + offset + match-length
// extension into dst at di and returns the new di.
func emitSequence(dst []byte, di int, literals []byte, offset, mLen int) int {
	litLen := len(literals)
	mCode := mLen - minMatch
	tokenPos := di
	di++
	var token byte
	if litLen >= 15 {
		token = 15 << 4
		di = emitLenExt(dst, di, litLen-15)
	} else {
		token = byte(litLen) << 4
	}
	di += copy(dst[di:], literals)
	binary.LittleEndian.PutUint16(dst[di:], uint16(offset))
	di += 2
	if mCode >= 15 {
		token |= 15
		di = emitLenExt(dst, di, mCode-15)
	} else {
		token |= byte(mCode)
	}
	dst[tokenPos] = token
	return di
}

// emitLenExt writes the 255-value length extension encoding of n.
func emitLenExt(dst []byte, di, n int) int {
	for n >= 255 {
		dst[di] = 255
		di++
		n -= 255
	}
	dst[di] = byte(n)
	return di + 1
}

// emitLastLiterals writes the final literal-only sequence covering
// src[anchor:] and returns the new di.
func emitLastLiterals(src, dst []byte, anchor, di int) int {
	lit := src[anchor:]
	litLen := len(lit)
	if litLen >= 15 {
		dst[di] = 15 << 4
		di++
		di = emitLenExt(dst, di, litLen-15)
	} else {
		dst[di] = byte(litLen) << 4
		di++
	}
	di += copy(dst[di:], lit)
	return di
}

// DecompressBlock decompresses the LZ4 block src into dst and returns the
// number of bytes written. dst must be large enough for the whole
// uncompressed payload (callers carry the uncompressed size out of band,
// as the chunk transport does). It returns ErrCorrupt on malformed input
// and ErrDstTooSmall when dst cannot hold the output. Bytes of dst past
// the returned length may be overwritten.
func DecompressBlock(src, dst []byte) (int, error) {
	di, si := 0, 0
	for si < len(src) {
		token := src[si]

		// Fast path: both lengths fit their nibbles, and src and dst
		// have room for fixed-width moves that overshoot the sequence
		// (at most 17 bytes read, 38 written; DESIGN.md §2 has the
		// invariants). An invalid offset falls through to the general
		// path, which decodes the token again and reports it.
		if token < 0xf0 && token&0xf < 0xf && len(src)-si >= 18 && len(dst)-di >= 48 {
			litLen := int(token >> 4)
			if litLen > 0 {
				// Most sequences on projection data carry no
				// literals; skipping the move for them is measurably
				// faster there (BenchmarkLZ4Decompress).
				binary.LittleEndian.PutUint64(dst[di:], binary.LittleEndian.Uint64(src[si+1:]))
				binary.LittleEndian.PutUint64(dst[di+8:], binary.LittleEndian.Uint64(src[si+9:]))
			}
			d := di + litLen
			s := si + 1 + litLen
			offset := int(binary.LittleEndian.Uint16(src[s:]))
			mLen := int(token&0xf) + minMatch
			switch {
			case offset >= 8 && offset <= d:
				// Each move reads only bytes already final: the
				// source trails the destination by offset >= 8.
				m := d - offset
				binary.LittleEndian.PutUint64(dst[d:], binary.LittleEndian.Uint64(dst[m:]))
				if mLen > 8 {
					binary.LittleEndian.PutUint64(dst[d+8:], binary.LittleEndian.Uint64(dst[m+8:]))
					binary.LittleEndian.PutUint64(dst[d+16:], binary.LittleEndian.Uint64(dst[m+16:]))
				}
				di, si = d+mLen, s+2
				continue
			case offset > 0 && offset <= d:
				for i := d; i < d+mLen; i++ {
					dst[i] = dst[i-offset]
				}
				di, si = d+mLen, s+2
				continue
			}
		}
		si++

		// Literal run.
		litLen := int(token >> 4)
		if litLen == 15 {
			var err error
			litLen, si, err = readLenExt(src, si, litLen)
			if err != nil {
				return 0, err
			}
		}
		if litLen > 0 {
			if si+litLen > len(src) {
				return 0, fmt.Errorf("%w: literal run of %d overruns input", ErrCorrupt, litLen)
			}
			if di+litLen > len(dst) {
				return 0, ErrDstTooSmall
			}
			copy(dst[di:], src[si:si+litLen])
			si += litLen
			di += litLen
		}
		if si == len(src) {
			// Final sequence: literals only.
			return di, nil
		}

		// Match.
		if si+2 > len(src) {
			return 0, fmt.Errorf("%w: truncated match offset", ErrCorrupt)
		}
		offset := int(binary.LittleEndian.Uint16(src[si:]))
		si += 2
		if offset == 0 {
			return 0, fmt.Errorf("%w: zero match offset", ErrCorrupt)
		}
		if offset > di {
			return 0, fmt.Errorf("%w: match offset %d exceeds output position %d", ErrCorrupt, offset, di)
		}

		mLen := int(token & 0xf)
		if mLen == 15 {
			var err error
			mLen, si, err = readLenExt(src, si, mLen)
			if err != nil {
				return 0, err
			}
		}
		mLen += minMatch
		if di+mLen > len(dst) {
			return 0, ErrDstTooSmall
		}
		// An overlapping match (offset < length) repeats the last
		// offset bytes, which is how LZ4 encodes runs. Copying the
		// whole decoded stretch from the match start doubles the
		// period written per copy.
		m, end := di-offset, di+mLen
		for di < end {
			di += copy(dst[di:end], dst[m:di])
		}
	}
	return di, nil
}

// readLenExt accumulates 255-value extension bytes onto base.
func readLenExt(src []byte, si, base int) (int, int, error) {
	n := base
	for {
		if si >= len(src) {
			return 0, 0, fmt.Errorf("%w: truncated length extension", ErrCorrupt)
		}
		b := src[si]
		si++
		n += int(b)
		if n < 0 {
			return 0, 0, fmt.Errorf("%w: length overflow", ErrCorrupt)
		}
		if b != 255 {
			return n, si, nil
		}
	}
}

// Compress is a convenience wrapper that allocates an output buffer of
// exactly the compressed size.
func Compress(src []byte) []byte {
	dst := make([]byte, CompressBound(len(src)))
	n, err := CompressBlock(src, dst)
	if err != nil {
		// Unreachable: dst is sized by CompressBound.
		panic(err)
	}
	return dst[:n]
}

// Decompress is a convenience wrapper for callers that know the
// uncompressed size.
func Decompress(src []byte, uncompressedSize int) ([]byte, error) {
	dst := make([]byte, uncompressedSize)
	n, err := DecompressBlock(src, dst)
	if err != nil {
		return nil, err
	}
	if n != uncompressedSize {
		return nil, fmt.Errorf("%w: decompressed %d bytes, expected %d", ErrCorrupt, n, uncompressedSize)
	}
	return dst, nil
}

// Ratio returns the compression ratio (uncompressed/compressed) achieved
// by compressing src, used by the workload calibration code.
func Ratio(src []byte) float64 {
	if len(src) == 0 {
		return 1
	}
	c := Compress(src)
	if len(c) == 0 {
		return 1
	}
	return float64(len(src)) / float64(len(c))
}
