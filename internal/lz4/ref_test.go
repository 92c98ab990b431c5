package lz4

import (
	"encoding/binary"
	"fmt"
)

// Reference codec: the byte-at-a-time encoder and decoder the fast paths
// replaced, kept verbatim as the oracle for the differential tests. The
// encoder must match refCompress byte for byte; the decoder must agree
// with refDecompress on every input, valid or not.

// refCompress is CompressBlock with a freshly cleared table and
// byte-wise forward match extension.
func refCompress(src, dst []byte) (int, error) {
	if len(dst) < CompressBound(len(src)) {
		return 0, ErrDstTooSmall
	}
	if len(src) == 0 {
		return 0, nil
	}
	if len(src) < mfLimit {
		return emitLastLiterals(src, dst, 0, 0), nil
	}
	var table [hashSize]int32 // candidate position + 1 per entry, 0 means empty

	sn := len(src) - mfLimit
	matchEnd := len(src) - lastLiterals

	di := 0
	anchor := 0
	si := 0
	searchSteps := 0

	for si <= sn {
		h := hash4(load32(src, si))
		ref := int(table[h]) - 1
		table[h] = int32(si + 1)
		if ref < 0 || si-ref > maxOffset || load32(src, ref) != load32(src, si) {
			searchSteps++
			si += 1 + (searchSteps >> 6)
			continue
		}
		searchSteps = 0

		for si > anchor && ref > 0 && src[si-1] == src[ref-1] {
			si--
			ref--
		}

		mLen := minMatch
		for si+mLen < matchEnd && src[ref+mLen] == src[si+mLen] {
			mLen++
		}

		di = emitSequence(dst, di, src[anchor:si], si-ref, mLen)
		si += mLen
		anchor = si
	}

	return emitLastLiterals(src, dst, anchor, di), nil
}

// refDecompress is DecompressBlock without the fixed-width fast path:
// every literal run and match is bounds-checked and copied exactly, and
// overlapping matches are copied one byte at a time.
func refDecompress(src, dst []byte) (int, error) {
	di, si := 0, 0
	for si < len(src) {
		token := src[si]
		si++

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
			return di, nil
		}

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
		if offset >= mLen {
			copy(dst[di:di+mLen], dst[di-offset:])
			di += mLen
		} else {
			for i := 0; i < mLen; i++ {
				dst[di] = dst[di-offset]
				di++
			}
		}
	}
	return di, nil
}
