package main

import (
	"math"
	"runtime"

	"numastream/internal/lz4"
	"numastream/internal/tomo"
)

// payloadSet is a workload's pre-generated chunks. The program is handed
// the send copies only; the output check compares against ref, a
// separate copy, so a program that wrote into its input could not
// corrupt the reference it is checked against.
type payloadSet struct {
	send  [][]byte
	ref   [][]byte
	ratio float64 // LZ4 (CompressBlock) output bytes / input bytes over the set
	// streamOffset staggers streams through the set, so two streams do
	// not carry the same bytes at the same sequence number.
	streamOffset int
	// badStream/badSeq name the one (stream, seq) whose reference is
	// wrong when the checker self-test asks for it; badRef is that
	// reference.
	badStream uint32
	badSeq    int64
	badRef    []byte
}

// newPayloadSet projects a RandomPhantom(seed) at evenly spaced angles.
// Everything here happens before any timing starts.
func newPayloadSet(w workload, seed int64) *payloadSet {
	cfg := tomo.DefaultProjectionConfig()
	cfg.Width, cfg.Height, cfg.Seed = w.width, w.height, seed
	if w.noiseSigma > 0 {
		cfg.NoiseSigma = w.noiseSigma
	}
	if w.quantStep > 0 {
		cfg.QuantStep = w.quantStep
	}
	phantom := tomo.RandomPhantom(seed, 60)
	s := &payloadSet{streamOffset: w.angles / w.streams, badSeq: -1}
	var raw, packed int
	dst := make([]byte, lz4.CompressBound(w.chunkBytes()))
	for i := 0; i < w.angles; i++ {
		frame := tomo.Projection(phantom, 2*math.Pi*float64(i)/float64(w.angles), cfg)
		n, err := lz4.CompressBlock(frame, dst)
		if err != nil {
			panic(err) // dst is CompressBound-sized: cannot happen
		}
		raw += len(frame)
		packed += n
		s.send = append(s.send, frame)
		s.ref = append(s.ref, append([]byte(nil), frame...))
		// Projection's scratch is several times the frame; collecting
		// it now keeps generation from setting the run's peak RSS.
		runtime.GC()
	}
	s.ratio = float64(packed) / float64(raw)
	return s
}

func (s *payloadSet) index(stream uint32, seq uint64) int {
	return int((seq + uint64(stream)*uint64(s.streamOffset)) % uint64(len(s.send)))
}

// chunk returns the bytes handed to the program for (stream, seq).
func (s *payloadSet) chunk(stream uint32, seq uint64) []byte {
	return s.send[s.index(stream, seq)]
}

// reference returns the bytes the Sink must see for (stream, seq).
func (s *payloadSet) reference(stream uint32, seq uint64) []byte {
	if stream == s.badStream && int64(seq) == s.badSeq {
		return s.badRef
	}
	return s.ref[s.index(stream, seq)]
}

// corrupt makes the reference for one (stream, seq) wrong by one byte.
func (s *payloadSet) corrupt(stream uint32, seq uint64) {
	s.badStream, s.badSeq = stream, int64(seq)
	s.badRef = append([]byte(nil), s.ref[s.index(stream, seq)]...)
	s.badRef[len(s.badRef)/2] ^= 0x5a
}
