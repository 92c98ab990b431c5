package lz4

import (
	"bytes"
	"math/rand"
	"testing"
)

// benchCorpus mixes runs, periodic patterns and noise at roughly the
// 2:1 compressibility of projection data.
func benchCorpus(size int) []byte {
	rng := rand.New(rand.NewSource(42))
	var b bytes.Buffer
	for b.Len() < size {
		switch rng.Intn(3) {
		case 0:
			b.Write(bytes.Repeat([]byte{byte(rng.Intn(4))}, rng.Intn(400)+1))
		case 1:
			pat := make([]byte, rng.Intn(12)+2)
			rng.Read(pat)
			b.Write(bytes.Repeat(pat, rng.Intn(40)+1))
		default:
			noise := make([]byte, rng.Intn(300))
			rng.Read(noise)
			b.Write(noise)
		}
	}
	return b.Bytes()[:size]
}

// BenchmarkCompressBlock runs the fast encoder on a 1 MiB block (the
// streaming chunk size) and a 16 KiB one, where per-call set-up such as
// readying the 64 Ki-entry hash table is a visible share.
func BenchmarkCompressBlock(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"1MiB", 1 << 20}, {"16KiB", 16 << 10}} {
		src := benchCorpus(size.n)
		dst := make([]byte, CompressBound(len(src)))
		b.Run(size.name, func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			for i := 0; i < b.N; i++ {
				if _, err := CompressBlock(src, dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCompressBlockHC(b *testing.B) {
	src := benchCorpus(1 << 20)
	dst := make([]byte, CompressBound(len(src)))
	for _, depth := range []int{4, 64, 256} {
		b.Run(depthName(depth), func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			for i := 0; i < b.N; i++ {
				if _, err := CompressBlockHC(src, dst, depth); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func depthName(d int) string {
	switch d {
	case 4:
		return "depth4"
	case 64:
		return "depth64"
	default:
		return "depth256"
	}
}

func BenchmarkDecompressBlock(b *testing.B) {
	src := benchCorpus(1 << 20)
	packed := Compress(src)
	dst := make([]byte, len(src))
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecompressBlock(packed, dst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFrameWriter(b *testing.B) {
	src := benchCorpus(256 << 10)
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.WriteBlock(src); err != nil {
			b.Fatal(err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
