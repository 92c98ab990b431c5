package lz4

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"sync"
	"testing"

	"numastream/internal/tomo"
)

// The encoders' output is pinned, not just their round trip: the wire
// ratio the benchmark reports and every chunk already on disk depend on
// CompressBlock and CompressBlockHC emitting exactly these bytes. Each
// digest is a SHA-256 over (8-byte input length, compressed bytes) for
// every input of a set, in order.
var goldenSHA = map[string]map[string]string{
	"fast": {
		"tomo":       "653384a813330fcefb3bb6f7a05ac10c4f6b987750b2656d884bc75b7220ce7c",
		"tomo-noisy": "5c6c573a0d24b97afbfa6ba9211fe8d61f1d4ce2176593bd3c86c2a610173d85",
		"corpus":     "a4cac952ce86fb48afd8a85a6c72f1c754a613955005ae5c70e853c1b076ec30",
		"random":     "e5f2445de84ccbe1ecc3b3f74a8d35a5403200b4866b33c787b886a932779290",
	},
	"hc16": {
		"tomo":       "2dd45cf5204f6c3d0a2a21ddfacb56917e2ad16b1321c08f963cbe24bf660e97",
		"tomo-noisy": "8f1504f8fac188a94b9f0a497f3f09907ed20df71c281951ac86a2b3e622502e",
		"corpus":     "6bd3038b1b7353f0d1eb9493d93a736a11646c7495bbfeb442c0f2fb6fec03c4",
		"random":     "cce1766974218422483f6e1c59c7d86d499468a7dc3a87f5dfce71628ce1725a",
	},
	"hc64": {
		"tomo":       "8315ac3f0146f241520a10508b32075eb79dafc51c39d1b13258747301d5e00e",
		"tomo-noisy": "1bd9d2ef13df2ff23a5975a229e093d07f54f0511f1d84df7433338be757f6c6",
		"corpus":     "c271925d0551b2a40d88df9ad059c328409db6a969de70a734fbc49ef3c170aa",
		"random":     "ae96c31f7d4026260a53477ec0714eea99ee44d6b1c63764319035ec8017c569",
	},
}

type goldenSet struct {
	name   string
	inputs [][]byte
}

// goldenInputs builds the pinned input sets: 1024x512 projections of
// RandomPhantom(seed) for seeds 1-3 at 8 angles each (the benchmark's
// tomo-1m frames), one sigma-200 unquantized frame per seed, the
// benchmark corpus, and seeded random plus compressible inputs whose
// sizes straddle the block-format edges.
func goldenInputs() []goldenSet {
	var proj, noisy [][]byte
	for seed := int64(1); seed <= 3; seed++ {
		cfg := tomo.DefaultProjectionConfig()
		cfg.Width, cfg.Height, cfg.Seed = 1024, 512, seed
		phantom := tomo.RandomPhantom(seed, 60)
		for i := 0; i < 8; i++ {
			proj = append(proj, tomo.Projection(phantom, 2*math.Pi*float64(i)/8, cfg))
		}
		cfg.NoiseSigma, cfg.QuantStep = 200, 1
		noisy = append(noisy, tomo.Projection(phantom, 0, cfg))
	}

	return []goldenSet{
		{"tomo", proj},
		{"tomo-noisy", noisy},
		{"corpus", [][]byte{benchCorpus(1 << 20)}},
		{"random", randomInputs()},
	}
}

// randomInputs is the seeded "random" golden set: random and repeated
// bytes at every size up to 40, then random blocks up to 4 KiB and
// compressible ones up to 64 KiB.
func randomInputs() [][]byte {
	rng := rand.New(rand.NewSource(7))
	var mixed [][]byte
	for n := 0; n <= 40; n++ {
		b := make([]byte, n)
		rng.Read(b)
		mixed = append(mixed, b, bytes.Repeat([]byte{byte(n)}, n))
	}
	for i := 0; i < 200; i++ {
		b := make([]byte, rng.Intn(4096))
		rng.Read(b)
		mixed = append(mixed, b)
		// Compressible: short random periods over a small alphabet, so
		// matches of every length class and offsets 1..64 occur.
		c := make([]byte, rng.Intn(64<<10))
		for j := 0; j < len(c); {
			pat := make([]byte, rng.Intn(64)+1)
			for k := range pat {
				pat[k] = byte(rng.Intn(4))
			}
			for r := rng.Intn(40) + 1; r > 0 && j < len(c); r-- {
				j += copy(c[j:], pat)
			}
		}
		mixed = append(mixed, c)
	}
	return mixed
}

func TestGoldenEncoderOutput(t *testing.T) {
	encoders := []struct {
		name string
		enc  func(src, dst []byte) (int, error)
	}{
		{"fast", CompressBlock},
		{"hc16", func(src, dst []byte) (int, error) { return CompressBlockHC(src, dst, 16) }},
		{"hc64", func(src, dst []byte) (int, error) { return CompressBlockHC(src, dst, 64) }},
	}
	sets := goldenInputs()
	for _, e := range encoders {
		for _, s := range sets {
			h := sha256.New()
			for i, src := range s.inputs {
				dst := make([]byte, CompressBound(len(src)))
				n, err := e.enc(src, dst)
				if err != nil {
					t.Fatalf("%s/%s[%d]: %v", e.name, s.name, i, err)
				}
				var size [8]byte
				binary.LittleEndian.PutUint64(size[:], uint64(len(src)))
				h.Write(size[:])
				h.Write(dst[:n])
				// The reference decoder must read what the new encoder
				// writes.
				out := make([]byte, len(src))
				if m, err := refDecompress(dst[:n], out); err != nil || m != len(src) || !bytes.Equal(out, src) {
					t.Fatalf("%s/%s[%d]: reference decode: n=%d err=%v", e.name, s.name, i, m, err)
				}
			}
			got := hex.EncodeToString(h.Sum(nil))
			if want := goldenSHA[e.name][s.name]; got != want {
				t.Errorf("%s/%s: output digest %s, want %s", e.name, s.name, got, want)
			}
		}
	}
}

// TestConcurrentEncodersMatchSerial runs both encoders from several
// goroutines at once over pooled tables, mixing block sizes so tables
// move between large and small blocks; every output must equal the
// serial one.
func TestConcurrentEncodersMatchSerial(t *testing.T) {
	inputs := randomInputs()[:120]
	enc := func(i int, src []byte) []byte {
		if i%2 == 0 {
			return Compress(src)
		}
		return CompressHC(src, 16)
	}
	want := make([][]byte, len(inputs))
	for i, src := range inputs {
		want[i] = enc(i, src)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				for k := range inputs {
					i := (k + g*31) % len(inputs)
					if got := enc(i, inputs[i]); !bytes.Equal(got, want[i]) {
						t.Errorf("goroutine %d: input %d encodes differently", g, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestHashTableTags checks the pooled table's tagging at its limit:
// entries at or below base are ignored even when base sits just under
// the int32 ceiling, and a table that one more block would overflow is
// cleared when rented, not wrapped.
func TestHashTableTags(t *testing.T) {
	src := randomInputs()[83] // compressible: 37 KiB to 1.8 KiB
	want := make([]byte, CompressBound(len(src)))
	wn, err := refCompress(src, want)
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, n int, dst []byte) {
		t.Helper()
		if !bytes.Equal(dst[:n], want[:wn]) {
			t.Fatalf("%s: output differs from the reference encoder's", what)
		}
	}

	tab := &hashTable{base: math.MaxInt32 - int32(len(src))}
	rng := rand.New(rand.NewSource(8))
	for i := range tab.pos {
		tab.pos[i] = tab.base - rng.Int31n(1<<20) // stale: at or below base
	}
	dst := make([]byte, CompressBound(len(src)))
	check("stale entries below the ceiling", compressBlock(src, dst, tab), dst)

	// base is now MaxInt32: the next rent of this table must clear it.
	tab.release(len(src))
	n, err := CompressBlock(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	check("table rented at the ceiling", n, dst)
}
