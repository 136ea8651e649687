package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/gformat"
	"repro/internal/partition"
	"repro/internal/recvec"
	"repro/internal/skg"
)

// goldenTSV generates cfg with three workers into in-memory TSV parts
// and returns the SHA-256 of their in-order concatenation (which equals
// the whole-graph TSV for any worker count).
func goldenTSV(t *testing.T, cfg Config) (string, Stats) {
	t.Helper()
	cfg.Workers = 3
	bufs := make([]bytes.Buffer, cfg.Workers)
	st, err := Generate(cfg, func(w int, _ partition.Range) (gformat.Writer, error) {
		return gformat.NewTSVWriter(&bufs[w]), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for i := range bufs {
		h.Write(bufs[i].Bytes())
	}
	return hex.EncodeToString(h.Sum(nil)), st
}

func denseConfig(scale int, edgeFactor int64) Config {
	cfg := DefaultConfig(scale)
	cfg.EdgeFactor = edgeFactor
	return cfg
}

// TestGoldenTSV pins whole-graph bytes to hashes generated at the
// commit before the scope loop was rewritten (PR 12's parent):
// the first rows of ROADMAP's conformance table. A stream-changing PR
// must regenerate them deliberately, together with a stream version.
func TestGoldenTSV(t *testing.T) {
	nskg := DefaultConfig(12)
	nskg.NoiseParam = 0.05
	avsi := DefaultConfig(11)
	avsi.Orientation = AVSI
	dups := DefaultConfig(10)
	dups.AllowDuplicates = true
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"classic-s12", DefaultConfig(12), "f3b2fdc6a337beb59864cae861d2960f4df929aee605d8b882b11cc5e34ac607"},
		{"nskg-s12-nu0.05", nskg, "98d7001c548d739cc89be1a045db0b77105316c98ed6a4be884f5b5cf045eb85"},
		{"avsi-s11", avsi, "3dafd325d2e5353ab255ba2258c0126492031dc96eac6c77b36cd4e28b80fa73"},
		{"dense-s9-ef128", denseConfig(9, 128), "07cb665e757a9d01a9b74aab5b3c22f12582ec4a27f7d6b65c77ad740d8d8723"},
		{"allow-duplicates-s10", dups, "a514b6d7a6cf49c2a5cb2d6ec437dc03de41318ff71f5e57819c35c82cfd9c4c"},
	} {
		got, _ := goldenTSV(t, tc.cfg)
		if got != tc.want {
			t.Errorf("%s: TSV sha256 %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestGoldenStats pins the counted outputs of a run — edges, attempts,
// max degree and the accounted O(d_max) peak — to the parent commit's
// values: the rewrite may change how fast they are reached, never what
// they are.
func TestGoldenStats(t *testing.T) {
	type counts struct{ edges, attempts, maxDeg, peak int64 }
	for _, tc := range []struct {
		name string
		cfg  Config
		want counts
	}{
		{"default-s10", DefaultConfig(10), counts{16386, 92286, 968, 7920}},
		{"default-s14", DefaultConfig(14), counts{263044, 339659, 5644, 45392}},
		{"default-s18", DefaultConfig(18), counts{4204336, 4591803, 30063, 240808}},
		{"dense-s13-ef128", denseConfig(13, 128), counts{999658, 9561444, 7333, 58888}},
	} {
		if testing.Short() && tc.cfg.Scale >= 18 {
			continue
		}
		tc.cfg.Workers = 2
		st, err := Generate(tc.cfg, DiscardSinks(gformat.ADJ6))
		if err != nil {
			t.Fatal(err)
		}
		got := counts{st.Edges, st.Attempts, st.MaxDegree, st.PeakWorkerBytes}
		if got != tc.want {
			t.Errorf("%s: {edges attempts maxDeg peak} = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// TestGoldenKeys pins the identity strings every stored artifact and
// run manifest written so far is addressed by, one row per field that
// moves them. CacheFingerprint writes each field by name in the text
// fmt's %+v of Config printed while Config still carried the sampler
// options; a change to it orphans every existing store entry and fails
// every resume of an existing directory, so it must be deliberate. The
// first two literals were regenerated once, on purpose, when the drawn
// Figure 6 planner gave way to the closed-form cuts: BinsPerWorker left
// Config (and so every classic key), and the planner's name entered the
// manifest, so a directory cut by the old planner is refused rather than
// completed with parts cut another way. The bytes of a range did not
// change, only its key. The other rows were generated by the %+v
// fingerprint, before the encoder replaced it.
func TestGoldenKeys(t *testing.T) {
	nskg := DefaultConfig(12)
	nskg.NoiseParam = 0.05
	nskg.Orientation = AVSI
	nskg.MasterSeed = 42
	nskg.Workers = 3 // normalized out of all three
	noisy := DefaultConfig(11)
	noisy.NoiseParam = 0.1
	avsi := DefaultConfig(10)
	avsi.Orientation = AVSI
	hp := DefaultConfig(14)
	hp.HighPrecision = true
	dup := DefaultConfig(10)
	dup.AllowDuplicates = true
	uni := DefaultConfig(10)
	uni.Seed = skg.UniformSeed
	custom := DefaultConfig(10)
	custom.Seed = skg.Seed{A: 0.45, B: 0.22, C: 0.22, D: 0.11}
	custom.MasterSeed = 7
	ef := DefaultConfig(9)
	ef.EdgeFactor = 128
	r := partition.Range{Lo: 0, Hi: 512, Edges: 9000}
	for _, tc := range []struct {
		name          string
		cfg           Config
		wantFP, wantK string
	}{
		{"default-s10", DefaultConfig(10),
			"cfg={Scale:10 EdgeFactor:16 Seed:{A:0.57 B:0.19 C:0.19 D:0.05} NoiseParam:0 MasterSeed:1 Workers:0 Opts:{ReuseVector:true SparseRecursion:true SingleRandom:true LinearSearch:false} HighPrecision:false Orientation:AVS-O AllowDuplicates:false}",
			"885d3e75c49c6a024dc4ec1ebddd73d214a218b4b1576581a74c26a4b8fc1783"},
		{"nskg-avsi-s12", nskg,
			"cfg={Scale:12 EdgeFactor:16 Seed:{A:0.57 B:0.19 C:0.19 D:0.05} NoiseParam:0.05 MasterSeed:42 Workers:0 Opts:{ReuseVector:true SparseRecursion:true SingleRandom:true LinearSearch:false} HighPrecision:false Orientation:AVS-I AllowDuplicates:false}",
			"adf1a5fa0b783fcaeb25b4a9c5221ccb2555caa949db3dce210f0b56df2de87e"},
		{"nskg-s11", noisy,
			"cfg={Scale:11 EdgeFactor:16 Seed:{A:0.57 B:0.19 C:0.19 D:0.05} NoiseParam:0.1 MasterSeed:1 Workers:0 Opts:{ReuseVector:true SparseRecursion:true SingleRandom:true LinearSearch:false} HighPrecision:false Orientation:AVS-O AllowDuplicates:false}",
			"7071a624f2f038393da36d9e8a2760a9b21c11ff9494a0916568eb759401d13d"},
		{"avsi-s10", avsi,
			"cfg={Scale:10 EdgeFactor:16 Seed:{A:0.57 B:0.19 C:0.19 D:0.05} NoiseParam:0 MasterSeed:1 Workers:0 Opts:{ReuseVector:true SparseRecursion:true SingleRandom:true LinearSearch:false} HighPrecision:false Orientation:AVS-I AllowDuplicates:false}",
			"5a002ea3a9b82dc48890d9363c0b36fd89666eecf6eba8e1b4caadf3c0ca5783"},
		{"highprecision-s14", hp,
			"cfg={Scale:14 EdgeFactor:16 Seed:{A:0.57 B:0.19 C:0.19 D:0.05} NoiseParam:0 MasterSeed:1 Workers:0 Opts:{ReuseVector:true SparseRecursion:true SingleRandom:true LinearSearch:false} HighPrecision:true Orientation:AVS-O AllowDuplicates:false}",
			"02c1a9cb419d13691b18186a41b13ade5d4c9cfee570e186f211fb6bff16615d"},
		{"duplicates-s10", dup,
			"cfg={Scale:10 EdgeFactor:16 Seed:{A:0.57 B:0.19 C:0.19 D:0.05} NoiseParam:0 MasterSeed:1 Workers:0 Opts:{ReuseVector:true SparseRecursion:true SingleRandom:true LinearSearch:false} HighPrecision:false Orientation:AVS-O AllowDuplicates:true}",
			"742eb5a2d7bbc757162e069bed38e4d48be8987b1d02f11802b451cb2f1a220c"},
		{"uniform-s10", uni,
			"cfg={Scale:10 EdgeFactor:16 Seed:{A:0.25 B:0.25 C:0.25 D:0.25} NoiseParam:0 MasterSeed:1 Workers:0 Opts:{ReuseVector:true SparseRecursion:true SingleRandom:true LinearSearch:false} HighPrecision:false Orientation:AVS-O AllowDuplicates:false}",
			"5feb949de0e7272f45c1108151c0960a575de142bf6cd3c7363bf267811e5073"},
		{"seed-0.45-s10", custom,
			"cfg={Scale:10 EdgeFactor:16 Seed:{A:0.45 B:0.22 C:0.22 D:0.11} NoiseParam:0 MasterSeed:7 Workers:0 Opts:{ReuseVector:true SparseRecursion:true SingleRandom:true LinearSearch:false} HighPrecision:false Orientation:AVS-O AllowDuplicates:false}",
			"7343d35dc59a06794650fa639a465b2a655d2fe69fc1cda2ea16fa3483f80faa"},
		{"edgefactor-128-s9", ef,
			"cfg={Scale:9 EdgeFactor:128 Seed:{A:0.57 B:0.19 C:0.19 D:0.05} NoiseParam:0 MasterSeed:1 Workers:0 Opts:{ReuseVector:true SparseRecursion:true SingleRandom:true LinearSearch:false} HighPrecision:false Orientation:AVS-O AllowDuplicates:false}",
			"aacc72b9456989d6fb9fac13055227f0a8ddff7d1e8aeae5f466797bdd98025b"},
	} {
		if got := CacheFingerprint(tc.cfg); got != tc.wantFP {
			t.Errorf("%s: CacheFingerprint\n got %s\nwant %s", tc.name, got, tc.wantFP)
		}
		if got := tc.cfg.Fingerprint(); got != tc.wantFP {
			t.Errorf("%s: PartSource Fingerprint %s differs from CacheFingerprint", tc.name, got)
		}
		if got := PartKey(tc.cfg, gformat.ADJ6, r).String(); got != tc.wantK {
			t.Errorf("%s: PartKey %s, want %s", tc.name, got, tc.wantK)
		}
		if got := tc.cfg.PartKey(gformat.ADJ6, 7, r).String(); got != tc.wantK {
			t.Errorf("%s: PartSource PartKey %s, want %s (the id must not enter a classic key)", tc.name, got, tc.wantK)
		}

		dir := t.TempDir()
		if err := EnsureRunManifest(dir, tc.cfg, gformat.ADJ6, 4); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir, manifestName))
		if err != nil {
			t.Fatal(err)
		}
		var m resumeManifest
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatal(err)
		}
		if want := tc.wantFP + " format=ADJ6 parts=4 plan=rowedges-nearest"; m.Fingerprint != want {
			t.Errorf("%s: manifest fingerprint\n got %s\nwant %s", tc.name, m.Fingerprint, want)
		}
		want := tc.cfg
		want.Workers = 0
		if rm, err := ReadRunManifest(dir); err != nil || *rm.Config != want {
			t.Errorf("%s: manifest config read back as %+v (%v), want %+v", tc.name, rm, err, want)
		}
	}
}

// legacyConfig is Config as it was while it carried the sampler
// options: CacheFingerprint and the manifest's config object must stay
// the text fmt and encoding/json made of it.
type legacyConfig struct {
	Scale           int
	EdgeFactor      int64
	Seed            skg.Seed
	NoiseParam      float64
	MasterSeed      uint64
	Workers         int
	Opts            recvec.Options
	HighPrecision   bool
	Orientation     Orientation
	AllowDuplicates bool
}

// TestFingerprintIsLegacyPrint: over awkward floats, extreme integers
// and every flag, the encoder writes what the %+v fingerprint printed,
// and a manifest records the config as the same bytes as before.
func TestFingerprintIsLegacyPrint(t *testing.T) {
	var cfgs []Config
	for i, noise := range []float64{0, 0.1, 1e-05, 0.1 + 0.2, 1.0 / 3, 5e-324, 1e21} {
		c := DefaultConfig(1 + 7*i)
		c.NoiseParam = noise
		c.EdgeFactor = int64(1) << (9 * i)
		c.MasterSeed = math.MaxUint64 >> (11 * i)
		c.Seed = skg.Seed{A: 0.5 - noise/4, B: 1.0 / 7, C: 0.25, D: 1e-17}
		c.Workers = i
		c.HighPrecision = i%2 == 0
		c.Orientation = Orientation(i % 3)
		c.AllowDuplicates = i%3 == 1
		cfgs = append(cfgs, c)
	}
	for _, c := range cfgs {
		old := legacyConfig{c.Scale, c.EdgeFactor, c.Seed, c.NoiseParam, c.MasterSeed, 0,
			recvec.Production(), c.HighPrecision, c.Orientation, c.AllowDuplicates}
		if got, want := CacheFingerprint(c), fmt.Sprintf("cfg=%+v", old); got != want {
			t.Errorf("CacheFingerprint\n got %s\nwant %s", got, want)
		}
		old.Workers = c.Workers
		got, err := json.MarshalIndent(resumeManifest{Config: (*manifestConfig)(&c)}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.MarshalIndent(struct {
			Fingerprint string        `json:"fingerprint"`
			Parts       int           `json:"parts"`
			Format      string        `json:"format"`
			Config      *legacyConfig `json:"config,omitempty"`
		}{Config: &old}, "", "  ")
		if !bytes.Equal(got, want) {
			t.Errorf("manifest\n got %s\nwant %s", got, want)
		}
	}
	if n, m := reflect.TypeOf(Config{}).NumField(), reflect.TypeOf(legacyConfig{}).NumField(); n != m-1 {
		t.Fatalf("Config has %d fields, the manifest writes %d: a new field must enter manifestConfig, and CacheFingerprint if it changes bytes", n, m-1)
	}
}
