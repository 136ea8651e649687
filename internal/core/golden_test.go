package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gformat"
	"repro/internal/partition"
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
// run manifest written so far is addressed by. CacheFingerprint is fmt's
// %+v rendering of Config, so a String/Format method on Config, or a
// field added to or removed from it, silently changes all three —
// orphaning every existing store entry and failing every resume of an
// existing directory. Such a change must be deliberate. The literals
// were regenerated once, on purpose, when the drawn Figure 6 planner
// gave way to the closed-form cuts: BinsPerWorker left Config (and so
// %+v and every classic key), and the planner's name entered the
// manifest, so a directory cut by the old planner is refused rather than
// completed with parts cut another way. The bytes of a range did not
// change, only its key.
func TestGoldenKeys(t *testing.T) {
	nskg := DefaultConfig(12)
	nskg.NoiseParam = 0.05
	nskg.Orientation = AVSI
	nskg.MasterSeed = 42
	nskg.Workers = 3 // normalized out of all three
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
	}
}
