package core

// The store ingest of RunParts' own sink stack: the digest comes from
// the part's writer, the bytes from the published file.

import (
	"crypto/sha256"
	"encoding/hex"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/faultpoint"
	"repro/internal/gformat"
	"repro/internal/store"
)

// storedObject reads key's sidecar and payload straight from the store's
// object tree.
func storedObject(t *testing.T, st *store.Store, key store.Key) (store.Sidecar, []byte) {
	t.Helper()
	base := filepath.Join(st.Dir(), "objects", key.String()[:2], key.String())
	side, err := store.ParseSidecar(readFile(t, base+".sum"))
	if err != nil {
		t.Fatal(err)
	}
	return side, readFile(t, base+".part")
}

// assertNoStoreStaging: no ingest left a staging temp (a dot-named
// file) in the store's object tree.
func assertNoStoreStaging(t *testing.T, st *store.Store) {
	t.Helper()
	litter, err := filepath.Glob(filepath.Join(st.Dir(), "objects", "*", ".*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(litter) != 0 {
		t.Fatalf("staging temps left in the store's tree: %v", litter)
	}
}

// TestIngestedSidecarIsPartDigest: whichever way a part's digest was
// taken — by its writer for TSV and ADJ6, by reading the file back for
// CSR6 — the sidecar holds the SHA-256 and size of the part file, and
// the stored payload is that file.
func TestIngestedSidecarIsPartDigest(t *testing.T) {
	for _, format := range []gformat.Format{gformat.TSV, gformat.ADJ6, gformat.CSR6} {
		t.Run(format.String(), func(t *testing.T) {
			cfg := DefaultConfig(12) // parts of several encoder blocks
			cfg.Workers = 3
			cfg.MasterSeed = 24
			st := openStore(t, nil)
			dir := t.TempDir()
			stats, err := ResumeToDirStore(cfg, dir, format, st)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range stats.Ranges {
				part := readFile(t, PartPath(dir, format, i))
				if len(part) < 1<<17 {
					t.Fatalf("part %d is %d bytes: the test wants several blocks", i, len(part))
				}
				sum := sha256.Sum256(part)
				side, payload := storedObject(t, st, PartKey(cfg, format, r))
				if side.SHA256 != hex.EncodeToString(sum[:]) || side.Size != int64(len(part)) {
					t.Errorf("part %d: sidecar %s/%d, file %x/%d", i, side.SHA256, side.Size, sum, len(part))
				}
				if sha256.Sum256(payload) != sum {
					t.Errorf("part %d: the stored payload is not the part file", i)
				}
				if side.Edges <= 0 {
					t.Errorf("part %d: sidecar records %d edges", i, side.Edges)
				}
			}
			assertNoStoreStaging(t, st)
		})
	}
}

// TestStoredPartSinksHashOnlyForAStore pins which writers carry a
// hasher: none without a store (batch, dist and swarm runs without one
// pay for no digest nobody reads), the streamable formats' with one,
// and CSR6 — back-filled by seeking — never.
func TestStoredPartSinksHashOnlyForAStore(t *testing.T) {
	cfg := DefaultConfig(8)
	ranges, err := Plan(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	st := openStore(t, nil)
	for _, format := range []gformat.Format{gformat.TSV, gformat.ADJ6, gformat.CSR6} {
		w, err := storedPartSinks(t.TempDir(), format, cfg, []int{0}, nil, PartSinkOptions{})(0, ranges[0])
		if err != nil {
			t.Fatal(err)
		}
		if _, bare := w.(*atomicWriter); !bare {
			t.Errorf("%v without a store: sink is %T, want the bare atomic writer", format, w)
		}
		w, err = storedPartSinks(t.TempDir(), format, cfg, []int{0}, st, PartSinkOptions{})(0, ranges[0])
		if err != nil {
			t.Fatal(err)
		}
		iw, ok := w.(*ingestWriter)
		if !ok {
			t.Fatalf("%v with a store: sink is %T, want an ingesting writer", format, w)
		}
		if hashed := iw.sum != nil; hashed != (format != gformat.CSR6) {
			t.Errorf("%v with a store: writer hashes = %v", format, hashed)
		}
	}
	// A foreign stack composed from the public pieces reads back.
	w, err := IngestingSinks(AtomicPartSinks(t.TempDir(), gformat.TSV, cfg.NumVertices(), []int{0}), st, cfg, "", gformat.TSV, []int{0})(0, ranges[0])
	if err != nil {
		t.Fatal(err)
	}
	if iw := w.(*ingestWriter); iw.sum != nil {
		t.Error("IngestingSinks over AtomicPartSinks carries a hasher")
	}
}

// TestFailedPartIsNotIngested: a part whose sink fails mid-write or at
// close leaves no object, no sidecar and nothing staged; the rerun
// completes it and ingests it then.
func TestFailedPartIsNotIngested(t *testing.T) {
	for _, point := range []string{"core.sink.write", "core.sink.close"} {
		t.Run(point, func(t *testing.T) {
			cfg := DefaultConfig(9)
			cfg.Workers = 1
			st := openStore(t, nil)
			dir := t.TempDir()
			faultpoint.Reset()
			t.Cleanup(faultpoint.Reset)
			if err := faultpoint.Arm(point, "fail:injected*1"); err != nil {
				t.Fatal(err)
			}
			if _, err := ResumeToDirStore(cfg, dir, gformat.TSV, st); err == nil {
				t.Fatal("the injected failure did not fail the run")
			}
			if n := st.Stats().Objects; n != 0 {
				t.Fatalf("%d objects ingested from a failed part", n)
			}
			sidecars, _ := filepath.Glob(filepath.Join(st.Dir(), "objects", "*", "*"))
			if len(sidecars) != 0 {
				t.Fatalf("files in the object tree: %v", sidecars)
			}
			assertNoStoreStaging(t, st)

			stats, err := ResumeToDirStore(cfg, dir, gformat.TSV, st)
			if err != nil || stats.Edges == 0 {
				t.Fatalf("rerun: %+v, %v", stats, err)
			}
			if n := st.Stats().Objects; n != 1 {
				t.Fatalf("%d objects after the rerun, want 1", n)
			}
		})
	}
}

// TestLostPublishRaceStillIngests: a swarm worker that finds a peer's
// part under the final name keeps it, and ingests it under the digest
// of its own — identical — bytes; doing so twice is one object.
func TestLostPublishRaceStillIngests(t *testing.T) {
	cfg := DefaultConfig(9)
	cfg.MasterSeed = 5
	ranges, err := Plan(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ids := []int{0, 1}
	if _, err := GenerateRanges(cfg, ranges, AtomicPartSinks(dir, gformat.ADJ6, cfg.NumVertices(), ids)); err != nil {
		t.Fatal(err) // the peer's parts
	}
	st := openStore(t, nil)
	for round := 0; round < 2; round++ {
		// Both parts' writers may lose their publish at the same time.
		var lost atomic.Int32
		opt := PartSinkOptions{TmpSuffix: "late", OnDuplicate: func(int) { lost.Add(1) }}
		// RunParts would fetch round 2's parts from the store; the sinks
		// are what is under test.
		if _, err := GenerateParts(cfg, ranges, ids, storedPartSinks(dir, gformat.ADJ6, cfg, ids, st, opt), nil); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if n := lost.Load(); n != 2 {
			t.Fatalf("round %d: %d publish races lost, want 2", round, n)
		}
	}
	if got := st.Stats(); got.Objects != 2 || got.Ingests != 2 {
		t.Fatalf("store %+v, want 2 objects from 2 ingests", got)
	}
	for i, r := range ranges {
		sum := sha256.Sum256(readFile(t, PartPath(dir, gformat.ADJ6, i)))
		if side, _ := storedObject(t, st, PartKey(cfg, gformat.ADJ6, r)); side.SHA256 != hex.EncodeToString(sum[:]) {
			t.Errorf("part %d: sidecar %s, peer's file %x", i, side.SHA256, sum)
		}
	}
	assertNoStoreStaging(t, st)
	if tmps, _ := filepath.Glob(filepath.Join(dir, "part-*.tmp")); len(tmps) != 0 {
		t.Fatalf("temp litter: %v", tmps)
	}
}
