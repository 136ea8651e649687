package dist

// Cache chaos tests: a cluster backed by an artifact store must turn
// reruns into pure lookups, and must survive a corrupted store entry by
// detecting, evicting and regenerating it. They live in the chaos suite
// (and its race-enabled CI step) because the store is exactly the kind
// of shared mutable state races love.

import (
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gformat"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// runStoreCluster runs a 3-worker cluster whose workers share one
// artifact store (the shared-cache-volume deployment).
func runStoreCluster(t *testing.T, cfg core.Config, st *store.Store) (Summary, []string) {
	t.Helper()
	m, err := NewMaster(MasterConfig{
		Addr:          "127.0.0.1:0",
		Workers:       3,
		Parts:         6,
		Config:        cfg,
		Format:        gformat.ADJ6,
		AcceptTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	dirs := make([]string, 3)
	for i := range dirs {
		dirs[i] = t.TempDir()
	}
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = RunWorker(WorkerConfig{
				MasterAddr: m.Addr(),
				Threads:    2,
				OutDir:     dirs[i],
				redial:     fastBackoff,
				Store:      st,
			})
		}(i)
	}
	sum, err := m.Run()
	wg.Wait()
	if err != nil {
		t.Fatalf("master: %v", err)
	}
	for i, werr := range errs {
		if werr != nil {
			t.Fatalf("worker %d: %v", i, werr)
		}
	}
	return sum, dirs
}

// TestChaosWarmStoreRerunIsAllCacheHits: a second cluster run against
// the store the first run populated regenerates zero ranges — every
// part is a verified store hit — and produces a bit-identical file set.
func TestChaosWarmStoreRerunIsAllCacheHits(t *testing.T) {
	cfg := testConfig(11)
	root := filepath.Join(t.TempDir(), "store")
	st, err := store.Open(root, store.Options{})
	if err != nil {
		t.Fatal(err)
	}

	coldSum, coldDirs := runStoreCluster(t, cfg, st)
	if coldSum.Edges == 0 || coldSum.PartsFromCache != 0 {
		t.Fatalf("cold summary = %+v", coldSum)
	}
	if got := st.Stats().Ingests; got != 6 {
		t.Fatalf("cold run ingested %d parts, want 6", got)
	}

	// Reopen the store with a fresh registry so the warm run's
	// hit/miss counters measure only itself, as a new cluster
	// incarnation sharing the cache volume would.
	tel := telemetry.NewRegistry()
	st2, err := store.Open(root, store.Options{Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	warmSum, warmDirs := runStoreCluster(t, cfg, st2)
	if warmSum.PartsFromCache != 6 {
		t.Fatalf("warm run PartsFromCache = %d, want 6", warmSum.PartsFromCache)
	}
	if warmSum.Edges != 0 {
		t.Fatalf("warm run generated %d edges, want 0", warmSum.Edges)
	}
	if hits, misses := tel.CounterValue(store.MetricHits), tel.CounterValue(store.MetricMisses); hits != 6 || misses != 0 {
		t.Fatalf("warm run store hits=%d misses=%d, want 6/0", hits, misses)
	}

	cold, warm := readParts(t, coldDirs, "adj6"), readParts(t, warmDirs, "adj6")
	if len(cold) != 6 || len(warm) != 6 {
		t.Fatalf("part counts: cold %d, warm %d", len(cold), len(warm))
	}
	for name, b := range cold {
		if string(warm[name]) != string(b) {
			t.Fatalf("part %s from cache differs from generated", name)
		}
	}
}

// TestChaosCorruptStoreEntryDetectedAndRegenerated: flip bits in one
// cached part; the next run's checksum verification must catch it,
// evict the entry, regenerate the range, and still produce the exact
// cold-run file set.
func TestChaosCorruptStoreEntryDetectedAndRegenerated(t *testing.T) {
	cfg := testConfig(11)
	root := filepath.Join(t.TempDir(), "store")
	st, err := store.Open(root, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, coldDirs := runStoreCluster(t, cfg, st)

	ranges, err := core.Plan(cfg, 6)
	if err != nil {
		t.Fatal(err)
	}
	victim := core.PartKey(cfg, gformat.ADJ6, ranges[2])
	if err := st.CorruptForTest(victim); err != nil {
		t.Fatal(err)
	}

	tel := telemetry.NewRegistry()
	st2, err := store.Open(root, store.Options{Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	sum, dirs := runStoreCluster(t, cfg, st2)
	if sum.PartsFromCache != 5 {
		t.Fatalf("PartsFromCache = %d, want 5 (one entry corrupt)", sum.PartsFromCache)
	}
	if sum.Edges == 0 {
		t.Fatal("corrupt range was not regenerated")
	}
	if got := tel.CounterValue(store.MetricVerifyFailures); got != 1 {
		t.Fatalf("verify_failures = %d, want 1", got)
	}
	// The regenerated part went back into the store under the same key.
	if !st2.Has(victim) {
		t.Fatal("regenerated part was not re-ingested")
	}

	cold, recovered := readParts(t, coldDirs, "adj6"), readParts(t, dirs, "adj6")
	for name, b := range cold {
		if string(recovered[name]) != string(b) {
			t.Fatalf("part %s differs after corruption recovery", name)
		}
	}
}
