package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func testKey(t *testing.T, n int) Key {
	t.Helper()
	return DeriveKey(KeyInput{
		ConfigFingerprint: "cfg-test",
		MasterSeed:        42,
		Lo:                int64(n) * 100,
		Hi:                int64(n)*100 + 100,
		Format:            "tsv",
		Codec:             1,
	})
}

func writeSrc(t *testing.T, dir, name string, data []byte) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestDeriveKeyCanonical(t *testing.T) {
	a := DeriveKey(KeyInput{ConfigFingerprint: "c", MasterSeed: 1, Lo: 0, Hi: 10, Format: "tsv", Codec: 1})
	b := DeriveKey(KeyInput{ConfigFingerprint: "c", MasterSeed: 1, Lo: 0, Hi: 10, Format: "tsv", Codec: 1})
	if a != b {
		t.Fatalf("same input, different keys: %s vs %s", a, b)
	}
	for _, other := range []KeyInput{
		{ConfigFingerprint: "c2", MasterSeed: 1, Lo: 0, Hi: 10, Format: "tsv", Codec: 1},
		{ConfigFingerprint: "c", MasterSeed: 2, Lo: 0, Hi: 10, Format: "tsv", Codec: 1},
		{ConfigFingerprint: "c", MasterSeed: 1, Lo: 1, Hi: 10, Format: "tsv", Codec: 1},
		{ConfigFingerprint: "c", MasterSeed: 1, Lo: 0, Hi: 11, Format: "tsv", Codec: 1},
		{ConfigFingerprint: "c", MasterSeed: 1, Lo: 0, Hi: 10, Format: "adj6", Codec: 1},
		{ConfigFingerprint: "c", MasterSeed: 1, Lo: 0, Hi: 10, Format: "tsv", Codec: 2},
	} {
		if DeriveKey(other) == a {
			t.Fatalf("key collision for differing input %+v", other)
		}
	}
	parsed, err := ParseKey(a.String())
	if err != nil {
		t.Fatalf("ParseKey: %v", err)
	}
	if parsed != a {
		t.Fatalf("ParseKey round-trip: %s vs %s", parsed, a)
	}
	if _, err := ParseKey("nothex"); err == nil {
		t.Fatal("ParseKey accepted garbage")
	}
}

func TestIngestRetrieveRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, filepath.Join(dir, "store"), Options{})
	payload := []byte("0\t1\n0\t2\n7\t3\n")
	src := writeSrc(t, dir, "part.tsv", payload)
	key := testKey(t, 0)

	if err := s.IngestFile(key, src, 3); err != nil {
		t.Fatalf("IngestFile: %v", err)
	}
	if !s.Has(key) {
		t.Fatal("Has after ingest = false")
	}
	dst := filepath.Join(dir, "out.tsv")
	info, ok, err := s.Retrieve(key, dst)
	if err != nil || !ok {
		t.Fatalf("Retrieve: ok=%v err=%v", ok, err)
	}
	if info.Edges != 3 || info.Size != int64(len(payload)) {
		t.Fatalf("Info = %+v, want edges=3 size=%d", info, len(payload))
	}
	got, err := os.ReadFile(dst)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("retrieved bytes differ: %q vs %q", got, payload)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 0 || st.Ingests != 1 || st.BytesSaved != int64(len(payload)) {
		t.Fatalf("stats = %+v", st)
	}

	// Re-ingesting an existing key is a cheap no-op.
	if err := s.IngestFile(key, src, 3); err != nil {
		t.Fatalf("re-ingest: %v", err)
	}
	if got := s.Stats().Ingests; got != 1 {
		t.Fatalf("ingests after duplicate = %d, want 1", got)
	}
}

func TestRetrieveMiss(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, filepath.Join(dir, "store"), Options{})
	_, ok, err := s.Retrieve(testKey(t, 9), filepath.Join(dir, "out"))
	if err != nil {
		t.Fatalf("miss returned error: %v", err)
	}
	if ok {
		t.Fatal("Retrieve of absent key reported a hit")
	}
	if st := s.Stats(); st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCorruptionDetectedAndEvicted(t *testing.T) {
	dir := t.TempDir()
	tel := telemetry.NewRegistry()
	s := mustOpen(t, filepath.Join(dir, "store"), Options{Telemetry: tel})
	payload := []byte("0\t1\n2\t3\n")
	src := writeSrc(t, dir, "part.tsv", payload)
	key := testKey(t, 1)
	if err := s.IngestFile(key, src, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.CorruptForTest(key); err != nil {
		t.Fatal(err)
	}

	dst := filepath.Join(dir, "out.tsv")
	_, ok, err := s.Retrieve(key, dst)
	if err != nil {
		t.Fatalf("corrupt retrieve returned error: %v", err)
	}
	if ok {
		t.Fatal("corrupt object reported as a hit")
	}
	if _, err := os.Stat(dst); !os.IsNotExist(err) {
		t.Fatalf("corrupt retrieve left dst behind (err=%v)", err)
	}
	if s.Has(key) {
		t.Fatal("corrupt object not evicted")
	}
	st := s.Stats()
	if st.VerifyFailures != 1 || st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("stats after corruption = %+v", st)
	}
	if got := tel.CounterValue(MetricVerifyFailures); got != 1 {
		t.Fatalf("telemetry verify_failures = %d, want 1", got)
	}

	// The slot is clean again: re-ingest and the hit path works.
	if err := s.IngestFile(key, src, 2); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Retrieve(key, dst); err != nil || !ok {
		t.Fatalf("retrieve after re-ingest: ok=%v err=%v", ok, err)
	}
}

func TestLRUEvictionRespectsBudgetAndPins(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("x"), 100)
	src := writeSrc(t, dir, "p", payload)
	// Budget fits two 100-byte payloads.
	s := mustOpen(t, filepath.Join(dir, "store"), Options{MaxBytes: 250})

	k0, k1, k2 := testKey(t, 0), testKey(t, 1), testKey(t, 2)
	for _, k := range []Key{k0, k1, k2} {
		if err := s.IngestFile(k, src, 0); err != nil {
			t.Fatal(err)
		}
	}
	// k0 is least recently used and must be gone.
	if s.Has(k0) {
		t.Fatal("LRU entry survived over-budget ingest")
	}
	if !s.Has(k1) || !s.Has(k2) {
		t.Fatal("recent entries were evicted")
	}
	if st := s.Stats(); st.Evictions != 1 || st.Bytes != 200 {
		t.Fatalf("stats = %+v", st)
	}

	// Touch k1 (making k2 the LRU), pin k2, ingest a third: the pin
	// wins, so k1 — now older by access — is evicted instead? No: k1
	// was just touched, so with k2 pinned the victim is... nothing
	// older than k1 exists; verify the pin specifically.
	if _, ok, err := s.Retrieve(k1, filepath.Join(dir, "out1")); err != nil || !ok {
		t.Fatalf("retrieve k1: ok=%v err=%v", ok, err)
	}
	if err := s.Pin(k2); err != nil {
		t.Fatal(err)
	}
	k3 := testKey(t, 3)
	if err := s.IngestFile(k3, src, 0); err != nil {
		t.Fatal(err)
	}
	if !s.Has(k2) {
		t.Fatal("pinned entry was evicted")
	}
	if s.Has(k1) {
		t.Fatal("unpinned LRU entry k1 survived while pinned k2 was protected")
	}
	if !s.Has(k3) {
		t.Fatal("fresh ingest missing")
	}
}

func TestPinSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	root := filepath.Join(dir, "store")
	src := writeSrc(t, dir, "p", []byte("data"))
	s := mustOpen(t, root, Options{})
	key := testKey(t, 0)
	if err := s.IngestFile(key, src, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Pin(key); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, root, Options{})
	infos := s2.List()
	if len(infos) != 1 || !infos[0].Pinned {
		t.Fatalf("after reopen List = %+v, want one pinned entry", infos)
	}
	if err := s2.Unpin(key); err != nil {
		t.Fatal(err)
	}
	s3 := mustOpen(t, root, Options{})
	if infos := s3.List(); len(infos) != 1 || infos[0].Pinned {
		t.Fatalf("after unpin+reopen List = %+v, want one unpinned entry", infos)
	}
}

// plantLitter leaves in the object tree at root what crashes leave —
// staging temps of both kinds, a payload whose commit died between its
// two renames, and a torn sidecar — and, as fresh files, what a peer's
// commit in flight looks like. It returns the crash litter recovery
// must remove and the in-flight files it must keep.
func plantLitter(t *testing.T, root string) (gone, kept []string) {
	t.Helper()
	stale := time.Now().Add(-2 * staleAfter)
	plant := func(name, data string, mtime time.Time) string {
		p := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(p, mtime, mtime); err != nil {
			t.Fatal(err)
		}
		return p
	}
	crashed, torn, inflight := testKey(t, 101), testKey(t, 102), testKey(t, 103)
	bucket := crashed.digest[:2] + "/"
	gone = []string{
		plant(bucket+".put-crashed", "half", stale),
		plant(bucket+".sum-crashed", "{", stale),
		plant(ObjectName(crashed, PayloadSuffix), "orphan", stale),
		// A torn sidecar is no commit in flight, however fresh.
		plant(ObjectName(torn, SidecarSuffix), "{torn", time.Now()),
	}
	kept = []string{
		plant(bucket+".put-inflight", "half", time.Now()),
		plant(bucket+".sum-inflight", "{", time.Now()),
		plant(ObjectName(inflight, PayloadSuffix), "renamed, sidecar next", time.Now()),
	}
	return gone, kept
}

// assertRecovered: recovery removed the crash litter and kept a peer's
// commit in flight.
func assertRecovered(t *testing.T, gone, kept []string) {
	t.Helper()
	for _, p := range gone {
		if fileExists(p) {
			t.Errorf("crash litter %s survived recovery", p)
		}
	}
	for _, p := range kept {
		if !fileExists(p) {
			t.Errorf("in-flight %s was removed", p)
		}
	}
}

// TestOpenSweepsTmpAndDiscardsTornObjects: Open removes the litter a
// crash leaves once it is older than the grace period, torn sidecars
// at once, and keeps what a live peer's commit has staged.
func TestOpenSweepsTmpAndDiscardsTornObjects(t *testing.T) {
	dir := t.TempDir()
	root := filepath.Join(dir, "store")
	src := writeSrc(t, dir, "p", []byte("good"))
	s := mustOpen(t, root, Options{})
	key := testKey(t, 0)
	if err := s.IngestFile(key, src, 0); err != nil {
		t.Fatal(err)
	}
	gone, kept := plantLitter(t, s.hot.Dir())

	s2 := mustOpen(t, root, Options{})
	assertRecovered(t, gone, kept)
	if infos := s2.List(); len(infos) != 1 || infos[0].Key != key {
		t.Fatalf("List after reopen = %+v, want just %s", infos, key)
	}
	if _, ok, err := s2.Retrieve(key, filepath.Join(dir, "out")); err != nil || !ok {
		t.Fatalf("good object lost across reopen: ok=%v err=%v", ok, err)
	}
}

func TestVerifyAllFindsCorruption(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, filepath.Join(dir, "store"), Options{})
	src := writeSrc(t, dir, "p", []byte("payload-bytes"))
	good, bad := testKey(t, 0), testKey(t, 1)
	for _, k := range []Key{good, bad} {
		if err := s.IngestFile(k, src, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.CorruptForTest(bad); err != nil {
		t.Fatal(err)
	}
	checked, corrupt, err := s.VerifyAll()
	if err != nil {
		t.Fatal(err)
	}
	if checked != 2 || len(corrupt) != 1 || corrupt[0] != bad {
		t.Fatalf("VerifyAll = (%d, %v), want (2, [%s])", checked, corrupt, bad)
	}
	if s.Has(bad) || !s.Has(good) {
		t.Fatal("VerifyAll evicted the wrong entry")
	}
}

func TestGCToTarget(t *testing.T) {
	dir := t.TempDir()
	src := writeSrc(t, dir, "p", bytes.Repeat([]byte("y"), 50))
	s := mustOpen(t, filepath.Join(dir, "store"), Options{})
	for i := 0; i < 4; i++ {
		if err := s.IngestFile(testKey(t, i), src, 0); err != nil {
			t.Fatal(err)
		}
	}
	removed, freed := s.GC(100)
	if removed != 2 || freed != 100 {
		t.Fatalf("GC = (%d, %d), want (2, 100)", removed, freed)
	}
	if st := s.Stats(); st.Objects != 2 || st.Bytes != 100 {
		t.Fatalf("stats after GC = %+v", st)
	}
	// Oldest two are the ones that went.
	if s.Has(testKey(t, 0)) || s.Has(testKey(t, 1)) {
		t.Fatal("GC evicted out of LRU order")
	}
}

// TestConcurrentIngestRetrieve drives parallel mixed traffic for the
// race detector.
func TestConcurrentIngestRetrieve(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, filepath.Join(dir, "store"), Options{MaxBytes: 2000})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			src := writeSrc(t, dir, fmt.Sprintf("src-%d", g), bytes.Repeat([]byte{byte('a' + g)}, 64))
			for i := 0; i < 20; i++ {
				k := testKey(t, g*1000+i%5)
				if err := s.IngestFile(k, src, 0); err != nil {
					t.Errorf("ingest: %v", err)
					return
				}
				dst := filepath.Join(dir, fmt.Sprintf("dst-%d-%d", g, i))
				if _, _, err := s.Retrieve(k, dst); err != nil {
					t.Errorf("retrieve: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if _, _, err := s.VerifyAll(); err != nil {
		t.Fatal(err)
	}
}
