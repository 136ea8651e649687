package store

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/telemetry"
)

// tierKey derives a distinct test key.
func tierKey(i int) Key {
	return DeriveKey(KeyInput{
		ConfigFingerprint: "tier-test",
		MasterSeed:        7,
		Lo:                int64(i),
		Hi:                int64(i + 1),
		Format:            "tsv",
		Codec:             CodecVersion,
	})
}

// ingestBytes writes b as an artifact under key.
func ingestBytes(t *testing.T, st *Store, key Key, b []byte, edges int64) {
	t.Helper()
	src := filepath.Join(t.TempDir(), "src")
	if err := os.WriteFile(src, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := st.IngestFile(key, src, edges); err != nil {
		t.Fatal(err)
	}
}

// retrieveBytes materializes key and returns its bytes (nil on miss).
func retrieveBytes(t *testing.T, st *Store, key Key) []byte {
	t.Helper()
	dst := filepath.Join(t.TempDir(), "dst")
	_, ok, err := st.Retrieve(key, dst)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		return nil
	}
	b, err := os.ReadFile(dst)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func openTiered(t *testing.T, maxBytes int64) (*Store, *DirBackend, *telemetry.Registry) {
	t.Helper()
	remote, err := NewDirBackend(filepath.Join(t.TempDir(), "cold"))
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.NewRegistry()
	st, err := Open(filepath.Join(t.TempDir(), "hot"), Options{
		MaxBytes:  maxBytes,
		Telemetry: tel,
		Remote:    remote,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st, remote, tel
}

// TestTierDemoteThenRetrieve is the core tier contract: evicting a
// remote-backed entry never loses data. An artifact pushed out of the
// hot tier by the byte budget must come back bit-identical through the
// cold tier, and the round trip must count a demotion, a promotion and
// a remote hit.
func TestTierDemoteThenRetrieve(t *testing.T) {
	st, remote, tel := openTiered(t, 150)
	payload := bytes.Repeat([]byte("abc"), 40) // 120 bytes
	ingestBytes(t, st, tierKey(0), payload, 5)

	// A second ingest overflows the budget: the LRU entry (key 0) must
	// be demoted to the cold tier, not deleted.
	ingestBytes(t, st, tierKey(1), bytes.Repeat([]byte{9}, 100), 3)
	if st.Has(tierKey(0)) {
		t.Fatal("key 0 still local after budget overflow")
	}
	if _, ok, err := remote.Head(tierKey(0)); err != nil || !ok {
		t.Fatalf("key 0 not demoted to cold tier: ok=%v err=%v", ok, err)
	}

	got := retrieveBytes(t, st, tierKey(0))
	if !bytes.Equal(got, payload) {
		t.Fatalf("tier round trip changed bytes: got %d bytes, want %d", len(got), len(payload))
	}
	if n := tel.Counter(MetricDemotions).Value(); n < 1 {
		t.Fatalf("demotions = %d, want >= 1", n)
	}
	if n := tel.Counter(MetricPromotions).Value(); n != 1 {
		t.Fatalf("promotions = %d, want 1", n)
	}
	if n := tel.Counter(MetricRemoteHits).Value(); n != 1 {
		t.Fatalf("remote hits = %d, want 1", n)
	}
	// The sidecar's edge metadata must survive the round trip.
	info, ok, err := st.Pull(tierKey(0))
	if err != nil || !ok {
		t.Fatalf("pull after promote: ok=%v err=%v", ok, err)
	}
	if info.Edges != 5 {
		t.Fatalf("edges after round trip = %d, want 5", info.Edges)
	}
}

// TestTierRemoteCorruptionSelfHeals: a damaged cold object is detected
// by the promote-time hash, deleted from the backend, and reported as a
// miss so the caller regenerates.
func TestTierRemoteCorruptionSelfHeals(t *testing.T) {
	st, remote, tel := openTiered(t, 0)
	payload := []byte("precious bytes")
	ingestBytes(t, st, tierKey(0), payload, 1)
	if err := st.Push(tierKey(0)); err != nil {
		t.Fatal(err)
	}
	st.GC(1) // drop the local copy (already cold, so this is a plain evict)
	if st.Has(tierKey(0)) {
		t.Fatal("key still local after GC(1)")
	}

	// Damage the cold payload, keeping its sidecar.
	side, ok, err := remote.Head(tierKey(0))
	if err != nil || !ok {
		t.Fatalf("cold object missing: %v", err)
	}
	if side.Size != int64(len(payload)) {
		t.Fatalf("sidecar size %d", side.Size)
	}
	garbage := bytes.Repeat([]byte{0xA5}, len(payload))
	if err := os.WriteFile(filepath.Join(remote.Dir(), filepath.FromSlash(ObjectName(tierKey(0), PayloadSuffix))), garbage, 0o644); err != nil {
		t.Fatal(err)
	}

	if got := retrieveBytes(t, st, tierKey(0)); got != nil {
		t.Fatalf("corrupt cold object served: %q", got)
	}
	if n := tel.Counter(MetricRemoteVerifyFailure).Value(); n != 1 {
		t.Fatalf("remote verify failures = %d, want 1", n)
	}
	// Self-healed: the damaged object is gone from the backend.
	if _, ok, _ := remote.Head(tierKey(0)); ok {
		t.Fatal("corrupt cold object not deleted")
	}
}

// TestTierLocalCorruptionFallsThrough: a corrupt hot copy of a
// remote-backed entry is evicted and the retrieve transparently
// re-promotes the clean cold copy — self-healing spans both tiers.
func TestTierLocalCorruptionFallsThrough(t *testing.T) {
	st, _, tel := openTiered(t, 0)
	payload := []byte("both tiers hold me")
	ingestBytes(t, st, tierKey(0), payload, 1)
	if err := st.Push(tierKey(0)); err != nil {
		t.Fatal(err)
	}
	if err := st.CorruptForTest(tierKey(0)); err != nil {
		t.Fatal(err)
	}
	if got := retrieveBytes(t, st, tierKey(0)); !bytes.Equal(got, payload) {
		t.Fatalf("fall-through retrieve got %q, want %q", got, payload)
	}
	if n := tel.Counter(MetricVerifyFailures).Value(); n != 1 {
		t.Fatalf("local verify failures = %d, want 1", n)
	}
	if n := tel.Counter(MetricRemoteHits).Value(); n != 1 {
		t.Fatalf("remote hits = %d, want 1", n)
	}
}

// TestTierDemoteFailureKeepsData: when the cold tier refuses the
// upload, eviction must keep the local copy rather than lose the only
// bytes — the budget stays busted, which is the correct failure mode.
func TestTierDemoteFailureKeepsData(t *testing.T) {
	remote := &failingBackend{}
	tel := telemetry.NewRegistry()
	st, err := Open(filepath.Join(t.TempDir(), "hot"), Options{
		MaxBytes:  100,
		Telemetry: tel,
		Remote:    remote,
	})
	if err != nil {
		t.Fatal(err)
	}
	ingestBytes(t, st, tierKey(0), bytes.Repeat([]byte{1}, 80), 1)
	ingestBytes(t, st, tierKey(1), bytes.Repeat([]byte{2}, 80), 1)
	if !st.Has(tierKey(0)) || !st.Has(tierKey(1)) {
		t.Fatal("an entry was dropped despite failed demotion")
	}
	if n := tel.Counter(MetricDemoteFailures).Value(); n < 1 {
		t.Fatalf("demote failures = %d, want >= 1", n)
	}
	if n := tel.Counter(MetricEvictions).Value(); n != 0 {
		t.Fatalf("evictions = %d, want 0", n)
	}
}

// failingBackend refuses every operation — an unreachable cold tier.
type failingBackend struct{}

func (f *failingBackend) Put(Key, io.Reader, Sidecar) error { return fmt.Errorf("unreachable") }
func (f *failingBackend) Get(Key, io.Writer) (Sidecar, bool, error) {
	return Sidecar{}, false, fmt.Errorf("unreachable")
}
func (f *failingBackend) Head(Key) (Sidecar, bool, error) {
	return Sidecar{}, false, fmt.Errorf("unreachable")
}
func (f *failingBackend) Delete(Key) error              { return fmt.Errorf("unreachable") }
func (f *failingBackend) List() ([]BackendEntry, error) { return nil, fmt.Errorf("unreachable") }

// TestTierPushPullLocation exercises the explicit tier-moving API.
func TestTierPushPullLocation(t *testing.T) {
	st, _, _ := openTiered(t, 0)
	payload := []byte("movable")
	ingestBytes(t, st, tierKey(0), payload, 2)

	local, cold, err := st.Location(tierKey(0))
	if err != nil || !local || cold {
		t.Fatalf("fresh ingest location = (%v,%v,%v), want (true,false,nil)", local, cold, err)
	}
	if err := st.Push(tierKey(0)); err != nil {
		t.Fatal(err)
	}
	local, cold, err = st.Location(tierKey(0))
	if err != nil || !local || !cold {
		t.Fatalf("after push location = (%v,%v,%v), want (true,true,nil)", local, cold, err)
	}
	st.GC(1)
	local, cold, err = st.Location(tierKey(0))
	if err != nil || local || !cold {
		t.Fatalf("after evict location = (%v,%v,%v), want (false,true,nil)", local, cold, err)
	}
	info, ok, err := st.Pull(tierKey(0))
	if err != nil || !ok || info.Size != int64(len(payload)) {
		t.Fatalf("pull = (%+v,%v,%v)", info, ok, err)
	}
	if !st.Has(tierKey(0)) {
		t.Fatal("pull did not materialize locally")
	}
	// Remote listing sees the pushed object.
	entries, err := st.RemoteList()
	if err != nil || len(entries) != 1 || entries[0].Key != tierKey(0) {
		t.Fatalf("remote list = %v, %v", entries, err)
	}
}

// TestVerifyAllSkipsDeletedMidScan: entries deleted after the verify
// pass took its listing and before it hashes them are counted as
// checked and not reported corrupt. The deletes run in the hook between
// the two, so every run deletes the same half of the listed entries.
func TestVerifyAllSkipsDeletedMidScan(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	for i := 0; i < n; i++ {
		ingestBytes(t, st, tierKey(i), bytes.Repeat([]byte{byte(i)}, 64), 0)
	}
	st.verifySnapshotted = func() {
		for i := 0; i < n; i += 2 {
			st.Delete(tierKey(i))
		}
	}
	checked, corrupt, err := st.VerifyAll()
	if err != nil {
		t.Fatal(err)
	}
	if checked != n {
		t.Fatalf("checked = %d, want %d", checked, n)
	}
	if len(corrupt) != 0 {
		t.Fatalf("deleted-mid-scan entries reported corrupt: %v", corrupt)
	}
	for i := 0; i < n; i++ {
		if has := st.Has(tierKey(i)); has != (i%2 == 1) {
			t.Fatalf("entry %d present = %v after the scan, want %v", i, has, i%2 == 1)
		}
	}
}
