package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// assertNoObject: key left nothing behind — no index entry, no payload,
// no sidecar, nothing staged under tmp/.
func assertNoObject(t *testing.T, s *Store, key Key) {
	t.Helper()
	if s.Has(key) {
		t.Fatal("the store indexed the object")
	}
	for _, p := range []string{s.payloadPath(key.digest), s.sumPath(key.digest)} {
		if _, err := os.Stat(p); err == nil {
			t.Fatalf("%s exists", p)
		}
	}
	if litter, _ := os.ReadDir(s.tmpDir()); len(litter) != 0 {
		t.Fatalf("%d files left under tmp/, first %s", len(litter), litter[0].Name())
	}
}

// TestIngestDigestRoundTrip: an object ingested by digest is the object
// IngestFile would have made of the same file — same payload, same
// sidecar bytes — and it retrieves, verifies and re-ingests like one.
func TestIngestDigestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("0\t1\n0\t2\n7\t3\n"), 20000) // several copy chunks
	src := writeSrc(t, dir, "part.tsv", payload)
	sum := sha256.Sum256(payload)

	byDigest := mustOpen(t, filepath.Join(dir, "a"), Options{})
	byFile := mustOpen(t, filepath.Join(dir, "b"), Options{})
	key := testKey(t, 0)
	if err := byDigest.IngestDigest(key, src, sum[:], int64(len(payload)), 60000); err != nil {
		t.Fatalf("IngestDigest: %v", err)
	}
	if err := byFile.IngestFile(key, src, 60000); err != nil {
		t.Fatal(err)
	}
	for _, path := range []func(*Store) string{
		func(s *Store) string { return s.payloadPath(key.digest) },
		func(s *Store) string { return s.sumPath(key.digest) },
	} {
		a, err := os.ReadFile(path(byDigest))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path(byFile))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s differs between the two ingests", filepath.Base(path(byFile)))
		}
	}
	side, err := readSidecar(byDigest.sumPath(key.digest))
	if err != nil || side.SHA256 != hex.EncodeToString(sum[:]) || side.Size != int64(len(payload)) || side.Edges != 60000 {
		t.Fatalf("sidecar %+v, %v", side, err)
	}

	dst := filepath.Join(dir, "out.tsv")
	info, ok, err := byDigest.Retrieve(key, dst)
	if err != nil || !ok || info.Size != int64(len(payload)) || info.Edges != 60000 {
		t.Fatalf("Retrieve: %+v ok=%v err=%v", info, ok, err)
	}
	if got, _ := os.ReadFile(dst); !bytes.Equal(got, payload) {
		t.Fatal("retrieved bytes differ")
	}
	if checked, corrupt, err := byDigest.VerifyAll(); checked != 1 || len(corrupt) != 0 || err != nil {
		t.Fatalf("VerifyAll: %d checked, %d corrupt, %v", checked, len(corrupt), err)
	}
	if err := byDigest.IngestDigest(key, src, sum[:], int64(len(payload)), 60000); err != nil {
		t.Fatalf("re-ingest: %v", err)
	}
	if got := byDigest.Stats().Ingests; got != 1 {
		t.Fatalf("ingests after a duplicate = %d, want 1", got)
	}
	if litter, _ := os.ReadDir(byDigest.tmpDir()); len(litter) != 0 {
		t.Fatalf("%d files left under tmp/", len(litter))
	}
}

// TestIngestDigestShortCopy: a file that is not as long as its writer
// says — truncated between the rename and the ingest — is an ingest
// error, not an object.
func TestIngestDigestShortCopy(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, filepath.Join(dir, "store"), Options{})
	payload := []byte("0\t1\n2\t3\n")
	sum := sha256.Sum256(payload)
	key := testKey(t, 1)

	short := writeSrc(t, dir, "short.tsv", payload[:len(payload)-3])
	err := s.IngestDigest(key, short, sum[:], int64(len(payload)), 2)
	if err == nil || !strings.Contains(err.Error(), "hashed") {
		t.Fatalf("short copy: %v", err)
	}
	assertNoObject(t, s, key)

	long := writeSrc(t, dir, "long.tsv", append(payload[:len(payload):len(payload)], "4\t5\n"...))
	if err := s.IngestDigest(key, long, sum[:], int64(len(payload)), 2); err == nil {
		t.Fatal("long copy accepted")
	}
	assertNoObject(t, s, key)

	if err := s.IngestDigest(key, writeSrc(t, dir, "ok.tsv", payload), sum[:8], int64(len(payload)), 2); err == nil {
		t.Fatal("an 8-byte digest accepted")
	}
	if err := s.IngestDigest(key, filepath.Join(dir, "absent.tsv"), sum[:], int64(len(payload)), 2); err == nil {
		t.Fatal("a missing file accepted")
	}
	assertNoObject(t, s, key)
}

// TestIngestDigestMismatchCaughtOnRead: the store takes the digest on
// trust at ingest, so bytes that differ from it (a copy gone wrong, a
// file swapped under the ingest) are caught where rot is caught: the
// first Retrieve is a verified miss and the object evicts itself.
func TestIngestDigestMismatchCaughtOnRead(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, filepath.Join(dir, "store"), Options{})
	meant, found := []byte("0\t1\n2\t3\n"), []byte("0\t1\n2\t4\n")
	sum := sha256.Sum256(meant)
	key := testKey(t, 2)
	if err := s.IngestDigest(key, writeSrc(t, dir, "part.tsv", found), sum[:], int64(len(meant)), 2); err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(dir, "out.tsv")
	if _, ok, err := s.Retrieve(key, dst); ok || err != nil {
		t.Fatalf("Retrieve of mismatched bytes: ok=%v err=%v", ok, err)
	}
	if _, err := os.Stat(dst); err == nil {
		t.Fatal("mismatched bytes were delivered")
	}
	if st := s.Stats(); st.VerifyFailures != 1 || st.Objects != 0 {
		t.Fatalf("stats %+v, want one verify failure and no object", st)
	}
	assertNoObject(t, s, key)
}
