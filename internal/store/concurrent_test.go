package store

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentRetrieveVsGCAndDelete hammers one key with readers
// while GC, Delete and re-ingest churn it from other goroutines. The
// in-flight refcount must guarantee that every Retrieve reporting a
// hit produced the complete payload — never a truncated or torn file —
// and that the store survives with a consistent index. Run under
// -race, where the lock discipline itself is also checked.
func TestConcurrentRetrieveVsGCAndDelete(t *testing.T) {
	for _, tiered := range []bool{false, true} {
		t.Run(fmt.Sprintf("tiered=%v", tiered), func(t *testing.T) {
			opts := Options{MaxBytes: 0}
			if tiered {
				remote, err := NewDirBackend(filepath.Join(t.TempDir(), "cold"))
				if err != nil {
					t.Fatal(err)
				}
				opts.Remote = remote
			}
			st, err := Open(filepath.Join(t.TempDir(), "hot"), opts)
			if err != nil {
				t.Fatal(err)
			}
			payload := bytes.Repeat([]byte("0123456789abcdef"), 512) // 8 KiB
			key := tierKey(0)
			src := filepath.Join(t.TempDir(), "src")
			if err := os.WriteFile(src, payload, 0o644); err != nil {
				t.Fatal(err)
			}
			ingest := func() error { return st.IngestFile(key, src, 1) }
			if err := ingest(); err != nil {
				t.Fatal(err)
			}

			const readers = 4
			const iters = 200
			var hits, misses atomic.Int64
			var wg sync.WaitGroup
			fail := make(chan string, readers*iters)
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					dir := t.TempDir()
					for i := 0; i < iters; i++ {
						dst := filepath.Join(dir, fmt.Sprintf("out-%d", i))
						info, ok, err := st.Retrieve(key, dst)
						if err != nil {
							fail <- fmt.Sprintf("retrieve: %v", err)
							return
						}
						if !ok {
							misses.Add(1)
							continue
						}
						hits.Add(1)
						got, err := os.ReadFile(dst)
						if err != nil {
							fail <- fmt.Sprintf("read hit: %v", err)
							return
						}
						if !bytes.Equal(got, payload) {
							fail <- fmt.Sprintf("hit served %d bytes, want %d (info.Size=%d)", len(got), len(payload), info.Size)
							return
						}
					}
				}(r)
			}
			// Churn: evict-to-zero, hard-delete, and re-ingest in a loop.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					switch i % 3 {
					case 0:
						st.GC(1)
					case 1:
						st.Delete(key)
					case 2:
						if err := ingest(); err != nil {
							fail <- fmt.Sprintf("reingest: %v", err)
							return
						}
					}
				}
				// Leave the key present so late readers can still hit.
				if err := ingest(); err != nil {
					fail <- fmt.Sprintf("final ingest: %v", err)
				}
			}()
			wg.Wait()
			close(fail)
			for msg := range fail {
				t.Fatal(msg)
			}
			t.Logf("hits=%d misses=%d", hits.Load(), misses.Load())

			// The churn ended with an ingest, so a final retrieve must
			// hit with the complete payload — deterministically, unlike
			// the racing readers above (which may all land in deleted
			// windows on a loaded machine).
			dst := filepath.Join(t.TempDir(), "final")
			if _, ok, err := st.Retrieve(key, dst); err != nil || !ok {
				t.Fatalf("post-churn retrieve: ok=%v err=%v", ok, err)
			}
			if got, err := os.ReadFile(dst); err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("post-churn payload: %d bytes, err=%v", len(got), err)
			}

			// The index survived: a final verify pass is clean.
			if _, corrupt, err := st.VerifyAll(); err != nil || len(corrupt) != 0 {
				t.Fatalf("post-churn verify: corrupt=%v err=%v", corrupt, err)
			}
		})
	}
}

// TestPeerOpenKeepsInflightIngest: a second process opening the same
// store — a late swarm worker — must not break an ingest in flight.
// A peer reopens the root in a loop while one Store ingests a 64 MiB
// payload by IngestFile and by IngestDigest; both must succeed, and
// both objects must be retrievable here and from a fresh Open.
func TestPeerOpenKeepsInflightIngest(t *testing.T) {
	dir := t.TempDir()
	root := filepath.Join(dir, "store")
	s := mustOpen(t, root, Options{})
	payload := bytes.Repeat([]byte("0\t1\n"), 16<<20)
	src := writeSrc(t, dir, "part.tsv", payload)
	sum := sha256.Sum256(payload)

	var reopens atomic.Int64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := Open(root, Options{}); err != nil {
				t.Errorf("peer Open: %v", err)
				return
			}
			reopens.Add(1)
		}
	}()
	for reopens.Load() == 0 {
		runtime.Gosched()
	}
	byFile, byDigest := testKey(t, 0), testKey(t, 1)
	errFile := s.IngestFile(byFile, src, 0)
	errDigest := s.IngestDigest(byDigest, src, sum[:], int64(len(payload)), 0)
	close(stop)
	<-done
	if errFile != nil || errDigest != nil {
		t.Fatalf("ingests beside a reopening peer: IngestFile %v, IngestDigest %v", errFile, errDigest)
	}

	dst := filepath.Join(dir, "out")
	for _, st := range []*Store{s, mustOpen(t, root, Options{})} {
		for _, key := range []Key{byFile, byDigest} {
			if _, ok, err := st.Retrieve(key, dst); !ok || err != nil {
				t.Fatalf("Retrieve %s: ok=%v err=%v", key, ok, err)
			}
			got, err := os.ReadFile(dst)
			if err != nil || sha256.Sum256(got) != sum {
				t.Fatalf("Retrieve %s: wrong bytes (%v)", key, err)
			}
		}
	}
}
