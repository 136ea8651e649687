// Package store is a crash-safe, content-addressed artifact store for
// generated graph parts. Because a TrillionG part is a pure function of
// (configuration, master seed, vertex range, format), the same bytes
// are regenerated by every requeued lease, resumed run and repeated
// server job; the store turns those regenerations into lookups.
//
// Keys are a SHA-256 digest over the canonical description of what a
// part *is* (config fingerprint, master seed, range, format, codec
// version), so a key collision means "identical bytes" by construction
// and entries are shared freely between the single-machine resume path,
// distributed workers and the HTTP service.
//
// On disk the store is a flat object tree:
//
//	root/
//	  objects/<dd>/<digest>.part    payload
//	  objects/<dd>/<digest>.sum     sidecar: {sha256, size, edges, codec}
//	  objects/<dd>/<digest>.pin     persistent pin marker (optional)
//
// The tree is a DirBackend, the same one a directory cold tier is:
// every write is its commit (staged temp, fsync, rename, directory
// fsync), so an object either exists completely or not at all, and
// Open runs its crash recovery. Every read re-hashes the payload
// against the sidecar, so a corrupted object is detected, evicted and
// reported as a miss (the caller regenerates; the store self-heals).
//
// Capacity is a byte budget enforced by LRU eviction. Entries that are
// mid-retrieve (in-flight) or pinned (a .pin marker, set by the gcache
// CLI) are never evicted.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/pressure"
	"repro/internal/telemetry"
)

// CodecVersion is the store's on-disk layout version; it participates
// in every key, so a layout change invalidates old entries instead of
// misreading them.
const CodecVersion = 1

// Metric names the store publishes into the registry handed to Open
// (docs/OBSERVABILITY.md is the catalog).
const (
	MetricHits           = "store.hits_total"
	MetricMisses         = "store.misses_total"
	MetricBytesSaved     = "store.bytes_saved_total"
	MetricVerifyFailures = "store.verify_failures_total"
	MetricEvictions      = "store.evictions_total"
	MetricIngests        = "store.ingests_total"
	MetricObjects        = "store.objects"
	MetricBytes          = "store.bytes"
	MetricBudget         = "store.budget_effective_bytes"

	// Tier metrics, published only when a remote Backend is attached.
	MetricDemotions           = "store.demotions_total"
	MetricDemoteFailures      = "store.demote_failures_total"
	MetricPromotions          = "store.promotions_total"
	MetricRemoteHits          = "store.remote.hits_total"
	MetricRemoteMisses        = "store.remote.misses_total"
	MetricRemoteVerifyFailure = "store.remote.verify_failures_total"
)

// KeyInput is the canonical description a key digests. Codec is the
// caller's encoding version (e.g. core.CacheCodecVersion), so a change
// to how parts are generated or encoded retires stale entries.
type KeyInput struct {
	ConfigFingerprint string
	MasterSeed        uint64
	Lo, Hi            int64
	Format            string
	Codec             int
}

// Key addresses one artifact. The zero Key is invalid.
type Key struct{ digest string }

// DeriveKey digests the canonical description into a key.
func DeriveKey(in KeyInput) Key {
	h := sha256.New()
	fmt.Fprintf(h, "trilliong-store/v%d\ncodec=%d\nconfig=%s\nmaster_seed=%d\nrange=[%d,%d)\nformat=%s\n",
		CodecVersion, in.Codec, in.ConfigFingerprint, in.MasterSeed, in.Lo, in.Hi, in.Format)
	return Key{digest: hex.EncodeToString(h.Sum(nil))}
}

// ParseKey accepts a digest string (as printed by Key.String or the
// gcache CLI) back into a Key.
func ParseKey(s string) (Key, error) {
	if len(s) != sha256.Size*2 {
		return Key{}, fmt.Errorf("store: key %q is not a %d-char hex digest", s, sha256.Size*2)
	}
	if _, err := hex.DecodeString(s); err != nil {
		return Key{}, fmt.Errorf("store: key %q: %w", s, err)
	}
	return Key{digest: strings.ToLower(s)}, nil
}

// String returns the hex digest.
func (k Key) String() string { return k.digest }

// IsZero reports whether the key is unset.
func (k Key) IsZero() bool { return k.digest == "" }

// Sidecar is the checksum record written next to each payload — on
// disk locally, and as the ".sum" object in a Backend. It is what
// makes an object verifiable wherever it lives.
type Sidecar struct {
	Schema string `json:"schema"`
	SHA256 string `json:"sha256"`
	Size   int64  `json:"size"`
	Edges  int64  `json:"edges"`
	Codec  int    `json:"codec"`
}

// sidecarSchema identifies the sidecar layout.
const sidecarSchema = "trilliong-store/v1"

// Info describes one stored artifact.
type Info struct {
	Key    Key
	Size   int64
	Edges  int64
	Pinned bool
}

// Options configures Open.
type Options struct {
	// MaxBytes is the payload byte budget; ingesting past it evicts
	// least-recently-used unpinned entries (0 = unlimited).
	MaxBytes int64
	// Telemetry receives the store.* metrics (nil = private registry).
	Telemetry *telemetry.Registry
	// Remote attaches a cold tier: eviction demotes entries into it
	// instead of deleting them, and Retrieve falls through to it on a
	// local miss (promoting hits back into the hot tier). nil keeps the
	// store single-tier.
	Remote Backend
}

// entry is the in-memory index record of one object.
type entry struct {
	digest string
	size   int64
	edges  int64
	seq    uint64 // LRU clock: larger = more recently used
	inUse  int    // in-flight readers; eviction waits them out
	pinned bool   // persistent .pin marker
	remote bool   // known present in the cold tier (demote is a no-op)
}

// Store is one artifact store rooted at a directory. All methods are
// safe for concurrent use.
type Store struct {
	root     string
	hot      *DirBackend // the object tree under root/objects
	maxBytes int64
	tel      *telemetry.Registry
	remote   Backend

	hits, misses, ingests, evictions *telemetry.Counter
	verifyFails, bytesSaved          *telemetry.Counter

	// Tier counters (allocated only when remote != nil).
	demotions, demoteFails   *telemetry.Counter
	promotions               *telemetry.Counter
	remoteHits, remoteMisses *telemetry.Counter
	remoteVerifyFails        *telemetry.Counter

	mu      sync.Mutex
	entries map[string]*entry
	clock   uint64
	total   int64 // payload bytes of live entries
	// level is the host-pressure level the budget is scaled by
	// (SetPressureLevel); cached artifacts are the cheapest thing to
	// give back when the disk fills — they can always be regenerated.
	level pressure.Level

	// verifySnapshotted, when set (by tests only), runs in VerifyAll
	// between the listing snapshot and the first hash.
	verifySnapshotted func()
}

// Open opens (creating if needed) the store rooted at dir: the object
// tree is recovered from any crash (DirBackend) and scanned into the
// index in the same walk.
func Open(dir string, opts Options) (*Store, error) {
	tel := opts.Telemetry
	if tel == nil {
		tel = telemetry.NewRegistry()
	}
	s := &Store{
		root:        dir,
		maxBytes:    opts.MaxBytes,
		tel:         tel,
		remote:      opts.Remote,
		hits:        tel.Counter(MetricHits),
		misses:      tel.Counter(MetricMisses),
		ingests:     tel.Counter(MetricIngests),
		evictions:   tel.Counter(MetricEvictions),
		verifyFails: tel.Counter(MetricVerifyFailures),
		bytesSaved:  tel.Counter(MetricBytesSaved),
		entries:     make(map[string]*entry),
	}
	if s.remote != nil {
		s.demotions = tel.Counter(MetricDemotions)
		s.demoteFails = tel.Counter(MetricDemoteFailures)
		s.promotions = tel.Counter(MetricPromotions)
		s.remoteHits = tel.Counter(MetricRemoteHits)
		s.remoteMisses = tel.Counter(MetricRemoteMisses)
		s.remoteVerifyFails = tel.Counter(MetricRemoteVerifyFailure)
	}
	s.hot = &DirBackend{root: filepath.Join(dir, "objects")}
	if err := os.MkdirAll(s.hot.root, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := s.scan(); err != nil {
		return nil, err
	}
	tel.GaugeFunc(MetricObjects, func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.entries))
	})
	tel.GaugeFunc(MetricBytes, func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.total)
	})
	tel.GaugeFunc(MetricBudget, func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.effectiveBudgetLocked())
	})
	return s, nil
}

// SetPressureLevel scales the byte budget with host pressure: the full
// MaxBytes at ok, 3/4 at elevated, 1/2 at critical. Tightening evicts
// immediately (LRU, skipping pinned and in-flight entries as always);
// loosening just restores headroom. A store with no configured budget
// is unaffected. Wire it via pressure.Controller.OnChange.
func (s *Store) SetPressureLevel(lvl pressure.Level) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.level = lvl
	s.evictLocked(s.effectiveBudgetLocked())
}

// effectiveBudgetLocked is the pressure-scaled byte budget
// (0 = unlimited). Caller holds mu.
func (s *Store) effectiveBudgetLocked() int64 {
	b := s.maxBytes
	if b <= 0 {
		return 0
	}
	switch s.level {
	case pressure.Elevated:
		b = b / 4 * 3
	case pressure.Critical:
		b = b / 2
	}
	if b < 1 {
		b = 1
	}
	return b
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.root }

// pinPath is where key's pin marker lives: beside its object, in a
// file of the Store's own that the tree's recovery leaves alone.
func (s *Store) pinPath(key Key) string { return s.hot.path(key, ".pin") }

// scan builds the index from the tree's recovery walk. Initial LRU
// order is payload mtime, so a reopened store evicts oldest-written
// first until real access recency accumulates.
func (s *Store) scan() error {
	type found struct {
		e     *entry
		mtime int64
	}
	var all []found
	err := s.hot.recover(func(key Key, side Sidecar, payload fs.FileInfo) {
		_, pinErr := os.Stat(s.pinPath(key))
		all = append(all, found{
			e:     &entry{digest: key.digest, size: side.Size, edges: side.Edges, pinned: pinErr == nil},
			mtime: payload.ModTime().UnixNano(),
		})
	})
	if err != nil {
		return fmt.Errorf("store: scanning objects: %w", err)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].mtime < all[j].mtime })
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, f := range all {
		s.clock++
		f.e.seq = s.clock
		s.entries[f.e.digest] = f.e
		s.total += f.e.size
	}
	return nil
}

// digester hashes and counts what is written to it: every read of an
// object checks the bytes against the sidecar through one.
type digester struct {
	h hash.Hash
	n int64
}

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) Write(p []byte) (int, error) {
	d.n += int64(len(p))
	return d.h.Write(p)
}

// matches reports whether the bytes written are the ones side records.
func (d *digester) matches(side Sidecar) bool {
	return d.n == side.Size && hex.EncodeToString(d.h.Sum(nil)) == side.SHA256
}

// IngestFile copies the file at src into the store under key, hashing
// it on the way. edges is recorded as artifact metadata (callers that
// don't track it pass 0). Ingesting a key that is already present
// refreshes its recency and returns nil — content-addressing guarantees
// the bytes match.
func (s *Store) IngestFile(key Key, src string, edges int64) error {
	return s.ingest(key, src, edges, nil, 0)
}

// IngestDigest is IngestFile for a caller that hashed the bytes as it
// produced them: sum is their SHA-256 and size their count, and the
// sidecar records exactly that — the digest of what the producer meant
// to write, not of what a read-back of src finds. src is therefore not
// read into user space at all: the store stages its copy file to file
// (in the kernel; a reflink where the filesystem has one), and only
// insists that the copy is size bytes long. A copy that differs from
// its digest is caught where a rotted object is: by Retrieve's
// verify-on-hit and by VerifyAll.
func (s *Store) IngestDigest(key Key, src string, sum []byte, size, edges int64) error {
	if len(sum) != sha256.Size {
		return fmt.Errorf("store: ingest: digest of %d bytes is not a SHA-256", len(sum))
	}
	return s.ingest(key, src, edges, sum, size)
}

// ingest stages a durable copy of src and commits it as key's object.
// With sum == nil the copy is hashed as it is made; otherwise it must
// be size bytes long and sum is taken on trust.
func (s *Store) ingest(key Key, src string, edges int64, sum []byte, size int64) error {
	if key.IsZero() {
		return fmt.Errorf("store: ingest with zero key")
	}
	s.mu.Lock()
	if e, ok := s.entries[key.digest]; ok {
		s.clock++
		e.seq = s.clock
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()

	in, err := os.Open(src)
	if err != nil {
		return fmt.Errorf("store: ingest: %w", err)
	}
	defer in.Close()
	err = s.hot.write(key, func(tmp *os.File) (Sidecar, error) {
		var err error
		if sum == nil {
			h := sha256.New()
			size, err = io.Copy(io.MultiWriter(tmp, h), in)
			sum = h.Sum(nil)
		} else {
			var copied int64
			// *os.File to *os.File: copy_file_range, no user-space buffer.
			if copied, err = io.Copy(tmp, in); err == nil && copied != size {
				err = fmt.Errorf("copied %d bytes of %s, its writer hashed %d", copied, src, size)
			}
		}
		return Sidecar{Schema: sidecarSchema, SHA256: hex.EncodeToString(sum), Size: size, Edges: edges, Codec: CodecVersion}, err
	})
	if err != nil {
		return fmt.Errorf("store: ingest: %w", err)
	}

	s.mu.Lock()
	if _, ok := s.entries[key.digest]; !ok {
		s.clock++
		s.entries[key.digest] = &entry{digest: key.digest, size: size, edges: edges, seq: s.clock}
		s.total += size
		s.ingests.Inc()
	}
	s.evictLocked(s.effectiveBudgetLocked())
	s.mu.Unlock()
	return nil
}

// Retrieve materializes key's artifact at dst (atomically: temp +
// rename), verifying the payload against its checksum sidecar on the
// way. It reports a hit; a missing key or a corrupted object (which is
// evicted) is a miss with a nil error, so callers fall back to
// regeneration. With a remote backend attached, a local miss — or a
// corrupt local object, after its eviction — falls through to the cold
// tier: the object is downloaded, verified, promoted into the hot tier
// and served from there, so self-healing spans both tiers. The error
// return is reserved for real local I/O failures; a remote outage
// degrades to a miss (the transport's own store.remote.* counters
// record it) because the caller can always regenerate.
func (s *Store) Retrieve(key Key, dst string) (Info, bool, error) {
	s.mu.Lock()
	e, ok := s.entries[key.digest]
	if !ok {
		s.mu.Unlock()
		return s.retrieveRemote(key, dst)
	}
	// In-flight pin: eviction and concurrent corruption-removal skip
	// entries with readers.
	e.inUse++
	s.clock++
	e.seq = s.clock
	s.mu.Unlock()

	okHash, err := s.copyVerified(key, dst)
	s.mu.Lock()
	e.inUse--
	s.mu.Unlock()
	if err != nil {
		return Info{}, false, err
	}
	if !okHash {
		// Checksum mismatch: the object is damaged. Evict it so the
		// regenerated (or re-promoted) part can be re-ingested cleanly.
		s.verifyFails.Inc()
		s.removeObject(key)
		return s.retrieveRemote(key, dst)
	}
	s.hits.Inc()
	s.bytesSaved.Add(e.size)
	return Info{Key: key, Size: e.size, Edges: e.edges, Pinned: e.pinned}, true, nil
}

// retrieveRemote is Retrieve's cold half: fetch, verify, promote,
// serve. Without a backend it is simply the miss path.
func (s *Store) retrieveRemote(key Key, dst string) (Info, bool, error) {
	if s.remote == nil {
		s.misses.Inc()
		return Info{}, false, nil
	}
	e, err := s.promote(key)
	if err != nil {
		return Info{}, false, err
	}
	if e == nil {
		s.misses.Inc()
		return Info{}, false, nil
	}
	okHash, err := s.copyVerified(key, dst)
	s.mu.Lock()
	e.inUse--
	s.mu.Unlock()
	if err != nil {
		return Info{}, false, err
	}
	if !okHash {
		// The just-promoted copy failed its read-back: local damage.
		s.verifyFails.Inc()
		s.misses.Inc()
		s.removeObject(key)
		return Info{}, false, nil
	}
	s.remoteHits.Inc()
	s.bytesSaved.Add(e.size)
	return Info{Key: key, Size: e.size, Edges: e.edges, Pinned: e.pinned}, true, nil
}

// Has reports whether key is present, without touching hit/miss
// counters or recency.
func (s *Store) Has(key Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[key.digest]
	return ok
}

// copyVerified streams key's payload into dst while hashing, then
// atomically renames dst into place only when the bytes match the
// sidecar. A payload or sidecar that vanished under us (external
// tampering) is corruption, not an I/O error, so the caller
// regenerates.
func (s *Store) copyVerified(key Key, dst string) (bool, error) {
	tmp, err := os.CreateTemp(filepath.Dir(dst), ".store-fetch-*")
	if err != nil {
		return false, fmt.Errorf("store: retrieve: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName)
	d := newDigester()
	side, ok, err := s.hot.Get(key, io.MultiWriter(tmp, d))
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return false, fmt.Errorf("store: retrieve: %w", err)
	}
	if !ok || !d.matches(side) {
		return false, nil
	}
	if err := os.Rename(tmpName, dst); err != nil {
		return false, fmt.Errorf("store: retrieve: %w", err)
	}
	if err := syncDir(filepath.Dir(dst)); err != nil {
		return false, fmt.Errorf("store: retrieve: %w", err)
	}
	return true, nil
}

// removeObject deletes an object's files and index entry (used for
// corruption eviction and GC). In-flight readers finish their streams
// on the open file handles.
func (s *Store) removeObject(key Key) {
	s.mu.Lock()
	if e, ok := s.entries[key.digest]; ok {
		delete(s.entries, key.digest)
		s.total -= e.size
	}
	s.mu.Unlock()
	s.removeFiles(key)
}

// removeFiles deletes key's object from the tree, then its pin.
func (s *Store) removeFiles(key Key) {
	s.hot.Delete(key)
	os.Remove(s.pinPath(key))
}

// evictLocked drops least-recently-used unpinned, idle entries until
// the payload total fits budget (<= 0 = no budget). With a remote
// backend attached, an entry not yet present in the cold tier is
// demoted — uploaded — before its local files go away; an entry whose
// demotion fails is skipped, so making room can never lose the only
// copy of an artifact. Caller holds mu; the lock is dropped around
// demotion uploads (the victim is reader-pinned meanwhile) and the
// loop re-reads all shared state after relocking.
func (s *Store) evictLocked(budget int64) (removed int, freed int64) {
	if budget <= 0 {
		return 0, 0
	}
	var skip map[string]bool
	for s.total > budget {
		var victim *entry
		for _, e := range s.entries {
			if e.pinned || e.inUse > 0 || skip[e.digest] {
				continue
			}
			if victim == nil || e.seq < victim.seq {
				victim = e
			}
		}
		if victim == nil {
			// Everything left is pinned, mid-read, or undemotable.
			return removed, freed
		}
		if s.remote != nil && !victim.remote {
			victim.inUse++
			s.mu.Unlock()
			err := s.demote(Key{digest: victim.digest})
			s.mu.Lock()
			victim.inUse--
			if err != nil {
				s.demoteFails.Inc()
				if skip == nil {
					skip = make(map[string]bool)
				}
				skip[victim.digest] = true
				continue
			}
			victim.remote = true
			s.demotions.Inc()
			if _, still := s.entries[victim.digest]; !still {
				continue // deleted while we were uploading
			}
			if victim.pinned || victim.inUse > 0 {
				continue // state moved under us; pick again
			}
		}
		delete(s.entries, victim.digest)
		s.total -= victim.size
		freed += victim.size
		removed++
		s.evictions.Inc()
		s.removeFiles(Key{digest: victim.digest})
	}
	return removed, freed
}

// demote uploads one local object into the cold tier. Called without
// mu held; the caller holds a reader pin so the files cannot vanish
// mid-upload. A Head that finds the object already cold (an earlier
// demotion, or another replica sharing the bucket) skips the upload.
func (s *Store) demote(key Key) error {
	if _, ok, err := s.remote.Head(key); err == nil && ok {
		return nil
	}
	side, ok, err := s.hot.Head(key)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("store: demote: no sidecar for %s", key)
	}
	f, err := os.Open(s.hot.path(key, PayloadSuffix))
	if err != nil {
		return err
	}
	defer f.Close()
	return s.remote.Put(key, f, side)
}

// GC evicts LRU entries until the store's payload bytes fit target
// (0 = the store's configured budget, scaled by the current pressure
// level).
func (s *Store) GC(target int64) (removed int, freed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if target <= 0 {
		target = s.effectiveBudgetLocked()
	}
	return s.evictLocked(target)
}

// Delete removes one artifact regardless of recency (pins are removed
// with it). With a remote backend attached the cold copy goes too —
// Delete means "forget this artifact", unlike eviction, which only
// moves it down a tier.
func (s *Store) Delete(key Key) {
	s.removeObject(key)
	if s.remote != nil {
		s.remote.Delete(key)
	}
}

// Pin marks key's artifact as never-evict, durably (a .pin marker file
// survives reopening the store).
func (s *Store) Pin(key Key) error {
	s.mu.Lock()
	e, ok := s.entries[key.digest]
	if ok {
		e.pinned = true
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("store: pin: no object %s", key)
	}
	f, err := os.Create(s.pinPath(key))
	if err != nil {
		return fmt.Errorf("store: pin: %w", err)
	}
	return f.Close()
}

// Unpin removes key's pin marker, making it evictable again.
func (s *Store) Unpin(key Key) error {
	s.mu.Lock()
	e, ok := s.entries[key.digest]
	if ok {
		e.pinned = false
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("store: unpin: no object %s", key)
	}
	if err := os.Remove(s.pinPath(key)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: unpin: %w", err)
	}
	return nil
}

// List snapshots every stored artifact, sorted by digest.
func (s *Store) List() []Info {
	s.mu.Lock()
	out := make([]Info, 0, len(s.entries))
	for _, e := range s.entries {
		out = append(out, Info{Key: Key{digest: e.digest}, Size: e.size, Edges: e.edges, Pinned: e.pinned})
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key.digest < out[j].Key.digest })
	return out
}

// VerifyAll re-hashes every payload against its sidecar, evicting (and
// returning) the corrupt ones. The listing is a one-time snapshot and
// hashing runs on a bounded worker pool (mirroring core.MissingParts),
// so a multi-gigabyte store verifies at disk speed, not one file at a
// time. An entry deleted or evicted by a concurrent caller mid-scan is
// skipped, not reported corrupt — only objects the index still owns
// can be damaged. On a read error the scan still finishes; the first
// error is returned alongside whatever it found.
func (s *Store) VerifyAll() (checked int, corrupt []Key, err error) {
	infos := s.List()
	if s.verifySnapshotted != nil {
		s.verifySnapshotted()
	}
	bad := make([]bool, len(infos))
	errs := make([]error, len(infos))
	verify := func(i int) {
		okHash, verr := s.verifyOne(infos[i].Key)
		if verr != nil {
			errs[i] = verr
			return
		}
		if okHash {
			return
		}
		// A failed hash of an entry the index no longer holds means it
		// was deleted mid-scan, not that it is corrupt.
		s.mu.Lock()
		_, live := s.entries[infos[i].Key.digest]
		s.mu.Unlock()
		bad[i] = live
	}
	if workers := min(runtime.GOMAXPROCS(0), len(infos)); workers > 1 {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					k := int(next.Add(1)) - 1
					if k >= len(infos) {
						return
					}
					verify(k)
				}
			}()
		}
		wg.Wait()
	} else {
		for i := range infos {
			verify(i)
		}
	}
	for i := range infos {
		checked++
		if errs[i] != nil && err == nil {
			err = errs[i]
		}
		if bad[i] {
			s.verifyFails.Inc()
			s.removeObject(infos[i].Key)
			corrupt = append(corrupt, infos[i].Key)
		}
	}
	return checked, corrupt, err
}

// verifyOne re-hashes one payload in place. A torn sidecar or a
// vanished payload is corrupt.
func (s *Store) verifyOne(key Key) (bool, error) {
	d := newDigester()
	side, ok, err := s.hot.Get(key, d)
	if err != nil {
		return false, fmt.Errorf("store: verify %s: %w", key, err)
	}
	return ok && d.matches(side), nil
}

// Stats is a point-in-time store summary.
type Stats struct {
	Objects        int   `json:"objects"`
	Bytes          int64 `json:"bytes"`
	MaxBytes       int64 `json:"max_bytes"`
	Hits           int64 `json:"hits"`
	Misses         int64 `json:"misses"`
	Ingests        int64 `json:"ingests"`
	Evictions      int64 `json:"evictions"`
	VerifyFailures int64 `json:"verify_failures"`
	BytesSaved     int64 `json:"bytes_saved"`
}

// Stats summarizes the store. Counter fields cover this process's
// lifetime (they restart at zero with the process, as all telemetry
// counters do); Objects/Bytes reflect the disk state.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	objects, bytes := len(s.entries), s.total
	s.mu.Unlock()
	return Stats{
		Objects:        objects,
		Bytes:          bytes,
		MaxBytes:       s.maxBytes,
		Hits:           s.hits.Value(),
		Misses:         s.misses.Value(),
		Ingests:        s.ingests.Value(),
		Evictions:      s.evictions.Value(),
		VerifyFailures: s.verifyFails.Value(),
		BytesSaved:     s.bytesSaved.Value(),
	}
}

// CorruptForTest overwrites key's stored payload with garbage of the
// same length, leaving the sidecar intact — the disk state an
// undetected bit-flip or torn write produces. Tests use it to exercise
// the verify-evict-regenerate path.
func (s *Store) CorruptForTest(key Key) error {
	s.mu.Lock()
	e, ok := s.entries[key.digest]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("store: no object %s to corrupt", key)
	}
	// In place: the object's files are the tree's to create and remove.
	f, err := os.OpenFile(s.hot.path(key, PayloadSuffix), os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	_, err = f.Write(bytes.Repeat([]byte{0xA5}, int(e.size)))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
