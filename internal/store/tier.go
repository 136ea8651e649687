package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"time"
)

// Remote returns the attached cold-tier backend (nil for a single-tier
// store).
func (s *Store) Remote() Backend { return s.remote }

// promote downloads key's object from the cold tier and installs it in
// the hot tier with the usual temp/rename/dir-fsync discipline. On
// success it returns the entry with a reader pin held (the caller
// releases it). nil entry with nil error means the backend does not
// have the object, the transport failed (degrade to miss — callers
// regenerate), or the payload failed verification; a corrupt cold
// object is deleted so a future demotion re-uploads clean bytes.
func (s *Store) promote(key Key) (*entry, error) {
	tmp, err := os.CreateTemp(s.tmpDir(), "promote-*")
	if err != nil {
		return nil, fmt.Errorf("store: promote: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName)
	h := sha256.New()
	side, ok, gerr := s.remote.Get(key, io.MultiWriter(tmp, h))
	err = tmp.Sync()
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if gerr != nil || !ok {
		s.remoteMisses.Inc()
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: promote: %w", err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); side.SHA256 != got {
		// The cold copy is damaged: self-heal by deleting it. The next
		// eviction of a regenerated hot copy re-uploads clean bytes.
		s.remoteVerifyFails.Inc()
		s.remote.Delete(key)
		return nil, nil
	}
	st, err := os.Stat(tmpName)
	if err != nil || st.Size() != side.Size {
		s.remoteVerifyFails.Inc()
		s.remote.Delete(key)
		return nil, nil
	}

	// The same commit as an ingest's, in the same crash order.
	if err := s.install(key.digest, tmpName, side); err != nil {
		return nil, fmt.Errorf("store: promote: %w", err)
	}

	s.mu.Lock()
	e, exists := s.entries[key.digest]
	if !exists {
		s.clock++
		e = &entry{digest: key.digest, size: side.Size, edges: side.Edges, seq: s.clock, remote: true}
		s.entries[key.digest] = e
		s.total += side.Size
		s.promotions.Inc()
	} else {
		e.remote = true
	}
	e.inUse++
	s.clock++
	e.seq = s.clock
	s.evictLocked(s.effectiveBudgetLocked())
	s.mu.Unlock()
	return e, nil
}

// Push uploads key's local object into the cold tier without evicting
// it — an explicit demotion (gcache push, warm-up of a fresh bucket).
func (s *Store) Push(key Key) error {
	if s.remote == nil {
		return fmt.Errorf("store: push: no remote backend attached")
	}
	s.mu.Lock()
	e, ok := s.entries[key.digest]
	if ok {
		e.inUse++
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("store: push: no local object %s", key)
	}
	err := s.demote(key.digest)
	s.mu.Lock()
	e.inUse--
	if err == nil {
		e.remote = true
	}
	s.mu.Unlock()
	if err != nil {
		s.demoteFails.Inc()
		return fmt.Errorf("store: push %s: %w", key, err)
	}
	s.demotions.Inc()
	return nil
}

// PushAll pushes every local object, stopping at the first failure.
func (s *Store) PushAll() (pushed int, err error) {
	if s.remote == nil {
		return 0, fmt.Errorf("store: push: no remote backend attached")
	}
	for _, info := range s.List() {
		if err := s.Push(info.Key); err != nil {
			return pushed, err
		}
		pushed++
	}
	return pushed, nil
}

// Pull promotes key's object from the cold tier into the hot tier (a
// no-op hit when it is already local). ok=false means neither tier has
// it.
func (s *Store) Pull(key Key) (Info, bool, error) {
	s.mu.Lock()
	e, ok := s.entries[key.digest]
	if ok {
		info := Info{Key: key, Size: e.size, Edges: e.edges, Pinned: e.pinned}
		s.mu.Unlock()
		return info, true, nil
	}
	s.mu.Unlock()
	if s.remote == nil {
		return Info{}, false, nil
	}
	e, err := s.promote(key)
	if err != nil {
		return Info{}, false, err
	}
	if e == nil {
		return Info{}, false, nil
	}
	s.mu.Lock()
	e.inUse--
	info := Info{Key: key, Size: e.size, Edges: e.edges, Pinned: e.pinned}
	s.mu.Unlock()
	s.remoteHits.Inc()
	return info, true, nil
}

// Location reports which tiers hold key. The local answer is an index
// lookup; the remote one is a backend Head (with the per-entry cache
// consulted first, so a hot entry already known cold costs nothing).
func (s *Store) Location(key Key) (local, remote bool, err error) {
	s.mu.Lock()
	e, ok := s.entries[key.digest]
	if ok {
		local = true
		remote = e.remote
	}
	s.mu.Unlock()
	if s.remote == nil || remote {
		return local, remote, nil
	}
	_, remote, err = s.remote.Head(key)
	if err != nil {
		return local, false, err
	}
	if remote && ok {
		s.mu.Lock()
		if e2, still := s.entries[key.digest]; still {
			e2.remote = true
		}
		s.mu.Unlock()
	}
	return local, remote, nil
}

// PresignGet mints a time-limited direct-download URL for key's cold
// copy. ok=false (nil error) when the store has no remote, the backend
// cannot presign, or the object is not in the cold tier — callers fall
// back to streaming it themselves.
func (s *Store) PresignGet(key Key, ttl time.Duration) (url string, ok bool, err error) {
	p, can := s.remote.(Presigner)
	if !can {
		return "", false, nil
	}
	_, cold, err := s.Location(key)
	if err != nil || !cold {
		return "", false, err
	}
	url, err = p.PresignGet(key, ttl)
	if err != nil {
		return "", false, err
	}
	return url, true, nil
}

// RemoteList snapshots the cold tier's objects, sorted by key.
func (s *Store) RemoteList() ([]BackendEntry, error) {
	if s.remote == nil {
		return nil, nil
	}
	return s.remote.List()
}

// VerifyRemote re-downloads and re-hashes every cold object against
// its sidecar, deleting (and returning) the corrupt ones — VerifyAll's
// cold-tier sibling. It transfers every payload; run it as deliberately
// as you would a bucket audit.
func (s *Store) VerifyRemote() (checked int, corrupt []Key, err error) {
	if s.remote == nil {
		return 0, nil, nil
	}
	entries, err := s.remote.List()
	if err != nil {
		return 0, nil, err
	}
	for _, be := range entries {
		checked++
		h := sha256.New()
		side, ok, err := s.remote.Get(be.Key, h)
		if err != nil {
			return checked, corrupt, err
		}
		if !ok {
			continue // deleted mid-scan
		}
		if hex.EncodeToString(h.Sum(nil)) != side.SHA256 {
			s.remoteVerifyFails.Inc()
			s.remote.Delete(be.Key)
			corrupt = append(corrupt, be.Key)
		}
	}
	return checked, corrupt, nil
}
