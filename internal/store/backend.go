package store

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Backend is a cold tier behind the local store: a flat object space
// addressed by artifact Key, holding verified payload+sidecar pairs.
// The local Store demotes evicted entries into a Backend instead of
// deleting them and falls through to it on a local miss, so a byte
// budget bounds the hot tier without ever losing data.
//
// The contract mirrors the local object discipline:
//
//   - Put uploads the payload and then its sidecar; an object without a
//     readable sidecar does not exist. Put with a key that is already
//     present overwrites with identical bytes (keys are content
//     addresses), so concurrent writers cannot conflict.
//   - Get and Head report (zero, false, nil) for an absent object;
//     errors are reserved for transport failures the caller may retry.
//   - Readers re-hash every payload against the sidecar (the Store does
//     this for Backend reads exactly as for local ones), so a backend
//     is trusted for availability, never for integrity.
//
// Implementations must be safe for concurrent use.
type Backend interface {
	// Put uploads the payload read from r (side.Size bytes) and records
	// side as the object's sidecar.
	Put(key Key, r io.Reader, side Sidecar) error
	// Get streams the object's payload into w and returns its sidecar.
	// An absent object is (Sidecar{}, false, nil), and nothing is
	// written to w.
	Get(key Key, w io.Writer) (Sidecar, bool, error)
	// Head returns the object's sidecar without transferring the
	// payload. An absent object is (Sidecar{}, false, nil).
	Head(key Key) (Sidecar, bool, error)
	// Delete removes the object; deleting an absent object is nil.
	Delete(key Key) error
	// List snapshots every stored object, sorted by key.
	List() ([]BackendEntry, error)
}

// Presigner is implemented by backends that can mint time-limited
// direct-download URLs for an object — the zero-copy delivery path:
// the server hands a client the URL and the object store serves the
// bytes.
type Presigner interface {
	PresignGet(key Key, ttl time.Duration) (string, error)
}

// BackendEntry is one object in a Backend listing.
type BackendEntry struct {
	Key  Key
	Side Sidecar
}

// ParseSidecar decodes and validates a sidecar record as stored on
// disk or in a backend object.
func ParseSidecar(b []byte) (Sidecar, error) {
	var side Sidecar
	if err := json.Unmarshal(b, &side); err != nil {
		return Sidecar{}, err
	}
	switch {
	case side.Schema != sidecarSchema:
		return Sidecar{}, fmt.Errorf("store: sidecar has schema %q", side.Schema)
	case !isDigest(side.SHA256):
		return Sidecar{}, fmt.Errorf("store: sidecar sha256 %q is not a lowercase hex SHA-256", side.SHA256)
	case side.Size < 0 || side.Edges < 0:
		return Sidecar{}, fmt.Errorf("store: sidecar has size %d and edges %d", side.Size, side.Edges)
	}
	return side, nil
}

// isDigest reports whether s is a SHA-256 in lowercase hex, the one
// spelling the store writes.
func isDigest(s string) bool {
	if len(s) != sha256.Size*2 {
		return false
	}
	for _, c := range []byte(s) {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Encode renders the sidecar in its canonical stored form (JSON, one
// trailing newline).
func (side Sidecar) Encode() []byte {
	b, err := json.Marshal(side)
	if err != nil {
		// Sidecar is a flat struct of strings and integers; Marshal
		// cannot fail on it.
		panic(err)
	}
	return append(b, '\n')
}

// ObjectSuffixes are the object-name suffixes a backend stores per
// artifact: the payload and its checksum sidecar. Remote layouts
// mirror the local objects/ tree, so a backend bucket is inspectable
// with the same eyes as a local store directory.
const (
	PayloadSuffix = ".part"
	SidecarSuffix = ".sum"
)

// ObjectName returns the backend-relative name of one of key's
// objects: "<dd>/<digest><suffix>", the same two-level fan-out the
// local tree uses.
func ObjectName(key Key, suffix string) string {
	return key.digest[:2] + "/" + key.digest + suffix
}

// KeyFromObjectName inverts ObjectName, accepting either object of a
// pair; ok is false for names that are not store objects. Only the base
// name is read, and only in the spelling ObjectName writes.
func KeyFromObjectName(name string) (key Key, suffix string, ok bool) {
	base := name[strings.LastIndexByte(name, '/')+1:]
	for _, suf := range []string{PayloadSuffix, SidecarSuffix} {
		if digest, found := strings.CutSuffix(base, suf); found && isDigest(digest) {
			return Key{digest: digest}, suf, true
		}
	}
	return Key{}, "", false
}

// DirBackend is the one implementation of the object tree: a plain
// directory of <dd>/<digest>.part payloads beside their <digest>.sum
// sidecars. It is the Store's hot tier (rooted at <root>/objects) and a
// cold tier over a mounted NFS export, a shared scratch disk or a test
// double, so both tiers share one commit and one crash recovery.
//
// A commit stages the payload as a dot-named temp in its bucket and
// moves it into place in a fixed crash order: payload fsynced, sidecar
// written and fsynced, payload renamed, sidecar renamed, bucket
// fsynced. An object without a readable sidecar does not exist, so a
// crash leaves no readable half-object — only temps and, between the
// two renames, a payload without a sidecar. Recovery (NewDirBackend,
// List and the Store's Open) discards that litter once it is
// staleAfter old, so it never touches a commit in flight in another
// process sharing the tree.
type DirBackend struct {
	root string
}

// staleAfter is how long a staging temp or a payload without a sidecar
// must have gone unwritten before recovery discards it. Anything
// younger may belong to a peer's commit still in flight.
const staleAfter = time.Hour

// Name patterns of a commit's staging temps. The leading dot keeps
// them apart from objects: no key parses from them.
const (
	payloadTemp = ".put-"
	sidecarTemp = ".sum-"
)

// NewDirBackend opens (creating if needed) a directory-backed cold
// tier rooted at dir and recovers it from any earlier crash.
func NewDirBackend(dir string) (*DirBackend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: dir backend: %w", err)
	}
	d := &DirBackend{root: dir}
	if err := d.recover(nil); err != nil {
		return nil, fmt.Errorf("store: dir backend: %w", err)
	}
	return d, nil
}

// Dir returns the backend's root directory.
func (d *DirBackend) Dir() string { return d.root }

func (d *DirBackend) path(key Key, suffix string) string {
	return filepath.Join(d.root, filepath.FromSlash(ObjectName(key, suffix)))
}

// Put implements Backend.
func (d *DirBackend) Put(key Key, r io.Reader, side Sidecar) error {
	err := d.write(key, func(f *os.File) (Sidecar, error) {
		_, err := io.Copy(f, r)
		return side, err
	})
	if err != nil {
		return fmt.Errorf("store: dir backend: %w", err)
	}
	return nil
}

// write is the one commit: fill stages key's payload into a temp in
// its bucket and returns the sidecar to record, then the pair moves
// into place in the crash order of the type comment. A fill error
// aborts it with nothing left behind. A concurrent commit of the same
// key overwrites identical bytes (keys are content addresses).
func (d *DirBackend) write(key Key, fill func(*os.File) (Sidecar, error)) error {
	bucket := filepath.Dir(d.path(key, PayloadSuffix))
	if err := os.MkdirAll(bucket, 0o755); err != nil {
		return err
	}
	var side Sidecar
	payload, err := stage(bucket, payloadTemp, func(f *os.File) (err error) {
		side, err = fill(f)
		return err
	})
	if err != nil {
		return err
	}
	defer os.Remove(payload) // no-op after the rename
	sidecar, err := stage(bucket, sidecarTemp, func(f *os.File) error {
		_, err := f.Write(side.Encode())
		return err
	})
	if err != nil {
		return err
	}
	defer os.Remove(sidecar)
	if err := os.Rename(payload, d.path(key, PayloadSuffix)); err != nil {
		return err
	}
	if err := os.Rename(sidecar, d.path(key, SidecarSuffix)); err != nil {
		return err
	}
	return syncDir(bucket)
}

// stage writes a new temp file in dir through fill, fsyncs it and
// returns its name; on failure it leaves nothing behind.
func stage(dir, prefix string, fill func(*os.File) error) (string, error) {
	f, err := os.CreateTemp(dir, prefix+"*")
	if err != nil {
		return "", err
	}
	err = fill(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
		return "", err
	}
	return f.Name(), nil
}

// syncDir fsyncs a directory so just-renamed entries survive a crash —
// the same discipline as internal/core's atomic part sinks.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// Get implements Backend.
func (d *DirBackend) Get(key Key, w io.Writer) (Sidecar, bool, error) {
	side, ok, err := d.Head(key)
	if err != nil || !ok {
		return Sidecar{}, false, err
	}
	f, err := os.Open(d.path(key, PayloadSuffix))
	if err != nil {
		if os.IsNotExist(err) {
			return Sidecar{}, false, nil
		}
		return Sidecar{}, false, fmt.Errorf("store: dir backend: %w", err)
	}
	defer f.Close()
	if _, err := io.Copy(w, f); err != nil {
		return Sidecar{}, false, fmt.Errorf("store: dir backend: %w", err)
	}
	return side, true, nil
}

// Head implements Backend.
func (d *DirBackend) Head(key Key) (Sidecar, bool, error) {
	b, err := os.ReadFile(d.path(key, SidecarSuffix))
	if err != nil {
		if os.IsNotExist(err) {
			return Sidecar{}, false, nil
		}
		return Sidecar{}, false, fmt.Errorf("store: dir backend: %w", err)
	}
	side, err := ParseSidecar(b)
	if err != nil {
		// A torn sidecar means the object does not exist yet (or was
		// damaged); either way it is not servable.
		return Sidecar{}, false, nil
	}
	return side, true, nil
}

// Delete implements Backend. The sidecar goes first, so the object
// stops existing before its payload does.
func (d *DirBackend) Delete(key Key) error {
	var errs []string
	for _, suf := range []string{SidecarSuffix, PayloadSuffix} {
		if err := os.Remove(d.path(key, suf)); err != nil && !os.IsNotExist(err) {
			errs = append(errs, err.Error())
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("store: dir backend: %s", strings.Join(errs, "; "))
	}
	return nil
}

// List implements Backend. It walks the tree as recovery does, and
// discards what recovery discards.
func (d *DirBackend) List() ([]BackendEntry, error) {
	var out []BackendEntry
	err := d.recover(func(key Key, side Sidecar, _ fs.FileInfo) {
		out = append(out, BackendEntry{Key: key, Side: side})
	})
	if err != nil {
		return nil, fmt.Errorf("store: dir backend: %w", err)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key.digest < out[j].Key.digest })
	return out, nil
}

// recover is the tree's one crash recovery and its one walk. Every
// committed object — a sidecar that parses, beside a payload of the
// size it records — is handed to found (if not nil) with the payload's
// FileInfo. A sidecar that does not parse, or whose payload is missing
// or of another size, is removed with its payload at once: a commit
// renames its sidecar last, so none in flight looks like that. Staging
// temps and payloads without a sidecar are removed only once they are
// staleAfter old. Other files (the Store's pins) are left alone.
func (d *DirBackend) recover(found func(Key, Sidecar, fs.FileInfo)) error {
	cutoff := time.Now().Add(-staleAfter)
	removeIfStale := func(path string, de fs.DirEntry) {
		if info, err := de.Info(); err == nil && info.ModTime().Before(cutoff) {
			os.Remove(path)
		}
	}
	return filepath.WalkDir(d.root, func(path string, de fs.DirEntry, err error) error {
		if err != nil || de.IsDir() {
			return err
		}
		name := de.Name()
		if strings.HasPrefix(name, payloadTemp) || strings.HasPrefix(name, sidecarTemp) {
			removeIfStale(path, de)
			return nil
		}
		key, suffix, ok := KeyFromObjectName(name)
		switch {
		case !ok:
			return nil
		case suffix == PayloadSuffix:
			if _, err := os.Lstat(d.path(key, SidecarSuffix)); os.IsNotExist(err) {
				removeIfStale(path, de)
			}
			return nil
		}
		b, err := os.ReadFile(path)
		if os.IsNotExist(err) {
			return nil // deleted under the walk
		}
		if err != nil {
			return err
		}
		side, perr := ParseSidecar(b)
		st, serr := os.Stat(d.path(key, PayloadSuffix))
		if perr != nil || serr != nil || st.Size() != side.Size {
			d.Delete(key)
			return nil
		}
		if found != nil {
			found(key, side, st)
		}
		return nil
	})
}
