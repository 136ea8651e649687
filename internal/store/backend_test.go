package store

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDirBackendRecoversStaleLitter is the cold tier's twin of
// TestOpenSweepsTmpAndDiscardsTornObjects: NewDirBackend runs the same
// recovery over a bucket, so crash litter goes, a peer's commit in
// flight stays, and List shows only the committed object.
func TestDirBackendRecoversStaleLitter(t *testing.T) {
	root := filepath.Join(t.TempDir(), "cold")
	d, err := NewDirBackend(root)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, 0)
	if err := d.Put(key, strings.NewReader("good"), Sidecar{
		Schema: sidecarSchema, SHA256: strings.Repeat("0", 64), Size: 4, Codec: CodecVersion,
	}); err != nil {
		t.Fatal(err)
	}
	gone, kept := plantLitter(t, root)

	if _, err := NewDirBackend(root); err != nil {
		t.Fatal(err)
	}
	assertRecovered(t, gone, kept)
	listed, err := d.List()
	if err != nil || len(listed) != 1 || listed[0].Key != key {
		t.Fatalf("List = %+v, %v; want just %s", listed, err, key)
	}
}

// TestHotTierIsADirBackend pins the one layout: a store's objects/
// directory opened as a DirBackend lists the store's keys with the
// sidecars it wrote, objects a DirBackend puts there are the store's
// after a reopen, and the sidecar bytes of a fixed payload are a
// literal.
func TestHotTierIsADirBackend(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, filepath.Join(dir, "store"), Options{})
	payload := []byte("0\t1\n0\t2\n7\t3\n")
	src := writeSrc(t, dir, "part.tsv", payload)
	for i := 0; i < 4; i++ {
		if err := s.IngestFile(testKey(t, i), src, 3); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Pin(testKey(t, 0)); err != nil { // a pin is not an object
		t.Fatal(err)
	}

	const wantSum = `{"schema":"trilliong-store/v1",` +
		`"sha256":"c7f027e5de8bcd662d6f4daa57860bd2a73a1aaf833880495e2526932910e747",` +
		`"size":12,"edges":3,"codec":1}` + "\n"
	k := testKey(t, 0).String()
	raw, err := os.ReadFile(filepath.Join(s.Dir(), "objects", k[:2], k+".sum"))
	if err != nil || string(raw) != wantSum {
		t.Fatalf("sidecar bytes %q, %v; want %q", raw, err, wantSum)
	}
	want, err := ParseSidecar([]byte(wantSum))
	if err != nil {
		t.Fatal(err)
	}

	d, err := NewDirBackend(filepath.Join(s.Dir(), "objects"))
	if err != nil {
		t.Fatal(err)
	}
	listed, err := d.List()
	if err != nil {
		t.Fatal(err)
	}
	infos := s.List()
	if len(listed) != len(infos) {
		t.Fatalf("DirBackend lists %d objects, the store %d", len(listed), len(infos))
	}
	for i, be := range listed {
		if be.Key != infos[i].Key || be.Side != want {
			t.Fatalf("listed %s %+v, store has %s with sidecar %+v", be.Key, be.Side, infos[i].Key, want)
		}
		var got bytes.Buffer
		if side, ok, err := d.Get(be.Key, &got); !ok || err != nil || side != want || !bytes.Equal(got.Bytes(), payload) {
			t.Fatalf("Get %s: %+v %v %v, %q", be.Key, side, ok, err, got.Bytes())
		}
	}

	put := testKey(t, 9)
	if err := d.Put(put, bytes.NewReader(payload), want); err != nil {
		t.Fatal(err)
	}
	reopened := mustOpen(t, s.Dir(), Options{})
	if info, ok, err := reopened.Retrieve(put, filepath.Join(dir, "out")); !ok || err != nil || info.Edges != 3 {
		t.Fatalf("a DirBackend's Put is not the store's object: %+v %v %v", info, ok, err)
	}
}

var lowerHex64 = regexp.MustCompile(`^[0-9a-f]{64}$`)

// FuzzParseSidecar: no input panics the sidecar parser or the object
// name parser; an accepted sidecar is well-formed and survives Encode;
// object names round-trip through KeyFromObjectName.
func FuzzParseSidecar(f *testing.F) {
	f.Add(Sidecar{Schema: sidecarSchema, SHA256: strings.Repeat("c7", 32), Size: 12, Edges: 3, Codec: 1}.Encode(), "c7/"+strings.Repeat("c7", 32)+".sum")
	f.Add([]byte(`{"schema":"trilliong-store/v1","sha256":"`+strings.Repeat("AB", 32)+`","size":1,"edges":-5}`), strings.Repeat("AB", 32)+".part")
	f.Add([]byte(`{"schema":"trilliong-store/v1","sha256":"x","size":-1}`), ".put-123")
	f.Add([]byte("{torn"), "")
	f.Fuzz(func(t *testing.T, b []byte, name string) {
		if side, err := ParseSidecar(b); err == nil {
			if !lowerHex64.MatchString(side.SHA256) || side.Size < 0 || side.Edges < 0 {
				t.Fatalf("accepted %+v", side)
			}
			again, err := ParseSidecar(side.Encode())
			if err != nil || again != side {
				t.Fatalf("Encode round trip: %+v -> %+v, %v", side, again, err)
			}
		}
		if key, suffix, ok := KeyFromObjectName(name); ok {
			obj := ObjectName(key, suffix)
			if base := name[strings.LastIndexByte(name, '/')+1:]; obj[strings.LastIndexByte(obj, '/')+1:] != base {
				t.Fatalf("%q parsed to %s%s, whose object name is %q", name, key, suffix, obj)
			}
		}
		key := DeriveKey(KeyInput{ConfigFingerprint: name})
		for _, suffix := range []string{PayloadSuffix, SidecarSuffix} {
			if k, suf, ok := KeyFromObjectName(ObjectName(key, suffix)); !ok || k != key || suf != suffix {
				t.Fatalf("ObjectName(%s, %s) parsed back to %s %s %v", key, suffix, k, suf, ok)
			}
		}
	})
}
