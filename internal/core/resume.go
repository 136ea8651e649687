package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/faultpoint"
	"repro/internal/gformat"
	"repro/internal/partition"
)

// PartPath returns the canonical name of global part `idx` in dir:
// part-<idx>.<ext>. Single-machine runs, ResumeToDir and the
// distributed workers all agree on this layout, which is what lets a
// restarted worker recognize work it already finished.
func PartPath(dir string, format gformat.Format, idx int) string {
	return filepath.Join(dir, fmt.Sprintf("part-%05d.%s", idx, extOf(format)))
}

// MissingParts filters (ranges, ids) — parallel slices pairing each
// vertex range with its global part index — down to the pairs whose
// part file does not exist *complete* in dir. A part file under its
// final name is normally complete (the atomic sinks guarantee it under
// ordered rename), but a kill -9 on a filesystem without that ordering
// or external corruption can leave a damaged file there, so each
// present part is structurally verified with CheckPart; failures are
// deleted and re-listed as missing. This is the resume-skip logic
// shared by ResumeToDir, the distributed worker, and the masterless
// swarm's completion scans. The swarm scans repeatedly on a hot path,
// so verification of present parts runs on a bounded worker pool; the
// result slices stay in input order regardless.
func MissingParts(dir string, format gformat.Format, ranges []partition.Range, ids []int) (missing []partition.Range, missingIDs []int) {
	type candidate struct {
		i    int
		path string
	}
	isMissing := make([]bool, len(ranges))
	var present []candidate
	for i := range ranges {
		path := PartPath(dir, format, ids[i])
		if _, err := os.Stat(path); err == nil {
			present = append(present, candidate{i, path})
		} else {
			isMissing[i] = true
		}
	}

	check := func(c candidate) {
		if CheckPart(c.path, format) == nil {
			return
		}
		os.Remove(c.path)
		isMissing[c.i] = true
	}
	if workers := min(runtime.GOMAXPROCS(0), len(present)); workers > 1 {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					k := int(next.Add(1)) - 1
					if k >= len(present) {
						return
					}
					check(present[k])
				}
			}()
		}
		wg.Wait()
	} else {
		for _, c := range present {
			check(c)
		}
	}

	for i := range ranges {
		if isMissing[i] {
			missing = append(missing, ranges[i])
			missingIDs = append(missingIDs, ids[i])
		}
	}
	return missing, missingIDs
}

// SweepTemps removes leftover part-*.tmp files from a crashed run. A
// tmp file that cannot be removed (read-only disk, permissions) is
// reported in the joined error rather than swallowed: an immovable tmp
// would otherwise be silently regenerated around forever.
func SweepTemps(dir string) error {
	tmps, err := filepath.Glob(filepath.Join(dir, "part-*.tmp"))
	if err != nil {
		return err
	}
	var errs []error
	for _, t := range tmps {
		if err := os.Remove(t); err != nil && !errors.Is(err, fs.ErrNotExist) {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// AtomicPartSinks is FileSinks with crash safety, for an explicit,
// possibly non-contiguous set of global part indices: worker i writes
// part ids[i] to part-<n>.<ext>.tmp and renames it into place only when
// its writer closes cleanly, so a part file either exists complete or
// not at all. This is what makes resume sound.
func AtomicPartSinks(dir string, format gformat.Format, numVertices int64, ids []int) SinkFactory {
	return atomicPartSinks(dir, format, numVertices, ids, PartSinkOptions{})
}

// PartSinkOptions tunes the part executor's atomic sinks (RunParts)
// for directories shared by independent writers — the masterless swarm
// runtime, where several processes may race to publish the same part.
// The zero value is plain AtomicPartSinks behavior.
type PartSinkOptions struct {
	// TmpSuffix, when non-empty, is inserted into each temp file name
	// (part-NNNNN.<ext>.<TmpSuffix>.tmp) so writers in different
	// processes racing on the same part never interleave bytes into one
	// temp file. The names still match the part-*.tmp pattern
	// SweepTemps removes, so crashed-writer litter remains sweepable.
	TmpSuffix string
	// OnDuplicate turns the publish into an exact first-writer-wins
	// claim: the temp is hard-linked to the final name, which fails with
	// EEXIST — atomically, however close the race — when a peer
	// published first. The loser's temp is discarded (the winner's bytes
	// are identical by the determinism contract), OnDuplicate is called
	// with the part id, and Close reports success, so of any number of
	// racing writers exactly one is not told it lost. nil keeps the plain
	// semantics (rename unconditionally; an overwrite replaces identical
	// bytes).
	OnDuplicate func(id int)
}

// atomicPartSinks is AtomicPartSinks with shared-directory options.
func atomicPartSinks(dir string, format gformat.Format, numVertices int64, ids []int, opt PartSinkOptions) SinkFactory {
	return func(worker int, r partition.Range) (gformat.Writer, error) {
		return newAtomicWriter(dir, format, numVertices, ids[worker], opt, nil)
	}
}

// newAtomicWriter opens the atomic writer of part idx; sum is
// newPartWriter's.
func newAtomicWriter(dir string, format gformat.Format, numVertices int64, idx int, opt PartSinkOptions, sum io.Writer) (gformat.Writer, error) {
	final := PartPath(dir, format, idx)
	tmp := final + ".tmp"
	if opt.TmpSuffix != "" {
		tmp = final + "." + opt.TmpSuffix + ".tmp"
	}
	var onDup func()
	if opt.OnDuplicate != nil {
		fn := opt.OnDuplicate
		onDup = func() { fn(idx) }
	}
	f, err := os.Create(tmp)
	if err != nil {
		return nil, err
	}
	w, err := newPartWriter(f, format, numVertices, sum)
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, err
	}
	return &atomicWriter{Writer: w, f: f, tmp: tmp, final: final, onDup: onDup}, nil
}

type atomicWriter struct {
	gformat.Writer
	f          *os.File
	tmp, final string
	// onDup, when set, publishes by link instead of rename: an existing
	// final file is the lost race, and onDup records it.
	onDup func()
}

func (a *atomicWriter) WriteScope(src int64, dsts []int64) error {
	if err := faultpoint.Fire("core.sink.write"); err != nil {
		return err
	}
	return a.Writer.WriteScope(src, dsts)
}

func (a *atomicWriter) Close() error {
	if err := faultpoint.Fire("core.sink.close"); err != nil {
		a.f.Close()
		os.Remove(a.tmp)
		return err
	}
	if err := a.Writer.Close(); err != nil {
		a.f.Close()
		os.Remove(a.tmp)
		return err
	}
	if err := a.f.Sync(); err != nil {
		a.f.Close()
		os.Remove(a.tmp)
		return err
	}
	if err := a.f.Close(); err != nil {
		os.Remove(a.tmp)
		return err
	}
	if a.onDup != nil {
		// link(2) refuses an existing name, so of all the writers racing
		// to publish this part exactly one succeeds; the others keep the
		// winner's file — identical bytes by the determinism contract —
		// and have lost nothing but the duplicated work.
		err := os.Link(a.tmp, a.final)
		os.Remove(a.tmp)
		if errors.Is(err, fs.ErrExist) {
			a.onDup()
			return nil
		}
		if err != nil {
			return err
		}
	} else if err := os.Rename(a.tmp, a.final); err != nil {
		return err
	}
	// The new name is only durable once the directory entry is on disk;
	// without this a host crash could make a "complete" part vanish and
	// silently defeat resume.
	return syncDir(filepath.Dir(a.final))
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
// Filesystems that cannot sync a directory handle (some network and
// FUSE mounts) make the fsync fail with EINVAL/ENOTSUP; that is
// reported, matching the crash-safety contract of the atomic sinks.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// manifestName is the resume manifest's file name; it deliberately does
// not match the part-* pattern.
const manifestName = ".trilliong-resume.json"

// resumeManifest records what a directory's part files are a partial
// output of, so a later resume with a different configuration is
// detected instead of silently producing a frankengraph: part files
// only carry a part index, and the same index covers a *different*
// vertex range whenever Workers (or anything else that shapes the
// plan) changes. Config carries the full generation parameters
// (Workers normalized out) so downstream tools — the statistical
// validator foremost — can recover what a directory claims to be
// without the user re-typing flags.
type resumeManifest struct {
	Fingerprint string  `json:"fingerprint"`
	Parts       int     `json:"parts"`
	Format      string  `json:"format"`
	Config      *Config `json:"config,omitempty"`
	// Source is the opaque spec of a non-Config PartSource (the
	// community composition records its resolved spec here). Core treats
	// it as a black box: downstream tools that know the spec's schema —
	// the statistical validator foremost — decode it themselves.
	Source json.RawMessage `json:"source,omitempty"`
}

// matches compares the identity fields only: Config is informational
// (old manifests predate it) and already condensed into Fingerprint.
func (m resumeManifest) matches(o resumeManifest) bool {
	return m.Fingerprint == o.Fingerprint && m.Parts == o.Parts && m.Format == o.Format
}

// RunManifest is the recorded identity of a generated directory: the
// configuration (Workers normalized to 0), output format and part
// count of the run that produced it.
type RunManifest struct {
	Config Config
	Format gformat.Format
	Parts  int
}

// ReadRunManifest loads the generation parameters recorded in dir by
// ResumeToDir / ResumeToDirStore. Directories written before parameter
// recording (or by the non-resume path) return an error naming the
// manifest, so callers can fall back to explicit flags.
func ReadRunManifest(dir string) (*RunManifest, error) {
	path := filepath.Join(dir, manifestName)
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: no run manifest in %s (generate with -resume or -store to record parameters): %w", dir, err)
	}
	var m resumeManifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("core: run manifest %s is corrupt: %w", path, err)
	}
	if m.Config == nil {
		return nil, fmt.Errorf("core: run manifest %s predates parameter recording", path)
	}
	f, err := gformat.ParseFormat(m.Format)
	if err != nil {
		return nil, fmt.Errorf("core: run manifest %s: %w", path, err)
	}
	return &RunManifest{Config: *m.Config, Format: f, Parts: m.Parts}, nil
}

// EnsureRunManifest validates dir against an existing resume manifest
// or writes one recording (src, format, parts). It is the
// shared-directory handshake of the masterless swarm workers: every
// worker performs it before generating, so two workers pointed at one
// directory with different configurations fail loudly instead of
// interleaving parts of two different graphs. Writing is idempotent
// and race-safe between workers of the *same* job — they serialize the
// identical bytes, so whichever rename lands last changes nothing.
func EnsureRunManifest(dir string, src PartSource, format gformat.Format, parts int) error {
	return src.EnsureManifest(dir, format, parts)
}

// EnsureSourceManifest is the EnsureManifest of a non-Config
// PartSource: the manifest's identity is the source's fingerprint
// (plus format and part count), and source — an opaque JSON spec of
// the job, recorded verbatim — lets downstream tools recover what the
// directory claims to be. ReadSourceSpec is the reader.
func EnsureSourceManifest(dir, srcFingerprint string, source json.RawMessage, format gformat.Format, parts int) error {
	want := resumeManifest{
		Fingerprint: fmt.Sprintf("src=%s format=%v parts=%d", srcFingerprint, format, parts),
		Parts:       parts,
		Format:      format.String(),
		Source:      source,
	}
	return ensureManifest(dir, want)
}

// ReadSourceSpec returns the opaque PartSource spec recorded in dir's
// run manifest by EnsureSourceManifest, plus the recorded format and
// part count. Directories generated by the classic Config path (or
// with no manifest at all) return an error: callers probe this first
// and fall back to ReadRunManifest.
func ReadSourceSpec(dir string) (source json.RawMessage, format gformat.Format, parts int, err error) {
	path := filepath.Join(dir, manifestName)
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("core: no run manifest in %s: %w", dir, err)
	}
	var m resumeManifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, 0, 0, fmt.Errorf("core: run manifest %s is corrupt: %w", path, err)
	}
	if len(m.Source) == 0 {
		return nil, 0, 0, fmt.Errorf("core: run manifest %s records no source spec", path)
	}
	f, err := gformat.ParseFormat(m.Format)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("core: run manifest %s: %w", path, err)
	}
	return m.Source, f, m.Parts, nil
}

// ensureManifest validates dir against an existing manifest or writes
// want atomically. Directories from runs predating the manifest resume
// without validation, as before.
func ensureManifest(dir string, want resumeManifest) error {
	path := filepath.Join(dir, manifestName)
	if b, err := os.ReadFile(path); err == nil {
		var have resumeManifest
		if err := json.Unmarshal(b, &have); err != nil {
			return fmt.Errorf("core: resume manifest %s is corrupt: %w", path, err)
		}
		if !have.matches(want) {
			return fmt.Errorf("core: directory %s holds parts of a different run (manifest: %d %s parts; resume asks for %d %s parts with a different plan) — resume with the original configuration or use a fresh directory",
				dir, have.Parts, have.Format, want.Parts, want.Format)
		}
		return nil
	}
	b, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		return err
	}
	// The temp name must be unique per writer: swarm workers of one job
	// race this write, and with a shared name one worker's rename can
	// steal another's file mid-flight. Unique temps make every rename
	// succeed — they carry identical bytes, so whichever lands last
	// changes nothing.
	tmp, err := os.CreateTemp(dir, manifestName+".*.tmp")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op once renamed
	if _, err := tmp.Write(append(b, '\n')); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Chmod(tmpName, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		return err
	}
	return syncDir(dir)
}
