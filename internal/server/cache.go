package server

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/gformat"
	"repro/internal/pressure"
	"repro/internal/store"
)

// Metric names the server's cache plumbing publishes
// (docs/OBSERVABILITY.md is the catalog).
const (
	// MetricSpoolSwept counts stale spool temp files removed when a
	// store is attached — leftovers of streams cut mid-copy in an
	// earlier process life.
	MetricSpoolSwept = "server.spool_swept_total"
	// MetricPresignRedirects counts downloads answered with a 302 to a
	// presigned cold-tier URL instead of a local stream.
	MetricPresignRedirects = "server.presign_redirects_total"
)

// spoolPrefixes are the temp-file name prefixes the cache plumbing
// creates in the spool directory: store hits replayed into streams,
// whole-file downloads, and generation tees. Anything with one of
// these names that exists when a store is attached is an orphan of a
// previous process life.
var spoolPrefixes = []string{"hit-", "dl-", "gen-"}

// sweepSpool removes stale spool temps and reports how many. A crash
// or kill mid-stream leaks them (the deferred removes never ran), and
// they can hold artifact-sized payloads, so attach-time is the moment
// to reclaim the space: nothing is in flight yet, so every matching
// name is garbage.
func sweepSpool(dir string) int {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	swept := 0
	for _, de := range entries {
		name := de.Name()
		for _, prefix := range spoolPrefixes {
			if strings.HasPrefix(name, prefix) {
				if os.Remove(filepath.Join(dir, name)) == nil {
					swept++
				}
				break
			}
		}
	}
	return swept
}

// SetStore attaches a content-addressed artifact store to the server:
// streams are satisfied from it when the job's (config, range, format)
// key is present (X-Trilliong-Cache: hit), completed streams are
// ingested into it, and GET /v1/jobs/{id}/download serves cached
// artifacts whole. spoolDir stages in-flight copies; "" puts it inside
// the store. Call before serving requests — the field is not
// synchronized against in-flight handlers. Open the store with the
// server's Telemetry() registry to surface the store.* metrics on
// /metrics.
func (s *Server) SetStore(st *store.Store, spoolDir string) error {
	if spoolDir == "" {
		spoolDir = filepath.Join(st.Dir(), "spool")
	}
	if err := os.MkdirAll(spoolDir, 0o755); err != nil {
		return fmt.Errorf("server: spool dir: %w", err)
	}
	if n := sweepSpool(spoolDir); n > 0 {
		s.metrics.tel.Counter(MetricSpoolSwept).Add(int64(n))
	}
	s.store = st
	s.spoolDir = spoolDir
	if p := s.pressure; p != nil {
		// Cached artifacts are the cheapest thing to give back when the
		// host strains: track every level change and apply the current
		// one now.
		p.OnChange(func(lvl pressure.Level) { st.SetPressureLevel(lvl) })
		st.SetPressureLevel(p.Level())
	}
	return nil
}

// serveFromStore satisfies a started stream from the artifact store.
// It reports whether it did; false means a miss (or a corrupt entry,
// already evicted) and the caller generates. Hits stream through the
// normal byte/edge accounting so job status and metrics read the same
// as a generated run.
func (s *Server) serveFromStore(w http.ResponseWriter, out *flushWriter, job *Job) (bool, error) {
	spool, err := os.CreateTemp(s.spoolDir, "hit-*")
	if err != nil {
		return false, err
	}
	spoolPath := spool.Name()
	spool.Close()
	os.Remove(spoolPath) // Retrieve re-creates it atomically
	defer os.Remove(spoolPath)

	info, ok, err := s.store.Retrieve(job.key, spoolPath)
	if err != nil || !ok {
		return false, err
	}
	f, err := os.Open(spoolPath)
	if err != nil {
		return false, err
	}
	defer f.Close()

	w.Header().Set("X-Trilliong-Cache", "hit")
	if _, err := io.Copy(out, f); err != nil {
		return true, err
	}
	// The artifact carries its edge count as sidecar metadata; scopes
	// are the stream's scope total.
	job.scopes.Store(job.scopesTotal)
	job.edges.Store(info.Edges)
	s.metrics.scopesTotal.Add(job.scopesTotal)
	s.metrics.addEdges(info.Edges)
	return true, nil
}

// spoolWriter tees a generating stream into a spool file so a clean
// finish can be ingested into the store. Spooling is best-effort: a
// spool-side write error (disk full, …) abandons the copy but never
// disturbs the client's stream.
type spoolWriter struct {
	io.Writer // the client
	f         *os.File
	broken    bool
}

func (sw *spoolWriter) Write(p []byte) (int, error) {
	n, err := sw.Writer.Write(p)
	if !sw.broken && n > 0 {
		if _, werr := sw.f.Write(p[:n]); werr != nil {
			sw.broken = true
		}
	}
	return n, err
}

// ingestSpooled finishes the miss path: if the stream completed cleanly
// and the spool copy is intact, the artifact enters the store.
func (s *Server) ingestSpooled(sw *spoolWriter, job *Job, streamErr error) {
	path := sw.f.Name()
	defer os.Remove(path)
	syncErr := sw.f.Sync()
	closeErr := sw.f.Close()
	if streamErr != nil || sw.broken || syncErr != nil || closeErr != nil {
		return
	}
	// Ingest failures are deliberately swallowed: the client got its
	// stream; the cache just stays cold. The store's own metrics make
	// persistent ingest trouble visible.
	s.store.IngestFile(job.key, path, job.edges.Load())
}

// handleDownload serves a job's complete artifact from the store (the
// whole-file dual of /stream: re-downloadable, Content-Length, no
// generation). 404 with X-Trilliong-Cache: miss means the artifact is
// not cached — stream the job (or re-run it) to materialize it.
func (s *Server) handleDownload(w http.ResponseWriter, r *http.Request) {
	job, ok := s.reg.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	if s.store == nil {
		writeError(w, http.StatusNotFound, "no artifact store configured")
		return
	}
	key := job.key

	// Zero-copy delivery: when the artifact lives only in the cold tier
	// and the backend can mint presigned URLs, redirect the client to
	// the object store instead of pulling the payload through this
	// process. Any trouble on this path (backend unreachable, presign
	// unsupported) falls through to the local stream below, which
	// promotes the object and serves it — correctness never depends on
	// the redirect.
	if s.presignTTL > 0 {
		if local, _, _ := s.store.Location(key); !local {
			if u, ok, err := s.store.PresignGet(key, s.presignTTL); err == nil && ok {
				s.metrics.tel.Counter(MetricPresignRedirects).Inc()
				w.Header().Set("X-Trilliong-Cache", "remote")
				w.Header().Set("X-Trilliong-Job-Id", job.ID)
				http.Redirect(w, r, u, http.StatusFound)
				return
			}
		}
	}

	spool, err := os.CreateTemp(s.spoolDir, "dl-*")
	if err != nil {
		writeError(w, http.StatusInternalServerError, "spool: %v", err)
		return
	}
	spoolPath := spool.Name()
	spool.Close()
	os.Remove(spoolPath)
	defer os.Remove(spoolPath)

	info, ok, err := s.store.Retrieve(key, spoolPath)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "store: %v", err)
		return
	}
	if !ok {
		w.Header().Set("X-Trilliong-Cache", "miss")
		writeError(w, http.StatusNotFound, "artifact for job %s is not cached", job.ID)
		return
	}
	f, err := os.Open(spoolPath)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "spool: %v", err)
		return
	}
	defer f.Close()

	if job.format == gformat.TSV {
		w.Header().Set("Content-Type", "text/tab-separated-values; charset=utf-8")
	} else {
		w.Header().Set("Content-Type", "application/octet-stream")
	}
	w.Header().Set("X-Trilliong-Cache", "hit")
	w.Header().Set("X-Trilliong-Job-Id", job.ID)
	w.Header().Set("Content-Length", fmt.Sprint(info.Size))
	w.WriteHeader(http.StatusOK)
	n, _ := io.Copy(w, f)
	s.metrics.bytesTotal.Add(n)
}
