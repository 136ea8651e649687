package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/rng"
)

const defaultSeed = 1

// env is what a workload's set-up is given: the thread budget, the
// benchmark seed its master seeds derive from, the size class, and a
// directory to put files in.
type env struct {
	W     int
	seed  uint64
	smoke bool
	tmp   string
}

// master derives a generator master seed from the benchmark seed. The
// program under test sees only configurations built from these.
func (e env) master(salt uint64) uint64 {
	return rng.Mix64(e.seed, salt) | 1 // the server reads 0 as "default"
}

func (e env) mkdir(prefix string) (string, error) {
	return os.MkdirTemp(e.tmp, prefix+"-")
}

// pick returns full unless the run is a smoke run.
func pick[T any](e env, full, smoke T) T {
	if e.smoke {
		return smoke
	}
	return full
}

// repResult is one repetition as a caller of the system sees it.
type repResult struct {
	// wall is the timed region edges_per_sec divides by; edges and
	// bytes are what reached the sink, directory or client within it.
	wall         time.Duration
	edges, bytes int64
	// delivered counts every edge handed to a caller in the whole
	// repetition (store-cycle's warm calls add to it); 0 means edges.
	delivered int64
	// jobs are the latencies of the caller-visible operations that
	// job_p50_ms is the median of.
	jobs []time.Duration
	// busy is the time inside every call into the system, what tracing
	// can slow down (store-cycle's warm calls add to it); 0 means the
	// sum of jobs.
	busy time.Duration
	// ops and failed count operations attempted and failed or refused
	// (jobs, parts, leases, count checks).
	ops, failed int
}

// instance is a workload after set-up: temp dirs made, references
// hashed, servers started, one warm-up repetition run and verified.
type instance interface {
	// rep runs one repetition, recording bench-side spans under a new
	// root when tr is not nil.
	rep(tr *tracer) (repResult, error)
	// layers runs this workload's part of the layer pass and reports
	// what its traced repetitions counted.
	layers(lp *layerPass) error
	// size describes the inputs, for the report header.
	size() string
	close()
}

// workload is one named set of inputs. Names are referred to by later
// issues and never change.
type workload struct {
	name  string
	why   string
	setup func(env) (instance, error)
}

var workloads = []workload{
	{"batch-sparse", "core.Generate at edge factor 16 into discard sinks: attempts/edge is about 1.1, so RecVec build and the draw are nearly all of the wall", setupBatchSparse},
	{"batch-dense", "same call at edge factor 128 on few vertices: attempts/edge is about 9.6, so rejected draws and dedup inserts on near-full hub rows dominate", setupBatchDense},
	{"store-cycle", "one cold ResumeToDirStore (generate, TSV encode, atomic parts, ingest) then warm calls served from the store with zero generation: the draw loop is bypassed", setupStoreCycle},
	{"stream-http", "closed loop of W clients posting TSV jobs to the HTTP server and reading each stream to EOF: the per-scope channel pipeline and chunking do the extra work", setupStreamHTTP},
	{"swarm-2w", "W masterless swarm workers sharing one directory, 16 parts: scan, settle and epoch overhead over batch for the same bytes", setupSwarm},
	{"dist-2w", "the same job through the TCP master and W workers: lease and heartbeat overhead over batch, to set beside swarm-2w", setupDist},
	{"community-k4", "four non-power-of-two communities, so all 16 blocks take the ERV rectangle path: the AVS draw loop is idle and the per-block loop does the work", setupCommunity},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// sameCounts is the timed repetitions' output check: byte and edge
// counts must equal what the verified warm-up repetition produced.
func sameCounts(what string, gotEdges, gotBytes, wantEdges, wantBytes int64) int {
	if gotEdges == wantEdges && gotBytes == wantBytes {
		return 0
	}
	fmt.Fprintf(os.Stderr, "bench: %s: got %d edges / %d bytes, want %d / %d\n", what, gotEdges, gotBytes, wantEdges, wantBytes)
	return 1
}
