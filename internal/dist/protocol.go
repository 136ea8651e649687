// Package dist is TrillionG's distributed runtime: a master process
// plans the AVS-level partition (Figure 6, core.Plan) and leases contiguous
// vertex-range bundles to worker processes over TCP; each worker
// generates its leases with the recursive vector model and writes part
// files to its *local* disk — the deployment of the paper's 10-PC
// cluster, with plain TCP plus encoding/gob standing in for Spark.
//
// Unlike the paper's setup, the runtime is fault-tolerant: because the
// graph is a pure function of (configuration, master seed), any range
// can be regenerated anywhere, so the master keeps undone ranges in a
// work queue and simply requeues a lease when its worker disconnects,
// stalls past the heartbeat deadline, or reports failure. Workers dial
// with exponential backoff, reconnect after a dropped connection, and
// skip ranges whose part files already exist on their disk, so a
// restarted worker resumes instead of regenerating.
//
// The protocol (see docs/DIST.md for the full state machine):
//
//	worker → master  Hello{Threads}
//	master → worker  Job{Config, Format, Ranges, PartIDs, Heartbeat}
//	worker → master  Heartbeat{ScopesDone}   (periodic, while generating)
//	worker → master  Done{Stats, Skipped} | Fail{Error}
//	master → worker  Job{...} (next lease) | Bye{}
//
// Every message after Hello travels gob-encoded as an interface value,
// so either side dispatches on the concrete type it receives.
package dist

import (
	"encoding/gob"
	"net"
	"time"

	"repro/internal/community"
	"repro/internal/core"
	"repro/internal/gformat"
	"repro/internal/partition"
	"repro/internal/pressure"
)

// Hello registers a worker and announces its thread count. A worker
// re-sends it after reconnecting; the master treats every connection
// as a fresh worker.
type Hello struct {
	Threads int
	// Level is the worker's host-pressure level at registration (see
	// internal/pressure); workers without a controller report OK (0),
	// which is also what masters predating the field decode. Every
	// subsequent Heartbeat/Done/Fail refreshes it.
	Level pressure.Level
}

// Job leases a bundle of ranges to a worker.
type Job struct {
	Config core.Config
	// Community, when non-nil, replaces Config: the lease's parts are
	// community blocks of the layout this spec describes, identified by
	// PartIDs (block ids), and Ranges carry each block's source-vertex
	// span. Workers rebuild the layout locally — the spec is tiny and
	// the layout a pure function of it — so the wire format stays flat.
	Community *community.Config
	Format    gformat.Format
	// Ranges are the vertex ranges of this lease, at most one per
	// worker thread.
	Ranges []partition.Range
	// PartIDs are the global part indices of Ranges, index-aligned;
	// part files are named part-<id>.<ext> so the union across machines
	// is a complete, collision-free file set. After a requeue the ids
	// need not be contiguous.
	PartIDs []int
	// Heartbeat is the interval at which the worker must send
	// Heartbeat messages while it holds this lease.
	Heartbeat time.Duration
}

// partSource resolves the part source a job names: the community layout
// when comm is set — recomputed from the spec, deterministic, so the
// master and every worker agree on block ids, ranges and store keys
// without shipping the layout itself — else the classic config, which
// is its own source.
func partSource(cfg core.Config, comm *community.Config) (core.PartSource, error) {
	if comm != nil {
		return community.New(*comm)
	}
	return cfg, cfg.Validate()
}

// Heartbeat is the worker's liveness-and-progress beacon: it resets
// the master's per-lease silence deadline.
type Heartbeat struct {
	// ScopesDone counts scopes generated under the current lease.
	ScopesDone int64
	// Level is the worker's current host-pressure level, so the master
	// learns about a worker heating up (or cooling down) mid-lease.
	Level pressure.Level
}

// Done reports a completed lease with its aggregated statistics.
type Done struct {
	Edges           int64
	Attempts        int64
	MaxDegree       int64
	PeakWorkerBytes int64
	BytesWritten    int64
	GenDuration     time.Duration
	// Skipped counts leased parts the worker did not regenerate
	// because their files already existed (resume after restart).
	Skipped int
	// FromCache counts leased parts satisfied from the worker's
	// artifact store (checksum-verified) instead of generated.
	FromCache int
	// Level is the worker's host-pressure level after finishing the
	// lease — the freshest signal the master has when deciding whether
	// this worker should receive another fresh range.
	Level pressure.Level
}

// Fail reports a worker-side error for the current lease; the master
// requeues the lease and keeps the connection.
type Fail struct {
	Error string
	// Level is the worker's host-pressure level at failure time; a
	// lease that failed *because* the host is starved should not bounce
	// straight back to the same starved host.
	Level pressure.Level
}

// Bye releases the worker: every part is accounted for.
type Bye struct{}

func init() {
	gob.Register(Hello{})
	gob.Register(Job{})
	gob.Register(Heartbeat{})
	gob.Register(Done{})
	gob.Register(Fail{})
	gob.Register(Bye{})
}

// decodeWithin decodes one gob message under a read deadline, clearing
// the deadline afterwards so later exchanges on the same connection
// start fresh. The encoder/decoder pair must be reused across messages
// — gob streams type descriptors once — which is why the deadline
// wraps the existing decoder instead of a new one.
func decodeWithin(conn net.Conn, dec *gob.Decoder, d time.Duration, v interface{}) error {
	if err := conn.SetReadDeadline(time.Now().Add(d)); err != nil {
		return err
	}
	defer conn.SetReadDeadline(time.Time{})
	return dec.Decode(v)
}

// encodeWithin is decodeWithin's write-side twin.
func encodeWithin(conn net.Conn, enc *gob.Encoder, d time.Duration, v interface{}) error {
	if err := conn.SetWriteDeadline(time.Now().Add(d)); err != nil {
		return err
	}
	defer conn.SetWriteDeadline(time.Time{})
	return enc.Encode(v)
}
