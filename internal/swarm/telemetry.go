package swarm

// Metric names the masterless swarm runtime publishes into the
// telemetry registry handed to Run (docs/OBSERVABILITY.md is the
// catalog). A nil registry gets a private one, so call sites never
// branch on instrumentation.
const (
	// MetricPartsClaimed counts parts this worker generated and
	// published first — its exclusive link won the claim.
	MetricPartsClaimed = "swarm.parts_claimed_total"
	// MetricClaimsLost counts parts this worker fully generated whose
	// publish lost the race to a peer: the final name already existed
	// at link time, so the duplicate (bit-identical by construction)
	// was discarded. Lost claims are pure duplicated work; with claim
	// markers they only follow a steal.
	MetricClaimsLost = "swarm.claims_lost_total"
	// MetricPartsSkipped counts claim-time skips: parts that turned up
	// published between the scan and this worker reaching them in its
	// walk — the footprint of peers working nearby.
	MetricPartsSkipped = "swarm.parts_skipped_total"
	// MetricClaimsDeferred counts parts passed over because a peer held
	// their claim marker.
	MetricClaimsDeferred = "swarm.claims_deferred_total"
	// MetricClaimsStolen counts parts drawn over a held marker, after
	// its owner outlasted this worker's patience.
	MetricClaimsStolen = "swarm.claims_stolen_total"
	// MetricPartsVerified counts present parts structurally verified by
	// completion scans (each scan re-verifies everything present).
	MetricPartsVerified = "swarm.parts_verified_total"
	// MetricStoreHits counts parts materialized from the artifact store
	// instead of generated.
	MetricStoreHits = "swarm.store_hits_total"
	// MetricEpoch is this worker's current claim pass, counted from 0
	// (gauge); above 0 a verifying scan found published parts damaged
	// or gone.
	MetricEpoch = "swarm.epoch"
	// MetricScanSeconds distributes completion-scan latency (histogram).
	MetricScanSeconds = "swarm.scan_seconds"
	// MetricWaitSeconds distributes, per claim pass that deferred
	// anything, the time spent waiting on peers' in-flight parts
	// (histogram).
	MetricWaitSeconds = "swarm.wait_seconds"
	// MetricThrottleWaits counts claim-rate throttle pauses taken
	// because the local host advertised elevated/critical pressure.
	MetricThrottleWaits = "swarm.throttle_waits_total"
	// MetricEdges counts edges this worker generated, duplicates from
	// lost claims included.
	MetricEdges = "swarm.edges_total"
)

// Faultpoint names (internal/faultpoint) on the swarm path, for chaos
// tests and operator fire drills. Generation itself additionally passes
// the core.sink.* points of the atomic writers.
const (
	// PointClaim fires at the start of every part claim, before the
	// presence check and the marker — a "fail" spec here aborts the
	// worker like a death between parts; a "stall" makes walks overlap.
	PointClaim = "swarm.worker.claim"
	// PointScan fires before every completion scan.
	PointScan = "swarm.worker.scan"
)
