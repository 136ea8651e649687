package core

// Tests for the resume helpers as shared by the masterless swarm:
// scans racing publishers in one directory, sweep error surfacing, and
// the shared-directory sink options.

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/gformat"
	"repro/internal/partition"
)

// TestMissingPartsConcurrentWithAtomicSinks is the swarm rendezvous
// invariant under -race: two scanners loop MissingParts over a
// directory while a publisher finishes parts one by one through the
// atomic sinks. Once a part's rename has landed (Close returned), no
// later scan may report it missing again.
func TestMissingPartsConcurrentWithAtomicSinks(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.MasterSeed = 5
	const parts = 8
	dir := t.TempDir()
	ranges, err := Plan(cfg, parts)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, parts)
	for i := range ids {
		ids[i] = i
	}

	var landed [parts]atomic.Bool
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < parts; i++ {
			sinks := atomicPartSinks(dir, gformat.ADJ6, cfg.NumVertices(), ids[i:i+1], PartSinkOptions{TmpSuffix: "pub"})
			if _, err := GenerateRanges(cfg, ranges[i:i+1], sinks); err != nil {
				t.Errorf("publish part %d: %v", i, err)
				return
			}
			landed[i].Store(true)
		}
	}()
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					// One final scan after the last rename landed.
					_, missingIDs := MissingParts(dir, gformat.ADJ6, ranges, ids)
					for _, id := range missingIDs {
						if landed[id].Load() {
							t.Errorf("part %d reported missing after its rename landed", id)
						}
					}
					return
				default:
				}
				// Snapshot BEFORE scanning: anything landed by now must
				// stay visible to a scan that starts after.
				var snap [parts]bool
				for i := range snap {
					snap[i] = landed[i].Load()
				}
				_, missingIDs := MissingParts(dir, gformat.ADJ6, ranges, ids)
				for _, id := range missingIDs {
					if snap[id] {
						t.Errorf("part %d reported missing after its rename landed", id)
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestMissingPartsParallelKeepsOrder: the bounded-pool verification
// must preserve the deterministic input ordering of the result slices
// whatever mix of absent, valid and corrupt parts it sees.
func TestMissingPartsParallelKeepsOrder(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.MasterSeed = 6
	const parts = 9
	dir := t.TempDir()
	ranges, err := Plan(cfg, parts)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, parts)
	for i := range ids {
		ids[i] = i
	}
	if _, err := GenerateRanges(cfg, ranges, AtomicPartSinks(dir, gformat.ADJ6, cfg.NumVertices(), ids)); err != nil {
		t.Fatal(err)
	}
	// Absent: 1, 4. Corrupt (truncated to an invalid length): 2, 7.
	for _, id := range []int{1, 4} {
		if err := os.Remove(PartPath(dir, gformat.ADJ6, id)); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []int{2, 7} {
		if err := os.Truncate(PartPath(dir, gformat.ADJ6, id), 5); err != nil {
			t.Fatal(err)
		}
	}
	missing, missingIDs := MissingParts(dir, gformat.ADJ6, ranges, ids)
	wantIDs := []int{1, 2, 4, 7}
	if len(missingIDs) != len(wantIDs) {
		t.Fatalf("missing ids %v, want %v", missingIDs, wantIDs)
	}
	for i, want := range wantIDs {
		if missingIDs[i] != want {
			t.Fatalf("missing ids %v not in deterministic input order, want %v", missingIDs, wantIDs)
		}
		if missing[i] != ranges[want] {
			t.Fatalf("missing[%d] = %+v, want range of part %d %+v", i, missing[i], want, ranges[want])
		}
	}
	// The corrupt files must have been deleted for regeneration.
	for _, id := range []int{2, 7} {
		if _, err := os.Stat(PartPath(dir, gformat.ADJ6, id)); err == nil {
			t.Fatalf("corrupt part %d left in place", id)
		}
	}
}

// TestSweepTempsSurfacesErrors: an unremovable temp (here a non-empty
// directory matching the temp pattern) must surface in the returned
// error instead of being silently skipped — while removable temps in
// the same sweep are still removed.
func TestSweepTempsSurfacesErrors(t *testing.T) {
	dir := t.TempDir()
	plain := filepath.Join(dir, "part-00000.adj6.tmp")
	if err := os.WriteFile(plain, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	stuck := filepath.Join(dir, "part-00001.adj6.tmp")
	if err := os.MkdirAll(filepath.Join(stuck, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	err := SweepTemps(dir)
	if err == nil {
		t.Fatal("SweepTemps swallowed the unremovable temp")
	}
	if !strings.Contains(err.Error(), "part-00001") {
		t.Fatalf("error %q does not name the stuck temp", err)
	}
	if _, serr := os.Stat(plain); serr == nil {
		t.Fatal("removable temp survived the sweep")
	}
	// An empty directory and a clean sweep return nil.
	if err := os.RemoveAll(stuck); err != nil {
		t.Fatal(err)
	}
	if err := SweepTemps(dir); err != nil {
		t.Fatalf("clean sweep: %v", err)
	}
}

// TestAtomicPartSinkOptionsDuplicateLosesGracefully: with OnDuplicate
// armed, a writer whose final path is already published discards its
// temp, reports the loss, and leaves the winner's bytes untouched.
func TestAtomicPartSinkOptionsDuplicateLosesGracefully(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.MasterSeed = 7
	dir := t.TempDir()
	ranges, err := Plan(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := []partition.Range{ranges[0]}
	ids := []int{0}
	if _, err := GenerateRanges(cfg, r, AtomicPartSinks(dir, gformat.ADJ6, cfg.NumVertices(), ids)); err != nil {
		t.Fatal(err)
	}
	winner := readFile(t, PartPath(dir, gformat.ADJ6, 0))

	var lost []int
	sinks := atomicPartSinks(dir, gformat.ADJ6, cfg.NumVertices(), ids, PartSinkOptions{
		TmpSuffix:   "loser",
		OnDuplicate: func(id int) { lost = append(lost, id) },
	})
	if _, err := GenerateRanges(cfg, r, sinks); err != nil {
		t.Fatalf("losing a duplicate race must not be an error: %v", err)
	}
	if len(lost) != 1 || lost[0] != 0 {
		t.Fatalf("OnDuplicate calls %v, want [0]", lost)
	}
	if got := readFile(t, PartPath(dir, gformat.ADJ6, 0)); !equalBytes(got, winner) {
		t.Fatal("duplicate publish disturbed the winner's bytes")
	}
	tmps, err := filepath.Glob(filepath.Join(dir, "part-*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tmps) != 0 {
		t.Fatalf("losing writer left temp litter: %v", tmps)
	}
}

// TestAtomicPartSinkOptionsExactlyOneWinner: however many writers
// finish the same part in the same instant, the OnDuplicate publish
// tells all but exactly one that they lost — the ledger the swarm's
// "parts won sum to Parts" rests on. (A stat-then-rename publish lets
// two of them both win.)
func TestAtomicPartSinkOptionsExactlyOneWinner(t *testing.T) {
	cfg := DefaultConfig(6)
	cfg.MasterSeed = 8
	ranges, err := Plan(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	const writers, rounds = 8, 25
	for round := 0; round < rounds; round++ {
		dir := t.TempDir()
		var lost atomic.Int64
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sinks := atomicPartSinks(dir, gformat.ADJ6, cfg.NumVertices(), []int{0}, PartSinkOptions{
					TmpSuffix:   string(rune('a' + w)),
					OnDuplicate: func(int) { lost.Add(1) },
				})
				<-start
				if _, err := GenerateRanges(cfg, ranges, sinks); err != nil {
					t.Errorf("writer %d: %v", w, err)
				}
			}()
		}
		close(start)
		wg.Wait()
		if got := lost.Load(); got != writers-1 {
			t.Fatalf("round %d: %d of %d writers lost, want all but one", round, got, writers)
		}
		if err := CheckPart(PartPath(dir, gformat.ADJ6, 0), gformat.ADJ6); err != nil {
			t.Fatalf("round %d: published part: %v", round, err)
		}
		tmps, _ := filepath.Glob(filepath.Join(dir, "part-*.tmp"))
		if len(tmps) != 0 {
			t.Fatalf("round %d: temp litter %v", round, tmps)
		}
	}
}

// TestAtomicPartSinkOptionsSuffixSeparatesWriters: two writers with
// distinct suffixes publishing the same part never share a temp path,
// and both temps match the sweepable pattern.
func TestAtomicPartSinkOptionsSuffixSeparatesWriters(t *testing.T) {
	final := PartPath(t.TempDir(), gformat.ADJ6, 3)
	a := final + ".aaaa.tmp"
	b := final + ".bbbb.tmp"
	if a == b {
		t.Fatal("suffixed temp paths collide")
	}
	for _, p := range []string{a, b} {
		ok, err := filepath.Match("part-*.tmp", filepath.Base(p))
		if err != nil || !ok {
			t.Fatalf("temp %q does not match the SweepTemps pattern", filepath.Base(p))
		}
	}
}

func equalBytes(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
