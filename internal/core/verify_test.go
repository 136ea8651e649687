package core

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gformat"
)

// adj6Bytes encodes `records` scopes of `degree` destinations each.
func adj6Bytes(t *testing.T, records, degree int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := gformat.NewADJ6Writer(&buf)
	dsts := make([]int64, degree)
	for i := 0; i < records; i++ {
		for j := range dsts {
			dsts[j] = int64(i*degree + j)
		}
		if err := w.WriteScope(int64(i), dsts); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func writePart(t *testing.T, data []byte) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "part-00000.adj6")
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// readerWalkADJ6 is the materialising walk CheckPart replaced, kept as
// its oracle: the stream is whole iff ADJ6Reader.Next ends on the bare
// io.EOF it returns between records. (An EOF wrapped in a truncation
// error is a truncation: the walk CheckPart used to do matched it with
// errors.Is and passed parts cut on a destination boundary.)
func readerWalkADJ6(data []byte) bool {
	r := gformat.NewADJ6Reader(bytes.NewReader(data))
	for {
		if _, _, err := r.Next(); err != nil {
			return err == io.EOF
		}
	}
}

// TestCheckPartADJ6EveryTruncation: cut at every byte offset, the
// head-and-skip walk accepts exactly what the reader-based walk
// accepts — the empty file, the whole file and cuts between records.
func TestCheckPartADJ6EveryTruncation(t *testing.T) {
	data := append(adj6Bytes(t, 3, 2), adj6Bytes(t, 1, 5)...)
	accepted := 0
	for cut := 0; cut <= len(data); cut++ {
		err := CheckPart(writePart(t, data[:cut]), gformat.ADJ6)
		if want := readerWalkADJ6(data[:cut]); (err == nil) != want {
			t.Errorf("cut at %d of %d: CheckPart = %v, reader walk accepts = %v", cut, len(data), err, want)
		}
		if err == nil {
			accepted++
		}
	}
	if accepted != 5 { // before each of the four records, and the end
		t.Errorf("%d truncations accepted, want 5", accepted)
	}
}

// TestCheckPartADJ6Allocations: the walk allocates per call, not per
// record, and a head declaring 2³²−1 destinations is a truncation error
// found without allocating for them. Under the race detector only the
// verdicts are checked: its own allocations made the counts differ about
// four runs in ten.
func TestCheckPartADJ6Allocations(t *testing.T) {
	allocs := func(path string, wantOK bool) float64 {
		check := func() {
			if err := CheckPart(path, gformat.ADJ6); (err == nil) != wantOK {
				t.Fatalf("CheckPart(%s) = %v", path, err)
			}
		}
		if raceEnabled {
			check()
			return 0
		}
		return testing.AllocsPerRun(10, check)
	}
	few, many := allocs(writePart(t, adj6Bytes(t, 4, 3)), true), allocs(writePart(t, adj6Bytes(t, 4000, 3)), true)
	if many != few {
		t.Errorf("%v allocations for 4000 records, %v for 4: the walk allocates per record", many, few)
	}
	corrupt := adj6Bytes(t, 2, 3)
	binary.LittleEndian.PutUint32(corrupt[6:], 1<<32-1)
	if n := allocs(writePart(t, corrupt), false); n > few+8 { // the error's own few allocations
		t.Errorf("%v allocations on a corrupt count, %v on a valid part", n, few)
	}
}

// TestResumeRejectsPartTornInsideDigits: a TSV part cut inside a
// destination's digits still ends in a line that parses — "4\t5" torn
// from "4\t56\n" — and used to pass for complete, so resume kept a wrong
// edge and dropped the rest. It must be found missing and regenerated.
func TestResumeRejectsPartTornInsideDigits(t *testing.T) {
	torn := filepath.Join(t.TempDir(), "part-00000.tsv")
	if err := os.WriteFile(torn, []byte("1\t23\n4\t5"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := CheckPart(torn, gformat.TSV); err == nil {
		t.Fatal(`CheckPart accepts "1\t23\n4\t5"`)
	}

	cfg := DefaultConfig(9)
	cfg.Workers = 2
	dir := t.TempDir()
	if _, err := ResumeToDirStore(cfg, dir, gformat.TSV, nil); err != nil {
		t.Fatal(err)
	}
	victim := PartPath(dir, gformat.TSV, 1)
	whole := readFile(t, victim)
	cut := len(whole) - 1
	for ; cut > 1; cut-- { // the last two-digit run before a newline: keep its first digit
		if whole[cut] == '\n' && whole[cut-1] != '\t' && whole[cut-2] != '\t' {
			break
		}
	}
	if err := os.WriteFile(victim, whole[:cut-1], 0o644); err != nil {
		t.Fatal(err)
	}
	ranges, err := Plan(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ids := MissingParts(dir, gformat.TSV, ranges, []int{0, 1}); len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("missing parts %v, want [1]", ids)
	}
	if stats, err := ResumeToDirStore(cfg, dir, gformat.TSV, nil); err != nil || stats.Edges == 0 {
		t.Fatalf("resume over the torn part: %+v, %v", stats, err)
	}
	if !bytes.Equal(readFile(t, victim), whole) {
		t.Fatal("the torn part was not regenerated whole")
	}
}
