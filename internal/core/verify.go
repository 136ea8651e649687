package core

import (
	"fmt"
	"os"

	"repro/internal/gformat"
)

// CheckPart validates that the part file at path is a structurally
// complete artifact of its format. It exists because resume logic
// treats a part file's *presence* as proof of completeness — which the
// atomic sinks guarantee under ordered rename, but a kill -9 on a
// filesystem without that ordering (or any external corruption) can
// leave a truncated file under its final name. The checks are
// format-shaped:
//
//   - TSV: every line is "src<TAB>dst\n", the last included (a torn
//     write ends in a partial line — which may still parse, cut inside a
//     destination's digits, so the newline is what is checked).
//   - ADJ6: every record's declared adjacency count is satisfied by the
//     bytes that follow (truncation surfaces as a short record).
//   - CSR6: header magic, size arithmetic and final offset agree
//     (O(1) — the structure itself is the footer).
//
// An empty TSV/ADJ6 file is valid (a range of only zero-degree
// vertices writes nothing).
func CheckPart(path string, format gformat.Format) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	switch format {
	case gformat.TSV:
		err = gformat.CheckTSV(f)
	case gformat.ADJ6:
		err = gformat.CheckADJ6(f)
	case gformat.CSR6:
		err = gformat.CheckCSR6(f)
	default:
		return fmt.Errorf("core: unsupported format %v", format)
	}
	if err != nil {
		return fmt.Errorf("core: part %s: %w", path, err)
	}
	return nil
}
