// Command gconvert converts graph files between the three supported
// formats (TSV, ADJ6, CSR6).
//
// Usage:
//
//	gconvert -in tsv -out adj6 graph.tsv graph.adj6
//	gconvert -in adj6 -out csr6 -vertices 1048576 part.adj6 part.csr6
//
// CSR6 output requires -vertices and input scopes in increasing source
// order (which TrillionG part files provide). TSV→CSR6 additionally
// requires the edge list to be grouped by source.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/gformat"
)

func main() {
	var (
		inFmt    = flag.String("in", "tsv", "input format")
		outFmt   = flag.String("out", "adj6", "output format")
		vertices = flag.Int64("vertices", 0, "vertex count (required for csr6 output)")
	)
	flag.Parse()
	if flag.NArg() != 2 {
		fatal(fmt.Errorf("usage: gconvert [-flags] <input> <output>"))
	}
	fi, err := gformat.ParseFormat(*inFmt)
	if err != nil {
		fatal(err)
	}
	fo, err := gformat.ParseFormat(*outFmt)
	if err != nil {
		fatal(err)
	}
	if fo == gformat.CSR6 && *vertices <= 0 {
		fatal(fmt.Errorf("csr6 output requires -vertices"))
	}

	in, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer in.Close()
	out, err := os.Create(flag.Arg(1))
	if err != nil {
		fatal(err)
	}

	w, err := gformat.NewWriter(out, fo, *vertices)
	if err != nil {
		fatal(err)
	}

	if err := copyGraph(in, fi, w); err != nil {
		fatal(err)
	}
	if err := w.Close(); err != nil {
		fatal(err)
	}
	if err := out.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("converted %d edges, %d bytes written\n", w.EdgesWritten(), w.BytesWritten())
}

// copyGraph writes every scope of in, a graph in format fi, to w.
func copyGraph(in io.Reader, fi gformat.Format, w gformat.Writer) error {
	return gformat.Scan(in, fi, w.WriteScope)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gconvert:", err)
	os.Exit(1)
}
