// Command gmarkgen generates rich, schema-driven graphs (Section 6):
// multiple node types, edge predicates and independent degree
// distributions, described by a JSON graph configuration.
//
// Usage:
//
//	gmarkgen -schema bib.json -out graph.ntsv
//	gmarkgen -builtin bibliography -vertices 1000000 -edges 16000000 -out graph.ntsv
//	gmarkgen -builtin bibliography -print-schema       # dump the example JSON
//
// Output is predicate-labeled TSV: "src<TAB>predicate<TAB>dst" per
// line, plus a sidecar <out>.types file mapping node-type ID ranges.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	trilliong "repro"
)

func main() {
	var (
		schemaPath  = flag.String("schema", "", "JSON graph configuration file")
		builtin     = flag.String("builtin", "", "built-in schema name (bibliography or socialnetwork)")
		vertices    = flag.Int64("vertices", 1_000_000, "vertex count for built-in schemas")
		edges       = flag.Int64("edges", 16_000_000, "edge budget for built-in schemas")
		masterSeed  = flag.Uint64("master", 1, "master random seed")
		out         = flag.String("out", "", "output file (labeled TSV)")
		printSchema = flag.Bool("print-schema", false, "print the schema JSON and exit")
	)
	flag.Parse()

	schema, err := loadSchema(*schemaPath, *builtin, *vertices, *edges)
	if err != nil {
		fatal(err)
	}

	if *printSchema {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(schema); err != nil {
			fatal(err)
		}
		return
	}
	if *out == "" {
		fatal(fmt.Errorf("-out is required"))
	}

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	w := bufio.NewWriterSize(f, 1<<16)
	counts, err := schema.Generate(*masterSeed, func(pred string, src int64, dsts []int64) error {
		for _, d := range dsts {
			if _, err := fmt.Fprintf(w, "%d\t%s\t%d\n", src, pred, d); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		fatal(err)
	}
	if err := w.Flush(); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}

	// Sidecar: node-type ranges.
	tf, err := os.Create(*out + ".types")
	if err != nil {
		fatal(err)
	}
	for _, r := range schema.Ranges() {
		fmt.Fprintf(tf, "%s\t%d\t%d\n", r.Type, r.Lo, r.Hi)
	}
	if err := tf.Close(); err != nil {
		fatal(err)
	}

	var total int64
	for _, pred := range schema.Predicates() {
		fmt.Printf("%-16s %d edges\n", pred, counts[pred])
		total += counts[pred]
	}
	fmt.Printf("%-16s %d edges → %s\n", "total", total, *out)
}

// loadSchema resolves the -schema / -builtin flag pair: an explicit
// JSON file wins, otherwise a built-in schema is instantiated at the
// requested size.
func loadSchema(schemaPath, builtin string, vertices, edges int64) (*trilliong.Schema, error) {
	switch {
	case schemaPath != "":
		f, err := os.Open(schemaPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return trilliong.ParseSchema(f)
	case builtin == "bibliography":
		return trilliong.BibliographySchema(vertices, edges), nil
	case builtin == "socialnetwork":
		return trilliong.SocialNetworkSchema(vertices, edges), nil
	case builtin != "":
		return nil, fmt.Errorf("unknown builtin %q (want bibliography or socialnetwork)", builtin)
	default:
		return nil, fmt.Errorf("need -schema FILE or -builtin bibliography|socialnetwork")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gmarkgen:", err)
	os.Exit(1)
}
