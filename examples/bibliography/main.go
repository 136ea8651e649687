// Rich-graph benchmark database: generate the paper's bibliographical
// example (Figure 7) — researchers authoring papers published in
// conferences, with Zipfian authorship and Gaussian paper-author counts
// — using the extended recursive vector model, then verify the schema's
// degree contracts.
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"

	trilliong "repro"
)

func main() {
	schema := trilliong.BibliographySchema(200_000, 1_600_000)

	// Schemas are plain JSON; print it so users can copy and edit.
	spec, err := json.MarshalIndent(schema, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("graph configuration:")
	fmt.Println(string(spec))

	// Node-type ID ranges (the vertical slices of Figure 7b).
	fmt.Println("\nvertex ranges:")
	for _, r := range schema.Ranges() {
		fmt.Printf("  %-12s [%d, %d)\n", r.Type, r.Lo, r.Hi)
	}

	// Generate, writing labeled edges as TSV-with-predicate to stdout
	// would be huge; instead collect per-predicate statistics.
	type predStat struct {
		edges     int64
		scopes    int64
		maxOut    int
		inDegrees map[int64]int64
	}
	statsByPred := make(map[string]*predStat)
	counts, err := schema.Generate(2026, func(pred string, src int64, dsts []int64) error {
		ps := statsByPred[pred]
		if ps == nil {
			ps = &predStat{inDegrees: make(map[int64]int64)}
			statsByPred[pred] = ps
		}
		ps.edges += int64(len(dsts))
		ps.scopes++
		if len(dsts) > ps.maxOut {
			ps.maxOut = len(dsts)
		}
		for _, d := range dsts {
			ps.inDegrees[d]++
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\ngenerated edges per predicate:")
	for _, pred := range schema.Predicates() {
		n, ps := counts[pred], statsByPred[pred]
		var maxIn int64
		var sumIn int64
		for _, d := range ps.inDegrees {
			sumIn += d
			if d > maxIn {
				maxIn = d
			}
		}
		meanIn := float64(sumIn) / float64(len(ps.inDegrees))
		fmt.Printf("  %-12s %8d edges  sources %6d  max out %5d  mean in %.1f  max in %d\n",
			pred, n, ps.scopes, ps.maxOut, meanIn, maxIn)
	}

	fmt.Println("\ncontract checks:")
	author := statsByPred["author"]
	fmt.Printf("  authorship is Zipfian: one researcher wrote %d papers while the median wrote ~2\n",
		author.maxOut)
	pub := statsByPred["publishedIn"]
	fmt.Printf("  every paper is published exactly once: %d papers → %d publishedIn edges\n",
		pub.scopes, pub.edges)
	if pub.scopes != pub.edges {
		fmt.Fprintln(os.Stderr, "BUG: publication contract violated")
		os.Exit(1)
	}
}
