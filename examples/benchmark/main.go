// Benchmark-dataset workflow (the paper's first motivation): generate a
// graph in the CSR6 format, load it, and run a breadth-first search
// over it — the Graph500 kernel — timing both phases. This is the
// end-to-end loop a graph-processing evaluation would run.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	trilliong "repro"
)

func main() {
	dir, err := os.MkdirTemp("", "trilliong-example-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	cfg := trilliong.New(17) // 131k vertices, 2.1M edges
	cfg.MasterSeed = 99
	cfg.Workers = 1 // one part file → one CSR image

	start := time.Now()
	stats, err := cfg.GenerateToDir(dir, trilliong.CSR6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generate: %d edges to CSR6 in %v (%d bytes)\n",
		stats.Edges, time.Since(start), stats.BytesWritten)

	parts, _ := filepath.Glob(filepath.Join(dir, "part-*.csr6"))
	f, err := os.Open(parts[0])
	if err != nil {
		log.Fatal(err)
	}
	start = time.Now()
	g, err := trilliong.ReadCSR6(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("load:     %d vertices, %d edges in %v\n",
		g.NumVertices, g.NumEdges(), time.Since(start))

	// BFS from the highest-degree vertex (Graph500 kernel 2 style).
	root := trilliong.MaxDegreeVertex(g)
	start = time.Now()
	bfs, err := trilliong.BFS(g, root)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	teps := float64(bfs.TraversedEdges) / elapsed.Seconds()

	fmt.Printf("bfs:      root %d (degree %d) reached %d/%d vertices in %v\n",
		root, g.Degree(root), bfs.Visited, g.NumVertices, elapsed)
	fmt.Printf("          %.2f MTEPS (traversed edges per second, Graph500 metric)\n", teps/1e6)
	fmt.Println("          frontier sizes per level:")
	for lvl, n := range bfs.LevelSizes {
		fmt.Printf("            level %d: %d\n", lvl, n)
	}

	// Connectivity and PageRank round out the evaluation loop.
	start = time.Now()
	frac := trilliong.LargestComponentFraction(g)
	fmt.Printf("wcc:      giant component holds %.1f%% of vertices (%v)\n",
		100*frac, time.Since(start))
	start = time.Now()
	rank, iters := trilliong.PageRank(g, 0.85, 1e-9, 100)
	var maxRank float64
	var hub int64
	for v, r := range rank {
		if r > maxRank {
			maxRank, hub = r, int64(v)
		}
	}
	fmt.Printf("pagerank: converged in %d iterations (%v); hub %d holds %.4f%% of rank\n",
		iters, time.Since(start), hub, 100*maxRank)
}
