// Command trilliong generates synthetic scale-free graphs with the
// recursive vector model.
//
// Usage:
//
//	trilliong -scale 20 -out /data/graph -format adj6
//	trilliong -scale 24 -noise 0.1 -format csr6 -workers 8 -out out/
//	trilliong -scale 16 -seed 0.45,0.22,0.22,0.11 -format tsv -out out/
//	trilliong -scale 22 -out out/ -store /var/cache/trilliong   # reruns hit the cache
//	trilliong -community spec.json -format tsv -out out/        # community composition
//
// The output directory receives one part file per worker; the graph is
// a pure function of (flags, -master), independent of -workers. With
// -community the classic shape flags are ignored: the JSON spec is the
// whole configuration, and the output is one part file per community
// block, byte-identical across batch, distributed and masterless runs.
package main

import (
	"flag"
	"fmt"
	"os"

	trilliong "repro"
	"repro/internal/skg"
)

func main() {
	var (
		scale      = flag.Int("scale", 20, "log2 of the vertex count")
		edgeFactor = flag.Int64("edgefactor", 16, "edges per vertex (|E|/|V|)")
		seedSpec   = flag.String("seed", "0.57,0.19,0.19,0.05", "seed matrix a,b,c,d")
		noise      = flag.Float64("noise", 0, "NSKG noise parameter (0 disables, 0.1 standard)")
		master     = flag.Uint64("master", 1, "master random seed")
		workers    = flag.Int("workers", 0, "generation goroutines (0 = GOMAXPROCS)")
		format     = flag.String("format", "adj6", "output format: tsv, adj6 or csr6")
		out        = flag.String("out", "", "output directory (required; created if missing)")
		hiprec     = flag.Bool("highprecision", false, "use 128-bit float recursive vectors")
		dryRun     = flag.Bool("dryrun", false, "generate and count without writing files")
		estimate   = flag.Bool("estimate", false, "print analytic size estimate and exit (no generation)")
		resume     = flag.Bool("resume", false, "atomic part files; skip parts that already exist")
		storeDir   = flag.String("store", "", "artifact store directory: cache parts across runs (implies -resume)")
		storeMax   = flag.Int64("store-max-bytes", 0, "store size budget in bytes (0 = unbounded); excess evicted LRU")
		remoteSpec = flag.String("remote-store", "", "cold tier behind -store: s3://bucket[/prefix]?endpoint=URL or a directory path")
		commSpec   = flag.String("community", "", "community spec JSON file: generate a community composition instead of the classic shape")
	)
	flag.Parse()

	if *remoteSpec != "" && *storeDir == "" {
		fatal(fmt.Errorf("-remote-store requires -store (the local hot tier)"))
	}
	if *commSpec != "" {
		runCommunity(*commSpec, *format, *out, *storeDir, *storeMax, *remoteSpec)
		return
	}
	seed, err := skg.ParseSeed(*seedSpec)
	if err != nil {
		fatal(err)
	}
	f, err := trilliong.ParseFormat(*format)
	if err != nil {
		fatal(err)
	}
	cfg := trilliong.New(*scale)
	cfg.EdgeFactor = *edgeFactor
	cfg.Seed = seed
	cfg.NoiseParam = *noise
	cfg.MasterSeed = *master
	cfg.Workers = *workers
	cfg.HighPrecision = *hiprec
	if err := cfg.Validate(); err != nil {
		fatal(err)
	}

	if *estimate {
		for _, name := range []string{"tsv", "adj6", "csr6"} {
			ff, _ := trilliong.ParseFormat(name)
			est, err := cfg.EstimateSize(ff)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%-5s %16d bytes (%.2f GB)  %d edges, %d active vertices\n",
				ff, est.Bytes, float64(est.Bytes)/(1<<30), est.Edges, est.NonZeroVertices)
		}
		return
	}

	var (
		st    trilliong.Stats
		cache *trilliong.Store
	)
	if *dryRun {
		st, err = cfg.Count(f)
	} else {
		if *out == "" {
			fatal(fmt.Errorf("-out is required (or use -dryrun)"))
		}
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fatal(err)
		}
		if *storeDir != "" {
			remote, rerr := trilliong.OpenStoreBackend(*remoteSpec, nil)
			if rerr != nil {
				fatal(fmt.Errorf("-remote-store: %w", rerr))
			}
			cache, err = trilliong.OpenStore(*storeDir, trilliong.StoreOptions{MaxBytes: *storeMax, Remote: remote})
			if err != nil {
				fatal(err)
			}
			st, err = cfg.ResumeToDirCached(*out, f, cache)
		} else if *resume {
			st, err = cfg.ResumeToDir(*out, f)
		} else {
			st, err = cfg.GenerateToDir(*out, f)
		}
	}
	if err != nil {
		fatal(err)
	}

	fmt.Printf("scale            %d (|V| = %d)\n", *scale, cfg.NumVertices())
	fmt.Printf("edges            %d (target %d)\n", st.Edges, cfg.NumEdges())
	fmt.Printf("attempts         %d\n", st.Attempts)
	fmt.Printf("max out-degree   %d\n", st.MaxDegree)
	fmt.Printf("format           %s, %d bytes\n", f, st.BytesWritten)
	fmt.Printf("plan / generate  %v / %v\n", st.PlanDuration, st.GenDuration)
	fmt.Printf("elapsed          %v\n", st.Elapsed)
	fmt.Printf("peak worker mem  %d bytes (O(d_max))\n", st.PeakWorkerBytes)
	if cache != nil {
		cs := cache.Stats()
		fmt.Printf("parts from cache %d\n", st.PartsFromCache)
		fmt.Printf("store            %d objects, %d bytes (hits %d, misses %d, ingests %d)\n",
			cs.Objects, cs.Bytes, cs.Hits, cs.Misses, cs.Ingests)
	}
}

// runCommunity generates a community composition: one part file per
// block, resumable, optionally store-backed.
func runCommunity(specPath, format, out, storeDir string, storeMax int64, remoteSpec string) {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		fatal(err)
	}
	cfg, err := trilliong.ParseCommunitySpec(raw)
	if err != nil {
		fatal(err)
	}
	lay, err := trilliong.NewCommunityLayout(cfg)
	if err != nil {
		fatal(err)
	}
	f, err := trilliong.ParseFormat(format)
	if err != nil {
		fatal(err)
	}
	if out == "" {
		fatal(fmt.Errorf("-out is required with -community"))
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		fatal(err)
	}
	var cache *trilliong.Store
	if storeDir != "" {
		remote, rerr := trilliong.OpenStoreBackend(remoteSpec, nil)
		if rerr != nil {
			fatal(fmt.Errorf("-remote-store: %w", rerr))
		}
		cache, err = trilliong.OpenStore(storeDir, trilliong.StoreOptions{MaxBytes: storeMax, Remote: remote})
		if err != nil {
			fatal(err)
		}
	}
	st, err := trilliong.GenerateCommunityToDir(lay, out, f, cache)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("communities      %d (|V| = %d)\n", len(lay.Sizes()), lay.NumVertices())
	fmt.Printf("blocks           %d\n", lay.NumBlocks())
	fmt.Printf("edges            %d (target %d)\n", st.Edges, lay.TotalEdges())
	fmt.Printf("attempts         %d\n", st.Attempts)
	fmt.Printf("max out-degree   %d\n", st.MaxDegree)
	fmt.Printf("format           %s, %d bytes\n", f, st.BytesWritten)
	fmt.Printf("plan / generate  %v / %v\n", st.PlanDuration, st.GenDuration)
	fmt.Printf("elapsed          %v\n", st.Elapsed)
	if cache != nil {
		cs := cache.Stats()
		fmt.Printf("parts from cache %d\n", st.PartsFromCache)
		fmt.Printf("store            %d objects, %d bytes (hits %d, misses %d, ingests %d)\n",
			cs.Objects, cs.Bytes, cs.Hits, cs.Misses, cs.Ingests)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "trilliong:", err)
	os.Exit(1)
}
