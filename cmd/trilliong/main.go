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
//
// Every run is resumable: part files are published atomically and the
// directory records the run's manifest, so rerunning the same command
// finishes an interrupted run (or writes nothing), while a different
// configuration is refused instead of mixing two runs' parts.
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
		out        = flag.String("out", "", "output directory (required; created if missing; rerun to finish an interrupted run)")
		hiprec     = flag.Bool("highprecision", false, "use 128-bit float recursive vectors")
		dryRun     = flag.Bool("dryrun", false, "generate and count without writing files")
		estimate   = flag.Bool("estimate", false, "print analytic size estimate and exit (no generation)")
		storeDir   = flag.String("store", "", "artifact store directory: cache parts across runs")
		storeMax   = flag.Int64("store-max-bytes", 0, "store size budget in bytes (0 = unbounded); excess evicted LRU")
		remoteSpec = flag.String("remote-store", "", "cold tier behind -store: s3://bucket[/prefix]?endpoint=URL or a directory path")
		commSpec   = flag.String("community", "", "community spec JSON file: generate a community composition instead of the classic shape")
	)
	flag.Parse()

	if *remoteSpec != "" && *storeDir == "" {
		fatal(fmt.Errorf("-remote-store requires -store (the local hot tier)"))
	}
	f, err := trilliong.ParseFormat(*format)
	if err != nil {
		fatal(err)
	}

	// run draws the graph into -out (through cache, if any) or, if dry,
	// nowhere; header and target describe it.
	var (
		run    func(cache *trilliong.Store) (trilliong.Stats, error)
		dry    bool
		header string
		target int64
	)
	if *commSpec != "" {
		lay := communityLayout(*commSpec)
		run = func(cache *trilliong.Store) (trilliong.Stats, error) {
			return trilliong.GenerateCommunityToDir(lay, *out, f, cache)
		}
		header = fmt.Sprintf("communities      %d (|V| = %d)\nblocks           %d\n",
			len(lay.Sizes()), lay.NumVertices(), lay.NumBlocks())
		target = lay.TotalEdges()
	} else {
		seed, err := skg.ParseSeed(*seedSpec)
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
			printEstimate(cfg)
			return
		}
		run = func(cache *trilliong.Store) (trilliong.Stats, error) {
			return cfg.ResumeToDirCached(*out, f, cache)
		}
		if dry = *dryRun; dry {
			run = func(*trilliong.Store) (trilliong.Stats, error) { return cfg.Count(f) }
		}
		header = fmt.Sprintf("scale            %d (|V| = %d)\n", *scale, cfg.NumVertices())
		target = cfg.NumEdges()
	}

	var cache *trilliong.Store
	if !dry {
		if *out == "" {
			fatal(fmt.Errorf("-out is required (or, for the classic shape, -dryrun)"))
		}
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fatal(err)
		}
		if *storeDir != "" {
			remote, err := trilliong.OpenStoreBackend(*remoteSpec, nil)
			if err != nil {
				fatal(fmt.Errorf("-remote-store: %w", err))
			}
			cache, err = trilliong.OpenStore(*storeDir, trilliong.StoreOptions{MaxBytes: *storeMax, Remote: remote})
			if err != nil {
				fatal(err)
			}
		}
	}
	st, err := run(cache)
	if err != nil {
		fatal(err)
	}

	fmt.Print(header)
	fmt.Printf("edges            %d (target %d)\n", st.Edges, target)
	fmt.Printf("attempts         %d\n", st.Attempts)
	fmt.Printf("max out-degree   %d\n", st.MaxDegree)
	fmt.Printf("format           %s, %d bytes\n", f, st.BytesWritten)
	fmt.Printf("plan / generate  %v / %v\n", st.PlanDuration, st.GenDuration)
	fmt.Printf("elapsed          %v\n", st.Elapsed)
	if st.PeakWorkerBytes > 0 {
		fmt.Printf("peak worker mem  %d bytes (O(d_max))\n", st.PeakWorkerBytes)
	}
	if cache != nil {
		cs := cache.Stats()
		fmt.Printf("parts from cache %d\n", st.PartsFromCache)
		fmt.Printf("store            %d objects, %d bytes (hits %d, misses %d, ingests %d)\n",
			cs.Objects, cs.Bytes, cs.Hits, cs.Misses, cs.Ingests)
	}
}

// communityLayout resolves the community spec file at path.
func communityLayout(path string) *trilliong.CommunityLayout {
	raw, err := os.ReadFile(path)
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
	return lay
}

// printEstimate prints cfg's analytic size in every format.
func printEstimate(cfg trilliong.Config) {
	for _, name := range []string{"tsv", "adj6", "csr6"} {
		ff, _ := trilliong.ParseFormat(name)
		est, err := cfg.EstimateSize(ff)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-5s %16d bytes (%.2f GB)  %d edges, %d active vertices\n",
			ff, est.Bytes, float64(est.Bytes)/(1<<30), est.Edges, est.NonZeroVertices)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "trilliong:", err)
	os.Exit(1)
}
