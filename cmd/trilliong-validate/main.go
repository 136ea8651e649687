// Command trilliong-validate checks a generated graph against the
// closed-form expectations of its generating model — the statistical
// fidelity gate of internal/validate as a standalone tool.
//
// Usage:
//
//	trilliong-validate out/                          # params from the run manifest
//	trilliong-validate -scale 13 -noise 0.1 out/     # params from flags
//	trilliong-validate -json out/ > report.json
//	trilliong-validate -store /var/cache/trilliong -scale 13 -parts 4
//	trilliong-validate -community spec.json out/     # community block densities
//
// The directory form streams every part-* file (format inferred per
// file). Generation parameters come from the run manifest written by
// trilliong -resume / -store; explicit flags override manifest values,
// and are required when no manifest exists. The -store form validates
// cached artifact-store entries instead: the run's parts are
// materialized from the store (every part must be cached) and
// validated the same way.
//
// Community-composed output (trilliong -community and friends) is
// validated against its layout: per-block edge densities, intra/inter
// totals, and a stray-edge check that rejects output whose edges land
// outside the planned blocks — a wrong mixing matrix fails here. The
// spec comes from -community or, with no flag, from the run manifest
// the community generators write.
//
// Exit status: 0 when the verdict is pass or warn, 1 when it is fail,
// 2 on operational errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/community"
	"repro/internal/core"
	"repro/internal/gformat"
	"repro/internal/skg"
	"repro/internal/store"
	"repro/internal/validate"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("trilliong-validate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scale      = fs.Int("scale", 0, "log2 of the vertex count (default: from the run manifest)")
		edgeFactor = fs.Int64("edgefactor", 16, "edges per vertex")
		seedSpec   = fs.String("seed", "0.57,0.19,0.19,0.05", "seed matrix a,b,c,d")
		noise      = fs.Float64("noise", 0, "NSKG noise parameter")
		master     = fs.Uint64("master", 1, "master random seed")
		format     = fs.String("format", "adj6", "part format for -store mode")
		storeDir   = fs.String("store", "", "validate artifact-store entries instead of a directory")
		parts      = fs.Int("parts", 0, "partition count of the cached run (-store mode)")
		label      = fs.String("label", "", "report label (default: the validated path)")
		jsonOut    = fs.Bool("json", false, "emit the full report as JSON")
		commPath   = fs.String("community", "", "community spec JSON file: validate block densities against the layout (default: auto-detect from the run manifest)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	dir := fs.Arg(0)
	if (dir == "") == (*storeDir == "") {
		fmt.Fprintln(stderr, "trilliong-validate: need exactly one of an output directory argument or -store")
		return 2
	}

	var commRaw []byte
	if *commPath != "" {
		b, err := os.ReadFile(*commPath)
		if err != nil {
			fmt.Fprintln(stderr, "trilliong-validate:", err)
			return 2
		}
		commRaw = b
	} else if dir != "" {
		// Community runs record their resolved spec in the run manifest;
		// classic runs (or manifest-less directories) don't, and fall
		// through to the closed-form path below.
		if src, _, _, err := core.ReadSourceSpec(dir); err == nil {
			commRaw = src
		}
	}
	if commRaw != nil {
		if dir == "" {
			fmt.Fprintln(stderr, "trilliong-validate: -community needs an output directory argument (not -store)")
			return 2
		}
		return runCommunity(commRaw, dir, *label, *jsonOut, stdout, stderr)
	}

	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	var cfg core.Config
	haveManifest := false
	if dir != "" {
		if man, err := core.ReadRunManifest(dir); err == nil {
			cfg = man.Config
			haveManifest = true
		} else if !set["scale"] {
			fmt.Fprintf(stderr, "trilliong-validate: %v; pass -scale (and friends) explicitly\n", err)
			return 2
		}
	}
	if !haveManifest {
		if *scale == 0 {
			fmt.Fprintln(stderr, "trilliong-validate: -scale is required without a run manifest")
			return 2
		}
		cfg = core.DefaultConfig(*scale)
	}
	// Explicit flags override manifest values.
	if set["scale"] {
		cfg.Scale = *scale
	}
	if set["edgefactor"] {
		cfg.EdgeFactor = *edgeFactor
	}
	if set["noise"] {
		cfg.NoiseParam = *noise
	}
	if set["master"] {
		cfg.MasterSeed = *master
	}
	if set["seed"] {
		s, err := skg.ParseSeed(*seedSpec)
		if err != nil {
			fmt.Fprintln(stderr, "trilliong-validate:", err)
			return 2
		}
		cfg.Seed = s
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(stderr, "trilliong-validate:", err)
		return 2
	}

	acc := validate.NewAccumulator()
	target := dir
	if *storeDir != "" {
		target = "store:" + *storeDir
		if err := consumeStore(acc, cfg, *storeDir, *format, *parts); err != nil {
			fmt.Fprintln(stderr, "trilliong-validate:", err)
			return 2
		}
	} else if err := acc.ConsumeDir(dir); err != nil {
		fmt.Fprintln(stderr, "trilliong-validate:", err)
		return 2
	}

	m, err := validate.FromConfig(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "trilliong-validate:", err)
		return 2
	}
	if *label == "" {
		*label = target
	}
	rep := validate.Evaluate(m, acc, validate.DefaultThresholds(), nil, *label)
	rep.Params = validate.ParamsFromConfig(cfg)

	if *jsonOut {
		b, err := rep.JSON()
		if err != nil {
			fmt.Fprintln(stderr, "trilliong-validate:", err)
			return 2
		}
		stdout.Write(b)
	} else {
		fmt.Fprint(stdout, rep.Summary())
	}
	if rep.Failed() {
		return 1
	}
	return 0
}

// runCommunity validates a directory of community-composed parts
// against the layout its spec resolves to: one consumption pass feeds
// the degree accumulator and the per-block tally at once.
func runCommunity(spec []byte, dir, label string, jsonOut bool, stdout, stderr io.Writer) int {
	cfg, err := community.ParseSpec(spec)
	if err != nil {
		fmt.Fprintln(stderr, "trilliong-validate:", err)
		return 2
	}
	lay, err := community.New(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "trilliong-validate:", err)
		return 2
	}
	acc := validate.NewAccumulator()
	tally := validate.NewCommunityTally(lay)
	acc.SetEdgeHook(tally.Observe)
	if err := acc.ConsumeDir(dir); err != nil {
		fmt.Fprintln(stderr, "trilliong-validate:", err)
		return 2
	}
	if label == "" {
		label = dir
	}
	rep := validate.EvaluateCommunity(lay, acc, tally, validate.DefaultThresholds(), nil, label)
	if jsonOut {
		b, err := rep.JSON()
		if err != nil {
			fmt.Fprintln(stderr, "trilliong-validate:", err)
			return 2
		}
		stdout.Write(b)
	} else {
		fmt.Fprint(stdout, rep.Summary())
	}
	if rep.Failed() {
		return 1
	}
	return 0
}

// consumeStore materializes every part of the configured run from the
// artifact store into a scratch directory and streams it into the
// accumulator. Every part must be cached: a partial set would validate
// a subgraph against whole-graph expectations.
func consumeStore(acc *validate.Accumulator, cfg core.Config, dir, formatName string, parts int) error {
	if parts < 1 {
		return fmt.Errorf("-parts (the partition count of the cached run) is required with -store")
	}
	f, err := gformat.ParseFormat(formatName)
	if err != nil {
		return err
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	ranges, ids, err := cfg.Plan(parts)
	if err != nil {
		return err
	}
	scratch, err := os.MkdirTemp("", "trilliong-validate-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	missing, _, _, err := core.FetchFromStore(st, cfg, scratch, f, ranges, ids)
	if err != nil {
		return err
	}
	if len(missing) > 0 {
		return fmt.Errorf("store is missing %d of %d parts for this configuration", len(missing), len(ranges))
	}
	return acc.ConsumeDir(scratch)
}
