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
// file). Generation parameters come from the run manifest every
// trilliong run records in its output directory; explicit flags
// override manifest values, and are required when no manifest exists.
// The -store form validates cached artifact-store entries instead: the
// run's parts are materialized from the store (every part must be
// cached) and validated the same way.
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
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/cmd/internal/cliflags"
	"repro/internal/community"
	"repro/internal/core"
	"repro/internal/gformat"
	"repro/internal/store"
	"repro/internal/validate"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options holds the flag values, registered by defineFlags.
type options struct {
	graph                             *cliflags.Graph
	format, storeDir, label, commPath string
	parts                             int
	jsonOut                           bool
}

func defineFlags(fs *flag.FlagSet) *options {
	o := &options{graph: cliflags.GraphFlags(fs, "", "master", 0)}
	fs.Lookup("scale").Usage = "log2 of the vertex count (default: from the run manifest)"
	fs.StringVar(&o.format, "format", "adj6", "part format for -store mode")
	fs.StringVar(&o.storeDir, "store", "", "validate artifact-store entries instead of a directory")
	fs.IntVar(&o.parts, "parts", 0, "partition count of the cached run (-store mode)")
	fs.StringVar(&o.label, "label", "", "report label (default: the validated path)")
	fs.BoolVar(&o.jsonOut, "json", false, "emit the full report as JSON")
	fs.StringVar(&o.commPath, "community", "", "community spec JSON file: validate block densities against the layout (default: auto-detect from the run manifest)")
	return o
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("trilliong-validate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := defineFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rep, err := o.report(fs.Arg(0))
	var out []byte
	switch {
	case err != nil:
	case o.jsonOut:
		out, err = rep.JSON()
	default:
		out = []byte(rep.Summary())
	}
	if err != nil {
		fmt.Fprintln(stderr, "trilliong-validate:", err)
		return 2
	}
	stdout.Write(out)
	if rep.Failed() {
		return 1
	}
	return 0
}

// report validates the output directory dir, or the -store entries of
// the configured run, against the expectations of what generated it.
func (o *options) report(dir string) (*validate.Report, error) {
	if (dir == "") == (o.storeDir == "") {
		return nil, errors.New("need exactly one of an output directory argument or -store")
	}

	// A classic run's manifest records its config, a community run's its
	// resolved spec; without one, flags say what the directory holds.
	var (
		man    *core.RunManifest
		manErr error
		lay    *community.Layout
		err    error
	)
	if dir != "" {
		man, manErr = core.ReadRunManifest(dir)
	}
	if o.commPath != "" {
		lay, err = cliflags.Community(o.commPath)
	} else if man != nil && man.Source != nil {
		lay, err = cliflags.CommunityLayout(man.Source)
	}
	if err != nil {
		return nil, err
	}
	if lay != nil {
		if dir == "" {
			return nil, errors.New("-community needs an output directory argument (not -store)")
		}
		return communityReport(lay, dir, cmp.Or(o.label, dir))
	}

	// Explicit flags override the manifest's values; without a manifest
	// they are the configuration, and -scale must be among them.
	base := core.DefaultConfig(0)
	switch {
	case man != nil && man.Config != nil:
		base = *man.Config
	case dir != "" && o.graph.Scale() == 0:
		return nil, fmt.Errorf("%v; pass -scale (and friends) explicitly", manErr)
	case o.graph.Scale() == 0:
		return nil, errors.New("-scale is required without a run manifest")
	}
	cfg, err := o.graph.Apply(base)
	if err == nil {
		err = cfg.Validate()
	}
	if err != nil {
		return nil, err
	}

	acc := validate.NewAccumulator()
	target := dir
	if o.storeDir != "" {
		target = "store:" + o.storeDir
		err = consumeStore(acc, cfg, o.storeDir, o.format, o.parts)
	} else {
		err = acc.ConsumeDir(dir)
	}
	if err != nil {
		return nil, err
	}
	m, err := validate.FromConfig(cfg)
	if err != nil {
		return nil, err
	}
	rep := validate.Evaluate(m, acc, validate.DefaultThresholds(), nil, cmp.Or(o.label, target))
	rep.Params = validate.ParamsFromConfig(cfg)
	return rep, nil
}

// communityReport validates a directory of community-composed parts
// against their layout: one consumption pass feeds
// the degree accumulator and the per-block tally at once.
func communityReport(lay *community.Layout, dir, label string) (*validate.Report, error) {
	acc := validate.NewAccumulator()
	tally := validate.NewCommunityTally(lay)
	acc.SetEdgeHook(tally.Observe)
	if err := acc.ConsumeDir(dir); err != nil {
		return nil, err
	}
	return validate.EvaluateCommunity(lay, acc, tally, validate.DefaultThresholds(), nil, label), nil
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
