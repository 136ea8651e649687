// Package cliflags holds the flags the generator's commands share: the
// graph configuration, the artifact store and the community spec file.
// Each is registered, read and checked in one place, so the commands
// that take them agree on names, defaults and errors.
package cliflags

import (
	"flag"
	"fmt"
	"os"
	"strings"

	trilliong "repro"
	"repro/internal/community"
	"repro/internal/core"
	"repro/internal/skg"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// Graph is a command's graph-configuration flags.
type Graph struct {
	fs             *flag.FlagSet
	prefix, master string
	defaults       core.Config
}

// GraphFlags registers -<prefix>scale, -<prefix>edgefactor,
// -<prefix>seed, -<prefix>noise and the master-seed flag
// -<prefix><master> on fs, defaulting to core.DefaultConfig(defaultScale).
func GraphFlags(fs *flag.FlagSet, prefix, master string, defaultScale int) *Graph {
	d := core.DefaultConfig(defaultScale)
	fs.Int(prefix+"scale", d.Scale, "log2 of the vertex count")
	fs.Int64(prefix+"edgefactor", d.EdgeFactor, "edges per vertex (|E|/|V|)")
	fs.String(prefix+"seed", fmt.Sprintf("%v,%v,%v,%v", d.Seed.A, d.Seed.B, d.Seed.C, d.Seed.D), "seed matrix a,b,c,d")
	fs.Float64(prefix+"noise", d.NoiseParam, "NSKG noise parameter (0 disables, 0.1 standard)")
	fs.Uint64(prefix+master, d.MasterSeed, "master random seed")
	return &Graph{fs: fs, prefix: prefix, master: master, defaults: d}
}

// Scale returns the scale flag's value.
func (g *Graph) Scale() int {
	return g.fs.Lookup(g.prefix + "scale").Value.(flag.Getter).Get().(int)
}

// Apply returns base with the graph flags given on the command line
// set onto it; flags left at their defaults leave base as it is.
func (g *Graph) Apply(base core.Config) (core.Config, error) {
	var err error
	g.fs.Visit(func(f *flag.Flag) {
		v := f.Value.(flag.Getter).Get()
		switch f.Name {
		case g.prefix + "scale":
			base.Scale = v.(int)
		case g.prefix + "edgefactor":
			base.EdgeFactor = v.(int64)
		case g.prefix + "seed":
			base.Seed, err = skg.ParseSeed(v.(string))
		case g.prefix + "noise":
			base.NoiseParam = v.(float64)
		case g.prefix + g.master:
			base.MasterSeed = v.(uint64)
		}
	})
	return base, err
}

// Config returns the configuration the flags describe: the given flags
// applied onto the defaults.
func (g *Graph) Config() (core.Config, error) { return g.Apply(g.defaults) }

// Store is a command's artifact-store flags: the hot tier's directory,
// its size budget and the cold tier behind it.
type Store struct {
	Dir      string
	MaxBytes int64
	Remote   string
	dirFlag  string
}

// StoreFlags registers -<dirFlag> (described by usage),
// -store-max-bytes and -remote-store on fs.
func StoreFlags(fs *flag.FlagSet, dirFlag, usage string) *Store {
	s := &Store{dirFlag: dirFlag}
	fs.StringVar(&s.Dir, dirFlag, "", usage)
	fs.Int64Var(&s.MaxBytes, "store-max-bytes", 0, "store size budget in bytes (0 = unbounded); excess evicted LRU")
	fs.StringVar(&s.Remote, "remote-store", "", "cold tier behind -"+dirFlag+": s3://bucket[/prefix]?endpoint=URL or a directory path")
	return s
}

// Check refuses a cold tier without the hot tier it sits behind.
func (s *Store) Check() error {
	if s.Remote != "" && s.Dir == "" {
		return fmt.Errorf("-remote-store requires -%s (the local hot tier)", s.dirFlag)
	}
	return nil
}

// Open opens the store the flags name, with its cold tier behind it and
// its metrics on tel (which may be nil). No store directory opens
// nothing: (nil, nil).
func (s *Store) Open(tel *telemetry.Registry) (*store.Store, error) {
	if err := s.Check(); err != nil || s.Dir == "" {
		return nil, err
	}
	remote, err := trilliong.OpenStoreBackend(s.Remote, tel)
	if err != nil {
		return nil, fmt.Errorf("-remote-store: %w", err)
	}
	return store.Open(s.Dir, store.Options{MaxBytes: s.MaxBytes, Telemetry: tel, Remote: remote})
}

// Community reads the community spec file at path and resolves its
// layout.
func Community(path string) (*community.Layout, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lay, err := CommunityLayout(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return lay, nil
}

// CommunityLayout resolves a community spec (a spec file's bytes, or
// the one a run manifest records) into its layout.
func CommunityLayout(spec []byte) (*community.Layout, error) {
	cfg, err := community.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	return community.New(cfg)
}

// Surface lists fs's flags, one line each — name, value type, default —
// leaving out the go test runner's own (test.*). It is the form each
// command's flag-surface golden pins.
func Surface(fs *flag.FlagSet) string {
	var b strings.Builder
	fs.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			fmt.Fprintf(&b, "-%s %T %q\n", f.Name, f.Value, f.DefValue)
		}
	})
	return b.String()
}
