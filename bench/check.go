package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"os"
	"sync"

	"repro/internal/core"
	"repro/internal/gformat"
	"repro/internal/partition"
)

// digest is a SHA-256 of one part's (or one stream's) bytes.
type digest [sha256.Size]byte

// reference is what the determinism contract says a job's output must
// be: per part, the digest and size of the bytes core's batch path
// produces in-process for the same configuration, plus the totals.
type reference struct {
	parts []digest
	sizes []int64
	edges int64
	bytes int64
}

// hashingSinks is a sink factory whose writers encode into SHA-256
// instead of files. Only TSV and ADJ6 are needed (CSR6 wants a seeker).
type hashingSinks struct {
	format gformat.Format
	mu     sync.Mutex
	parts  map[int]hashedPart
}

type hashedPart struct {
	sum hash.Hash
	w   gformat.Writer
}

func (h *hashingSinks) factory(worker int, _ partition.Range) (gformat.Writer, error) {
	p := hashedPart{sum: sha256.New()}
	if h.format == gformat.TSV {
		p.w = gformat.NewTSVWriter(p.sum)
	} else {
		p.w = gformat.NewADJ6Writer(p.sum)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.parts == nil {
		h.parts = map[int]hashedPart{}
	}
	h.parts[worker] = p
	return p.w, nil
}

// referenceFor generates cfg's ranges in-process into hashing sinks.
// With ranges nil it is core.Generate with cfg.Workers parts.
func referenceFor(cfg core.Config, format gformat.Format, ranges []partition.Range) (reference, error) {
	h := &hashingSinks{format: format}
	var st core.Stats
	var err error
	if ranges == nil {
		st, err = core.Generate(cfg, h.factory)
	} else {
		st, err = core.GenerateRanges(cfg, ranges, h.factory)
	}
	if err != nil {
		return reference{}, fmt.Errorf("reference generation: %w", err)
	}
	ref := reference{edges: st.Edges, bytes: st.BytesWritten,
		parts: make([]digest, len(h.parts)), sizes: make([]int64, len(h.parts))}
	for i, p := range h.parts {
		copy(ref.parts[i][:], p.sum.Sum(nil))
		ref.sizes[i] = p.w.BytesWritten()
	}
	return ref, nil
}

// fileDigest hashes one file.
func fileDigest(path string) (digest, error) {
	f, err := os.Open(path)
	if err != nil {
		return digest{}, err
	}
	defer f.Close()
	sum := sha256.New()
	if _, err := io.Copy(sum, f); err != nil {
		return digest{}, err
	}
	var d digest
	copy(d[:], sum.Sum(nil))
	return d, nil
}

// checkParts compares the part files of dir with the reference —
// digests when hashIt (warm-up repetitions), sizes only otherwise (timed
// ones) — and returns how many parts are missing or wrong.
func checkParts(dir string, format gformat.Format, ref reference, hashIt bool) (bad int) {
	for i := range ref.parts {
		path := core.PartPath(dir, format, i)
		if hashIt {
			if d, err := fileDigest(path); err != nil || d != ref.parts[i] {
				bad++
			}
		} else if fi, err := os.Stat(path); err != nil || fi.Size() != ref.sizes[i] {
			bad++
		}
	}
	return bad
}

// goldenCounts pins, for the default seed, the output of the workloads
// that have no second mode to compare with: edges and encoded bytes.
// Attempts are left out on purpose — they count work, not output, and
// cutting them is what a dense-row strategy is for.
type goldenCounts struct {
	Edges int64 `json:"edges"`
	Bytes int64 `json:"bytes"`
}

//go:embed golden.json
var goldenJSON []byte

// golden returns the pinned counts for a workload at the given size
// class ("full" or "smoke"), if seed is the default one.
func golden(workload string, smoke bool, seed uint64) (goldenCounts, bool) {
	if seed != defaultSeed {
		return goldenCounts{}, false
	}
	var all map[string]map[string]goldenCounts
	if err := json.Unmarshal(goldenJSON, &all); err != nil {
		panic("bench: golden.json: " + err.Error())
	}
	class := "full"
	if smoke {
		class = "smoke"
	}
	g, ok := all[workload][class]
	return g, ok
}

func (g goldenCounts) check(edges, bytes int64) error {
	if got := (goldenCounts{edges, bytes}); got != g {
		return fmt.Errorf("counts %+v differ from golden.json %+v", got, g)
	}
	return nil
}
