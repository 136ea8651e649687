package validate

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/gformat"
	"repro/internal/partition"
	"repro/internal/stats"
)

// Accumulator collects the observed side of a validation in one pass:
// degree histograms and the edge total, with memory proportional to
// the number of *active* vertices, never to edges. It is safe for
// concurrent use, so one accumulator can ride along a multi-worker
// generation via CollectingSinks.
//
// Empty scopes are deliberately not recorded: ADJ6 writers omit them,
// TSV has no scope notion at all, and CSR6 materializes every vertex —
// recording them per format would make the observed counts an artifact
// of the encoding. Zero-degree populations are instead derived from
// the model's vertex-range size at Evaluate time, which is what makes
// the three encodings of one graph validate byte-identically.
type Accumulator struct {
	mu      sync.Mutex
	counter *stats.DegreeCounter
	edges   int64
	files   int
	hook    func(src, dst int64)
}

// SetEdgeHook installs fn to observe every edge the accumulator
// records, scope-expanded to (src, dst) pairs. The hook runs under the
// accumulator's lock (so it may be a plain closure over plain state)
// and must be installed before consumption starts. Community
// validation uses it to tally edges per block in the same single pass.
func (a *Accumulator) SetEdgeHook(fn func(src, dst int64)) {
	a.mu.Lock()
	a.hook = fn
	a.mu.Unlock()
}

// NewAccumulator returns an empty accumulator.
func NewAccumulator() *Accumulator {
	return &Accumulator{counter: stats.NewDegreeCounter()}
}

// AddScope records one scope (src with its destination list).
func (a *Accumulator) AddScope(src int64, dsts []int64) {
	if len(dsts) == 0 {
		return
	}
	a.mu.Lock()
	a.counter.AddScope(src, dsts)
	a.edges += int64(len(dsts))
	if a.hook != nil {
		for _, dst := range dsts {
			a.hook(src, dst)
		}
	}
	a.mu.Unlock()
}

// AddEdge records one edge.
func (a *Accumulator) AddEdge(src, dst int64) {
	a.mu.Lock()
	a.counter.AddEdge(src, dst)
	a.edges++
	if a.hook != nil {
		a.hook(src, dst)
	}
	a.mu.Unlock()
}

// Edges returns the number of edges recorded so far.
func (a *Accumulator) Edges() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.edges
}

// Files returns how many part files were consumed.
func (a *Accumulator) Files() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.files
}

// snapshot extracts everything Evaluate needs under one lock.
func (a *Accumulator) snapshot() (out, in stats.Hist, outDegrees []int64, touched, edges int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.counter.OutHistFull(), a.counter.InHistFull(),
		a.counter.OutDegrees(), a.counter.Touched(), a.edges
}

// FormatForPath infers the part-file format from the file extension.
func FormatForPath(path string) (gformat.Format, error) {
	ext := strings.TrimPrefix(filepath.Ext(path), ".")
	f, err := gformat.ParseFormat(ext)
	if err != nil {
		return f, fmt.Errorf("validate: cannot infer format of %s: %w", path, err)
	}
	return f, nil
}

// ConsumeFile streams one part file into the accumulator.
func (a *Accumulator) ConsumeFile(path string, f gformat.Format) error {
	file, err := os.Open(path)
	if err != nil {
		return err
	}
	defer file.Close()
	switch f {
	case gformat.TSV:
		r := gformat.NewTSVReader(file)
		for {
			e, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			a.AddEdge(e.Src, e.Dst)
		}
	case gformat.ADJ6:
		r := gformat.NewADJ6Reader(file)
		for {
			src, dsts, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			a.AddScope(src, dsts)
		}
	case gformat.CSR6:
		g, err := gformat.ReadCSR6(file)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		for v := int64(0); v < g.NumVertices; v++ {
			a.AddScope(v, g.Adj(v))
		}
	default:
		return fmt.Errorf("validate: unsupported format %v", f)
	}
	a.mu.Lock()
	a.files++
	a.mu.Unlock()
	return nil
}

// ConsumeDir streams every part-* file in dir, inferring each file's
// format from its extension. It errors if the directory holds no part
// files.
func (a *Accumulator) ConsumeDir(dir string) error {
	matches, err := filepath.Glob(filepath.Join(dir, "part-*"))
	if err != nil {
		return err
	}
	sort.Strings(matches)
	n := 0
	for _, path := range matches {
		if strings.HasSuffix(path, ".tmp") {
			continue
		}
		f, err := FormatForPath(path)
		if err != nil {
			return err
		}
		if err := a.ConsumeFile(path, f); err != nil {
			return err
		}
		n++
	}
	if n == 0 {
		return fmt.Errorf("validate: no part files in %s", dir)
	}
	return nil
}

// CollectingSinks wraps a sink factory so every scope is recorded into
// the accumulator on its way to the inner sinks — validation riding
// along generation instead of re-reading the output. Compose freely
// with core.DiscardSinks.
func CollectingSinks(inner core.SinkFactory, a *Accumulator) core.SinkFactory {
	return func(worker int, r partition.Range) (gformat.Writer, error) {
		w, err := inner(worker, r)
		if err != nil {
			return nil, err
		}
		return &collectingWriter{Writer: w, acc: a}, nil
	}
}

type collectingWriter struct {
	gformat.Writer
	acc *Accumulator
}

func (c *collectingWriter) WriteScope(src int64, dsts []int64) error {
	c.acc.AddScope(src, dsts)
	return c.Writer.WriteScope(src, dsts)
}
