package core

import (
	"crypto/sha256"
	"fmt"
	"hash"

	"repro/internal/gformat"
	"repro/internal/partition"
	"repro/internal/store"
)

// CacheCodecVersion versions the mapping from (Config, range, format)
// to part bytes. Bump it whenever generation or encoding changes in a
// way that alters output bytes, so stale store entries are retired by
// key instead of poisoning reruns.
const CacheCodecVersion = 1

// CacheFingerprint condenses everything about a Config that determines
// generated bytes into the text every store key and run manifest is
// derived from. Each field is written by name, as fmt printed the
// struct when Config also carried sampler options; those are written as
// the one value they could take, so no key moved when the field went.
// Workers is written as 0: part content is fixed by the vertex range
// alone, so runs with different parallelism share cache entries (the
// same normalization the resume manifest uses). A field added to Config
// moves no key unless it is written here, and one that changes the
// bytes must be.
func CacheFingerprint(cfg Config) string {
	s := cfg.Seed
	return fmt.Sprintf("cfg={Scale:%v EdgeFactor:%v Seed:{A:%v B:%v C:%v D:%v} NoiseParam:%v MasterSeed:%v Workers:0 "+
		"Opts:{ReuseVector:true SparseRecursion:true SingleRandom:true LinearSearch:false} "+
		"HighPrecision:%v Orientation:%v AllowDuplicates:%v}",
		cfg.Scale, cfg.EdgeFactor, s.A, s.B, s.C, s.D, cfg.NoiseParam, cfg.MasterSeed,
		cfg.HighPrecision, cfg.Orientation, cfg.AllowDuplicates)
}

// PartKey derives the store key addressing the bytes of range r in the
// given format under cfg. The single-machine resume path, the
// distributed workers and the HTTP service all derive keys here, which
// is what lets them share one store.
func PartKey(cfg Config, format gformat.Format, r partition.Range) store.Key {
	return store.DeriveKey(store.KeyInput{
		ConfigFingerprint: CacheFingerprint(cfg),
		MasterSeed:        cfg.MasterSeed,
		Lo:                r.Lo,
		Hi:                r.Hi,
		Format:            format.String(),
		Codec:             CacheCodecVersion,
	})
}

// FetchFromStore tries to satisfy each (range, id) pair from the store,
// materializing hits at their canonical part paths in dir, and returns
// the pairs that still need generating plus the hit count. Part keys
// come from the source, so community blocks and classic ranges share
// one mechanism (and one store). A nil store passes everything through.
// Corrupt store entries are detected by the store's read-time checksum,
// self-evicted, and simply show up in the missing list.
func FetchFromStore(st *store.Store, src PartSource, dir string, format gformat.Format, ranges []partition.Range, ids []int) (missing []partition.Range, missingIDs []int, hits int, err error) {
	if st == nil {
		return ranges, ids, 0, nil
	}
	for i, r := range ranges {
		_, ok, rerr := st.Retrieve(src.PartKey(format, ids[i], r), PartPath(dir, format, ids[i]))
		if rerr != nil {
			return nil, nil, hits, rerr
		}
		if ok {
			hits++
			continue
		}
		missing = append(missing, r)
		missingIDs = append(missingIDs, ids[i])
	}
	return missing, missingIDs, hits, nil
}

// IngestingSinks wraps an atomic part-sink factory so that each part,
// once its inner writer has closed cleanly (i.e. the part file exists
// complete at its final path), is also ingested into the store under
// its source key. Wrap order matters: IngestingSinks goes outside
// AtomicPartSinks (the file must be renamed into place before ingest
// reads it). It knows nothing of the writers it wraps, so the ingest
// reads each finished part back to hash it; RunParts' own stack
// (storedPartSinks) does not have to.
func IngestingSinks(inner SinkFactory, st *store.Store, src PartSource, dir string, format gformat.Format, ids []int) SinkFactory {
	if st == nil {
		return inner
	}
	return func(worker int, r partition.Range) (gformat.Writer, error) {
		w, err := inner(worker, r)
		if err != nil {
			return nil, err
		}
		return &ingestWriter{
			Writer: w,
			st:     st,
			key:    src.PartKey(format, ids[worker], r),
			path:   PartPath(dir, format, ids[worker]),
		}, nil
	}
}

// storedPartSinks is RunParts' file layer: AtomicPartSinks (with opt)
// under IngestingSinks, built in one place so that the two can share a
// pass over the bytes. When there is a store and the format streams,
// each part's encoder feeds a SHA-256 the blocks it sends to
// the file, and the ingest after the rename hands the store that digest
// and the byte count instead of having the part read back and hashed
// (store.IngestDigest). The digest is of the bytes the encoder produced
// — what the part's key promises. Without a store nothing is hashed;
// CSR6, whose header is back-filled by seeking, is read back as before.
func storedPartSinks(dir string, format gformat.Format, src PartSource, ids []int, st *store.Store, opt PartSinkOptions) SinkFactory {
	if st == nil || !format.Streams() {
		return IngestingSinks(atomicPartSinks(dir, format, src.NumVertices(), ids, opt), st, src, dir, format, ids)
	}
	return func(worker int, r partition.Range) (gformat.Writer, error) {
		sum := sha256.New()
		w, err := newAtomicWriter(dir, format, src.NumVertices(), ids[worker], opt, sum)
		if err != nil {
			return nil, err
		}
		return &ingestWriter{
			Writer: w,
			st:     st,
			key:    src.PartKey(format, ids[worker], r),
			path:   PartPath(dir, format, ids[worker]),
			sum:    sum,
		}, nil
	}
}

type ingestWriter struct {
	gformat.Writer
	st   *store.Store
	key  store.Key
	path string
	sum  hash.Hash // of the bytes Writer encoded, if it kept one
}

func (iw *ingestWriter) Close() error {
	if err := iw.Writer.Close(); err != nil {
		return err
	}
	// The inner close renamed the finished part into place (or, in a
	// shared directory, found a peer's identical part there); ingest the
	// final file. An ingest failure (disk full in the store tree, …)
	// fails the run loudly rather than silently running uncached.
	if iw.sum != nil {
		return iw.st.IngestDigest(iw.key, iw.path, iw.sum.Sum(nil), iw.BytesWritten(), iw.EdgesWritten())
	}
	return iw.st.IngestFile(iw.key, iw.path, iw.EdgesWritten())
}
