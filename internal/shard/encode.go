package shard

import (
	"bufio"
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"path/filepath"

	"repro/internal/codes"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/store"
)

// EncodeOpts splits the contents of r (size bytes) into k+m shards
// written to outDir (m being the code's parity count, 2 for the default
// liberation code), returning the manifest (also written to outDir).
// p = 0 selects the smallest usable prime automatically.
//
// The stream runs on the batch ring shared with decode and repair: the
// calling goroutine fills batch N+1 from r, the code stage encodes
// batch N (in-line, or over a pipeline worker pool when opt.Workers >
// 1), and the output stage writes batch N-1 into the shard files in
// order, so the output is byte-identical to a sequential encode no
// matter the worker count, and every shard write comes from one
// goroutine in a fixed order. A cancelled opt.Context stops the
// stream before the next batch is read. Stripes come from the shared
// stripe pool and are returned on completion; resident memory is
// O(BatchStripes × stripe), independent of size.
//
// On any error every created shard file is removed: a failed encode
// leaves no partial shard set (and no manifest) behind.
func EncodeOpts(r io.Reader, size int64, fileName string, k, p, elemSize int,
	outDir string, opt Options) (_ *Manifest, err error) {
	if size < 0 {
		return nil, fmt.Errorf("%w: negative size", core.ErrParams)
	}
	if elemSize < 1 {
		return nil, fmt.Errorf("%w: element size %d, want at least 1", core.ErrParams, elemSize)
	}
	reg := opt.Registry
	codeName := opt.codeName()
	code, err := newCode(codeName, k, p, reg)
	if err != nil {
		return nil, err
	}
	countShardOp(reg, "encode", codeName)
	ctx, sp := obs.StartOp(opt.context(), opt.Tracer, reg, "shard.encode",
		slog.String("file", filepath.Base(fileName)), slog.Int("k", k))
	defer func() {
		sp.Bytes(int(size)).End(err)
		stampFlight(ctx, err)
	}()
	w := code.W()
	parities := code.M()
	perStripe := int64(k) * int64(w) * int64(elemSize)
	stripes := int((size + perStripe - 1) / perStripe)
	if stripes == 0 {
		stripes = 1
	}
	// Record the resolved prime when the code exposes one (so an auto-
	// selected p survives into the manifest); otherwise keep the request
	// (0 for the non-prime codes), which reconstructs identically.
	mp := p
	if resolved, ok := codes.Prime(code); ok {
		mp = resolved
	}
	m := &Manifest{
		Version:  FormatVersion,
		Code:     codeName,
		K:        k,
		P:        mp,
		M:        parities,
		W:        w,
		ElemSize: elemSize,
		FileName: filepath.Base(fileName),
		FileSize: size,
		Stripes:  stripes,
	}

	// Create the outputs up front — through the store, so creation is
	// retried on transient faults; on any error, remove everything we
	// created so a failed encode leaves no partial shard set behind.
	st := opt.store(ctx)
	var created []string
	files := make([]store.File, k+parities)
	writers := make([]*bufio.Writer, k+parities)
	defer func() {
		if err == nil {
			return
		}
		for _, f := range files {
			if f != nil {
				f.Close()
			}
		}
		for _, path := range created {
			st.Remove(path)
		}
	}()
	for i := range files {
		path := filepath.Join(outDir, m.ShardName(i))
		f, createErr := st.Create(path)
		if createErr != nil {
			err = createErr
			return nil, err
		}
		created = append(created, path)
		files[i] = f
		writers[i] = bufio.NewWriterSize(&store.OffsetWriter{F: f}, 256<<10)
	}

	// The batch ring: the I/O stage fills batches from r (zero-padding
	// the tail), the code stage encodes them, and the output stage
	// writes the k+m strips of each in stream order and folds them into
	// the shard checksums, so shard bytes and checksums match a
	// sequential encode exactly.
	var consumed int64 // owned by fill; read once the ring has stopped
	sums := make([]uint32, k+parities)
	err = runRing(ctx, ringClock{reg: reg, op: "encode"},
		core.SharedStripePool(k, parities, w, elemSize), stripes, opt.batch(), ringStages{
			fill: func(stripes []*core.Stripe) error {
				for _, s := range stripes {
					got, readErr := fillStripe(r, s, k)
					consumed += got
					if readErr != nil {
						return readErr
					}
				}
				return nil
			},
			step: func(stripes []*core.Stripe, _ int) error {
				return encodeBatch(ctx, code, stripes, opt)
			},
			out: func(stripes []*core.Stripe) error {
				for _, s := range stripes {
					for i, strip := range s.Strips {
						if _, writeErr := writers[i].Write(strip); writeErr != nil {
							return writeErr
						}
						sums[i] = crc32.Update(sums[i], crc32.IEEETable, strip)
					}
				}
				return nil
			},
		})
	if err != nil {
		return nil, err
	}
	if consumed != size {
		err = fmt.Errorf("shard: read %d bytes, expected %d", consumed, size)
		return nil, err
	}
	for i := range writers {
		if err = writers[i].Flush(); err != nil {
			return nil, err
		}
		if err = files[i].Sync(); err != nil {
			return nil, err
		}
		if err = files[i].Close(); err != nil {
			files[i] = nil
			return nil, err
		}
		files[i] = nil
	}
	m.Checksums = sums

	// A node-mapped store knows where every shard landed: record the
	// placement (v3 block) so decode sessions and operators can reason
	// about which node outages this shard set survives.
	if mapper, ok := opt.Store.(store.NodeMapper); ok {
		pl := &Placement{Policy: mapper.PlacementPolicy(), Nodes: mapper.NodeCount(),
			Shards: make([]int, k+parities)}
		for i := range pl.Shards {
			pl.Shards[i] = mapper.NodeFor(filepath.Join(outDir, m.ShardName(i)))
		}
		m.Placement = pl
	}

	manifestPath := filepath.Join(outDir, ManifestName(m.FileName))
	created = append(created, manifestPath)
	if err = writeManifest(st, m, manifestPath); err != nil {
		return nil, err
	}
	return m, nil
}

// fillStripe reads one stripe's worth of data strips from r, returning
// the byte count actually read. Hitting EOF is not an error: the
// remainder of the stripe is zero-padded (the caller reconciles the
// total consumed count against the declared size).
func fillStripe(r io.Reader, s *core.Stripe, k int) (int64, error) {
	var total int64
	for t := 0; t < k; t++ {
		strip := s.Strips[t]
		n, err := io.ReadFull(r, strip)
		total += int64(n)
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			for i := n; i < len(strip); i++ {
				strip[i] = 0
			}
			for t++; t < k; t++ {
				strip = s.Strips[t]
				for i := range strip {
					strip[i] = 0
				}
			}
			return total, nil
		}
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// encodeBatch computes the parity strips of every stripe in the batch,
// over a worker pool when the options ask for one.
func encodeBatch(ctx context.Context, code core.Code, stripes []*core.Stripe, opt Options) error {
	if workers := opt.workerCount(); workers > 1 {
		_, err := pipeline.EncodeAllReport(code, stripes, nil,
			pipeline.Config{Workers: workers, Registry: opt.Registry, Context: ctx})
		return err
	}
	for _, s := range stripes {
		if err := code.Encode(s, nil); err != nil {
			return err
		}
	}
	return nil
}
