package main

import (
	"sync/atomic"
	"time"

	"repro/internal/store"
)

// ioCounts is what countingStore saw during one shard call. Calls and
// bytes are always counted; the *Time fields are filled only when the
// call is traced.
type ioCounts struct {
	readBytes, readCalls   atomic.Int64
	writeBytes, writeCalls atomic.Int64
	syncCalls, openCalls   atomic.Int64
	readTime, writeTime    atomic.Int64 // ns
	syncTime               atomic.Int64 // ns
}

// countingStore is the benchmark's store.Store decorator: it sits under
// shard's own retry and metrics layers (passed as shard.Options.Store),
// so it sees the I/O that actually reaches the filesystem. It
// deliberately implements neither store.ContextBinder nor
// store.NodeMapper: shard then takes exactly the branches it takes with
// a bare store.OS.
type countingStore struct {
	inner store.Store
	c     *ioCounts
	tr    *opTrace // nil when untraced
}

func (s *countingStore) Open(path string) (store.File, error) {
	return s.open("store.open", path, s.inner.Open)
}

func (s *countingStore) Create(path string) (store.File, error) {
	return s.open("store.create", path, s.inner.Create)
}

func (s *countingStore) open(name, path string, fn func(string) (store.File, error)) (store.File, error) {
	s.c.openCalls.Add(1)
	t0 := s.tr.now()
	f, err := fn(path)
	s.tr.child(name, t0)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, c: s.c, tr: s.tr}, nil
}

func (s *countingStore) Rename(oldPath, newPath string) error {
	t0 := s.tr.now()
	err := s.inner.Rename(oldPath, newPath)
	s.tr.child("store.rename", t0)
	return err
}

func (s *countingStore) Remove(path string) error {
	t0 := s.tr.now()
	err := s.inner.Remove(path)
	s.tr.child("store.remove", t0)
	return err
}

type countingFile struct {
	store.File
	c  *ioCounts
	tr *opTrace
}

func (f *countingFile) ReadAt(p []byte, off int64) (int, error) {
	t0 := f.tr.now()
	n, err := f.File.ReadAt(p, off)
	f.c.readTime.Add(int64(f.tr.child("store.read", t0)))
	f.c.readCalls.Add(1)
	f.c.readBytes.Add(int64(n))
	return n, err
}

func (f *countingFile) WriteAt(p []byte, off int64) (int, error) {
	t0 := f.tr.now()
	n, err := f.File.WriteAt(p, off)
	f.c.writeTime.Add(int64(f.tr.child("store.write", t0)))
	f.c.writeCalls.Add(1)
	f.c.writeBytes.Add(int64(n))
	return n, err
}

func (f *countingFile) Sync() error {
	t0 := f.tr.now()
	err := f.File.Sync()
	f.c.syncTime.Add(int64(f.tr.child("store.sync", t0)))
	f.c.syncCalls.Add(1)
	return err
}

func (f *countingFile) Size() (int64, error) {
	t0 := f.tr.now()
	n, err := f.File.Size()
	f.tr.child("store.size", t0)
	return n, err
}

func (f *countingFile) Close() error {
	t0 := f.tr.now()
	err := f.File.Close()
	f.tr.child("store.close", t0)
	return err
}

func nanos(v *atomic.Int64) time.Duration { return time.Duration(v.Load()) }
