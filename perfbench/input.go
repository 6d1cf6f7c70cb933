package main

import (
	"encoding/binary"
	"math/rand/v2"
)

// Every input of a run derives from the --seed argument through one PCG
// stream per purpose, so adding a draw for one purpose never shifts the
// values of another.
const (
	streamPayload uint64 = iota + 1
	streamLoss
	streamRequests
	streamCorrupt
	streamLayers
)

func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// fillRandom fills b with bytes from r.
func fillRandom(r *rand.Rand, b []byte) {
	i := 0
	for ; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], r.Uint64())
	}
	if i < len(b) {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], r.Uint64())
		copy(b[i:], tail[:])
	}
}

// pickDistinct draws n distinct values from [lo, hi) in draw order.
func pickDistinct(r *rand.Rand, n, lo, hi int) []int {
	perm := r.Perm(hi - lo)
	out := make([]int, n)
	for i := range out {
		out[i] = lo + perm[i]
	}
	return out
}
