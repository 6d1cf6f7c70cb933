package core

import "sync"

// StripePool recycles Stripes of one fixed shape through a sync.Pool so
// steady-state streaming workloads (the shard encode, decode and repair
// streams) allocate nothing per stripe. Get returns a fully zeroed
// stripe, so pooled stripes are interchangeable with NewStripeM ones —
// in particular the zero-padding of partially filled data strips keeps
// working without every caller remembering to clear reused memory.
type StripePool struct {
	k, m, w, elemSize int
	pool              sync.Pool
}

// NewStripePool returns a pool producing stripes of the given shape
// (k data strips, m parity strips).
func NewStripePool(k, m, w, elemSize int) *StripePool {
	p := &StripePool{k: k, m: m, w: w, elemSize: elemSize}
	p.pool.New = func() any { return NewStripeM(k, m, w, elemSize) }
	return p
}

// Get returns a zeroed stripe of the pool's shape.
func (p *StripePool) Get() *Stripe {
	s := p.pool.Get().(*Stripe)
	for _, strip := range s.Strips {
		for i := range strip {
			strip[i] = 0
		}
	}
	return s
}

// Put returns a stripe to the pool. Stripes of the wrong shape are
// dropped rather than poisoning the pool; nil is ignored. The caller
// must not retain any reference to s (or its strips) after Put.
func (p *StripePool) Put(s *Stripe) {
	if s == nil || s.K != p.k || s.M() != p.m || s.W != p.w || s.ElemSize != p.elemSize {
		return
	}
	p.pool.Put(s)
}

// sharedPools caches one StripePool per shape, so independent callers
// (the shard encode and recovery streams) recycle each other's stripes.
var sharedPools sync.Map // stripeShape -> *StripePool

type stripeShape struct{ k, m, w, elemSize int }

// SharedStripePool returns the process-wide pool for the given shape.
func SharedStripePool(k, m, w, elemSize int) *StripePool {
	key := stripeShape{k, m, w, elemSize}
	if p, ok := sharedPools.Load(key); ok {
		return p.(*StripePool)
	}
	p, _ := sharedPools.LoadOrStore(key, NewStripePool(k, m, w, elemSize))
	return p.(*StripePool)
}
