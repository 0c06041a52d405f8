// Package threadpool provides the intra-rank shared-memory worker pool of
// the §V hybrid parallelization scheme: on top of the de-centralized
// (or fork-join) distribution of patterns *across* ranks, each rank splits
// every likelihood-kernel invocation over T worker goroutines *within* the
// rank — the Go analogue of ExaML's MPI/PThreads hybrid.
//
// The pool's unit of work is a contiguous, fixed-size pattern block.
// Block boundaries depend only on the item count, never on the thread
// count or on scheduling, which is what lets callers keep the repo-wide
// bit-identity contract (docs/DETERMINISM.md): workers either write
// disjoint per-block ranges (Newview, sum-table fill) or deposit partial
// results into a per-block slot array that the caller combines in
// block-index order after Run returns. Under that discipline the result
// is byte-for-byte identical for every T, including the serial T≤1 path.
package threadpool

import (
	"sync"
	"sync/atomic"
)

// BlockSize is the fixed number of items (site patterns) per block. It is
// a determinism constant, not a tuning knob: changing it changes the
// association order of block-combined reductions and therefore the bits
// of every likelihood in the repo.
//
// It also happens to be a good cache size: one Γ block touches
// 256 sites × 16 doubles × 3 CLVs ≈ 96 KiB — it streams through a
// per-core L2 without thrashing L1, which is the granularity the
// stride-1 plane-major kernels are unrolled for (docs/PERFORMANCE.md §6).
const BlockSize = 256

// NumBlocks returns the number of fixed-size blocks covering n items.
func NumBlocks(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + BlockSize - 1) / BlockSize
}

// blockBounds returns block b's half-open item range within n items.
func blockBounds(b, n int) (lo, hi int) {
	lo = b * BlockSize
	hi = lo + BlockSize
	if hi > n {
		hi = n
	}
	return lo, hi
}

// job is one Run or Each invocation's shared state. Workers pull block
// (or item) indices from the atomic cursor, so assignment to workers is
// dynamic (load balanced) while the block structure itself stays fixed.
// Exactly one of fn (block-granular, Run) and itemFn (item-granular,
// Each) is set.
type job struct {
	fn     func(block, lo, hi int)
	itemFn func(i int)
	n      int   // item count
	nb     int64 // block count (== n for itemFn jobs)
	next   *atomic.Int64
	wg     *sync.WaitGroup
}

// run drains blocks (or items) until the cursor passes the count.
func (j job) run() {
	if j.itemFn != nil {
		for {
			i := j.next.Add(1) - 1
			if i >= j.nb {
				return
			}
			j.itemFn(int(i))
		}
	}
	for {
		b := j.next.Add(1) - 1
		if b >= j.nb {
			return
		}
		lo, hi := blockBounds(int(b), j.n)
		j.fn(int(b), lo, hi)
	}
}

// Stats counts pool activity for telemetry: how many parallel regions
// (Run calls) the pool executed and how many blocks they comprised. The
// ratio blocks/(runs·threads) is the block-utilization metric — how well
// regions fill the pool. Counters are atomic so harvesting from another
// goroutine after the run is race-free; recording them never influences
// block structure or scheduling (determinism-safe).
// Each counter sits alone on a 64-byte cache line so concurrent
// harvesting (metrics scrapes) never bounces the line the hot-path
// increment lives on (false-sharing fix, docs/PERFORMANCE.md §6).
type Stats struct {
	runs   atomic.Int64
	_      [7]int64
	blocks atomic.Int64
	_      [7]int64
}

// Runs returns the number of Run invocations counted.
func (s *Stats) Runs() int64 { return s.runs.Load() }

// Blocks returns the total number of blocks those runs comprised.
func (s *Stats) Blocks() int64 { return s.blocks.Load() }

// Pool owns threads−1 persistent worker goroutines; the goroutine calling
// Run participates as the T-th worker, so a pool of 1 has no workers and
// executes everything inline. A nil *Pool is valid and also serial —
// kernels constructed without a pool need no special casing.
type Pool struct {
	threads int
	jobs    chan job
	close   sync.Once
	stats   *Stats
}

// SetStats attaches a telemetry counter set; nil (the default) disables
// counting. Nil-pool safe.
func (p *Pool) SetStats(s *Stats) {
	if p != nil {
		p.stats = s
	}
}

// New builds a pool executing up to threads blocks concurrently. Values
// ≤ 1 yield a serial pool with no worker goroutines. Call Close to
// release the workers.
func New(threads int) *Pool {
	p := &Pool{threads: threads}
	if threads > 1 {
		p.jobs = make(chan job)
		for w := 0; w < threads-1; w++ {
			go p.worker()
		}
	}
	return p
}

// worker is the persistent loop of one pool goroutine.
func (p *Pool) worker() {
	for j := range p.jobs {
		j.run()
		j.wg.Done()
	}
}

// Threads reports the pool's concurrency (1 for a nil or serial pool).
func (p *Pool) Threads() int {
	if p == nil || p.threads < 1 {
		return 1
	}
	return p.threads
}

// Run invokes fn once per fixed-size block of [0, n), distributing blocks
// across the pool and the calling goroutine, and returns after every
// block completed (the join). fn receives the block index and the block's
// half-open item range; distinct calls never share a block. Safe for
// concurrent use: each Run carries its own cursor and join state.
func (p *Pool) Run(n int, fn func(block, lo, hi int)) {
	nb := NumBlocks(n)
	if nb == 0 {
		return
	}
	if p != nil && p.stats != nil {
		p.stats.runs.Add(1)
		p.stats.blocks.Add(int64(nb))
	}
	if p == nil || p.threads <= 1 || nb == 1 {
		for b := 0; b < nb; b++ {
			lo, hi := blockBounds(b, n)
			fn(b, lo, hi)
		}
		return
	}
	helpers := p.threads - 1
	if helpers > nb-1 {
		helpers = nb - 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(helpers)
	j := job{fn: fn, n: n, nb: int64(nb), next: &next, wg: &wg}
	for w := 0; w < helpers; w++ {
		p.jobs <- j
	}
	j.run() // the caller is the T-th worker
	wg.Wait()
}

// Each invokes fn once per item of [0, n), distributing items across the
// pool and the calling goroutine, and returns after every item completed.
// It is the whole-kernel analogue of Run: where Run splits one kernel's
// sites into blocks, Each dispatches n independent kernels (fused small
// partitions) as single items, so many tiny partitions cost ONE pool
// synchronization instead of one per partition. Items are claimed from an
// atomic cursor, so assignment is dynamic; callers preserve bit-identity
// by depositing per-item results into per-item slots and combining them
// in item order after Each returns (same discipline as Run's per-block
// slots). On a nil or serial pool items run inline in index order.
func (p *Pool) Each(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if p != nil && p.stats != nil {
		p.stats.runs.Add(1)
		p.stats.blocks.Add(int64(n))
	}
	if p == nil || p.threads <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	helpers := p.threads - 1
	if helpers > n-1 {
		helpers = n - 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(helpers)
	j := job{itemFn: fn, n: n, nb: int64(n), next: &next, wg: &wg}
	for w := 0; w < helpers; w++ {
		p.jobs <- j
	}
	j.run() // the caller is the T-th worker
	wg.Wait()
}

// Close shuts the worker goroutines down. Idempotent and nil-safe; the
// pool must not be Run after Close.
func (p *Pool) Close() {
	if p == nil || p.jobs == nil {
		return
	}
	p.close.Do(func() { close(p.jobs) })
}
