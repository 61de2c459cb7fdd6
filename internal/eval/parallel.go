package eval

import "sync"

// minParallelChunk is the smallest per-worker slice worth a goroutine:
// below it the dispatch overhead dominates the join work, so small carry
// batches (a chain's single-context levels in particular) run as one
// chunk on the calling goroutine.
const minParallelChunk = 16

// chunking is the one split rule: n items over at most workers workers
// become chunks contiguous chunks of size items (the last may be
// shorter), each of at least minParallelChunk items unless one chunk
// holds them all.
func chunking(workers, n int) (chunks, size int) {
	if n == 0 {
		return 0, 0
	}
	if maxW := (n + minParallelChunk - 1) / minParallelChunk; workers > maxW {
		workers = maxW
	}
	if workers < 1 {
		workers = 1
	}
	size = (n + workers - 1) / workers
	return (n + size - 1) / size, size
}

// inline reports whether the split rule gives n items over workers
// workers at most one chunk. Hot drivers test it and call their chunk
// function directly: parallelFor's fn escapes into the goroutines it
// starts, so a closure handed to it is heap-allocated on every call,
// even when the batch then runs inline.
func inline(workers, n int) bool {
	chunks, _ := chunking(workers, n)
	return chunks <= 1
}

// parallelFor splits [0, n) by the split rule (chunking) and runs
// fn(worker, lo, hi) for each chunk, on its own goroutine when more than
// one chunk results. Worker ordinals are dense in [0, chunks), each used
// at most once, so callers may index per-worker state by them. fn must
// be safe to run concurrently with itself on disjoint ranges;
// parallelFor returns when every chunk has finished.
func parallelFor(workers, n int, fn func(worker, lo, hi int)) {
	chunks, size := chunking(workers, n)
	if chunks == 0 {
		return
	}
	if chunks == 1 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < chunks; w++ {
		lo, hi := w*size, min((w+1)*size, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(w, lo, hi)
		}()
	}
	wg.Wait()
}
