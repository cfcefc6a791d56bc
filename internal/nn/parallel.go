package nn

import (
	"runtime"
	"sync"
)

// forkFloor is the least work, counted in multiply-adds or row elements, a
// band must get before it is handed to another goroutine: below it,
// starting and joining a goroutine costs more than the band saves.
const forkFloor = 1 << 15

// bandRows returns the band length for splitting n rows that carry the
// given work across cores, or n when the range should run as one band on
// the caller's goroutine, which is always the case at GOMAXPROCS=1. Bands
// are of equal length (the last one takes what is left); there are at most
// GOMAXPROCS of them and at most work/forkFloor.
//
// A banded op checks the length first and runs its serial loop directly
// when it is n, so that no closure is built unless the op forks:
//
//	if size := bandRows(n, work); size < n {
//		parallelRows(n, size, func(lo, hi int) { opRows(..., lo, hi) })
//	} else {
//		opRows(..., 0, n)
//	}
func bandRows(n, work int) int {
	bands := min(runtime.GOMAXPROCS(0), work/forkFloor, n)
	if bands <= 1 {
		return n
	}
	return (n + bands - 1) / bands
}

// parallelRows runs f over the row range [0, n) in contiguous bands of
// size rows, one per goroutine, and returns once every band is done. The
// caller's goroutine runs the first band.
//
// f must write only the rows of its own band and read nothing another band
// writes. Each output element is then computed by exactly one goroutine in
// the serial order, so the result is bit-identical for any band count.
//
// A panic in any band reaches the caller: parallelRows waits for every
// band to finish, then lets the panic of the caller's own band go on, or
// re-raises on the caller's goroutine the first value a forked band
// panicked with. A recover in the caller still sees it, and no band is
// left writing.
func parallelRows(n, size int, f func(lo, hi int)) {
	var join struct {
		wg    sync.WaitGroup
		mu    sync.Mutex
		fault any // the first value a band panicked with
	}
	for lo := size; lo < n; lo += size {
		join.wg.Add(1)
		go func(lo, hi int) {
			defer join.wg.Done()
			defer func() {
				if r := recover(); r != nil {
					join.mu.Lock()
					if join.fault == nil {
						join.fault = r
					}
					join.mu.Unlock()
				}
			}()
			f(lo, hi)
		}(lo, min(lo+size, n))
	}
	func() {
		defer join.wg.Wait()
		f(0, size)
	}()
	if join.fault != nil {
		panic(join.fault)
	}
}
