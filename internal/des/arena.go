package des

// Arena hands out zeroed records of one type, carved from chunks: one
// allocation per arenaChunk records instead of one each. It is how the
// kernel mints its Signals and Procs, and how a simulator built on the
// kernel should mint whatever it needs per message — records that are many,
// small and all dead when the run is over.
//
// Rewind declares every record handed out so far dead and starts over. An
// arena that is never rewound keeps nothing: a chunk is garbage as soon as
// the records carved from it are, which is what a one-shot run wants.
// Keeping chunks starts at the first Rewind, the first evidence that
// there is a next run to keep them for. Keeping them from the start was
// measured: stale records in kept chunks pin garbage chunks of other
// arenas, and a one-shot 64-rank projection's peak RSS rose from 28 MB to
// 74 MB.
//
// The zero Arena is ready to use. It is not safe for concurrent use.
type Arena[T any] struct {
	free   []T   // the part of the current chunk not handed out yet
	chunks [][]T // chunks kept for reuse, in the order they are carved
	used   int   // chunks[:used] have been carved since the last Rewind
	keep   bool  // set by the first Rewind
}

// arenaChunk is how many records one chunk holds.
const arenaChunk = 256

// New returns a pointer to a zeroed T, valid until the next Rewind.
func (a *Arena[T]) New() *T {
	if len(a.free) == 0 {
		a.grow()
	}
	r := &a.free[0]
	a.free = a.free[1:]
	return r
}

// grow makes the next chunk current: a kept one, wiped, or else a new one.
func (a *Arena[T]) grow() {
	if a.used < len(a.chunks) {
		a.free = a.chunks[a.used]
		clear(a.free)
	} else {
		a.free = make([]T, arenaChunk)
		if !a.keep {
			return
		}
		a.chunks = append(a.chunks, a.free)
	}
	a.used++
}

// Rewind ends the life of every record handed out so far; New carves the
// chunks kept since the first Rewind again before allocating another.
func (a *Arena[T]) Rewind() {
	a.free, a.used, a.keep = nil, 0, true
}
