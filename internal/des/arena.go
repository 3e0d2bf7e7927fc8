package des

// Arena hands out zeroed records of one type, carved from chunks: one
// allocation per arenaChunk records instead of one each. It is how the
// kernel mints its Signals and Procs, and how a simulator built on the
// kernel should mint whatever it needs per message — records that are many,
// small and short-lived.
//
// A record whose life ends before the run's does can be handed back with
// Free, and New hands it out again before it carves anything new: a run
// that frees each message's records when the message completes needs only
// as many as are in flight at once, however long it runs. Rewind declares
// every record handed out so far dead and starts over.
//
// An arena that is never rewound keeps no chunk of its own: a chunk is
// garbage as soon as the records carved from it are (freed ones included,
// once the arena itself is), which is what a one-shot run wants. Keeping
// chunks starts at the first Rewind, the first evidence that there is a
// next run to keep them for. Keeping them from the start was measured:
// stale records in kept chunks pin garbage chunks of other arenas, and a
// one-shot 64-rank projection's peak RSS rose from 28 MB to 74 MB.
//
// The zero Arena is ready to use. It is not safe for concurrent use.
type Arena[T any] struct {
	free   []T   // the part of the current chunk not handed out yet
	dead   []*T  // records handed back by Free, zeroed, reused last in first out
	chunks [][]T // chunks kept for reuse, in the order they are carved
	used   int   // chunks[:used] have been carved since the last Rewind
	keep   bool  // set by the first Rewind
}

// arenaChunk is how many records one chunk holds.
const arenaChunk = 256

// New returns a pointer to a zeroed T, valid until it is freed or the next
// Rewind.
func (a *Arena[T]) New() *T {
	if n := len(a.dead); n > 0 {
		r := a.dead[n-1]
		a.dead[n-1] = nil
		a.dead = a.dead[:n-1]
		return r
	}
	if len(a.free) == 0 {
		a.grow()
	}
	r := &a.free[0]
	a.free = a.free[1:]
	return r
}

// Free ends the life of r, which New handed out since the last Rewind and
// which nobody may use again: it is zeroed, so it pins nothing, and New
// hands it out next.
func (a *Arena[T]) Free(r *T) {
	var zero T
	*r = zero
	a.dead = append(a.dead, r)
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

// Rewind ends the life of every record handed out so far, freed or not;
// New carves the chunks kept since the first Rewind again before
// allocating another.
func (a *Arena[T]) Rewind() {
	clear(a.dead)
	a.free, a.dead, a.used, a.keep = nil, a.dead[:0], 0, true
}
