package des

import "testing"

// BenchmarkHandoff is the cost of one process switch: two processes
// ping-ponging one-shot signals, two hand-offs per round trip. ns/op and
// allocs/op are per hand-off.
func BenchmarkHandoff(b *testing.B) {
	rounds := (b.N + 1) / 2
	k := NewKernel()
	ping := make([]*Signal, rounds)
	pong := make([]*Signal, rounds)
	for i := range ping {
		ping[i], pong[i] = k.NewSignalKind("ping", i), k.NewSignalKind("pong", i)
	}
	k.Spawn("a", func(p *Proc) {
		for i := range ping {
			ping[i].Fire()
			p.WaitSignal(pong[i])
		}
	})
	k.Spawn("b", func(p *Proc) {
		for i := range ping {
			p.WaitSignal(ping[i])
			pong[i].Fire()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTimedFire is the cost of one timed fire, from FireAt to the
// process that waits on it carrying on: "waited" waits before the fire is
// due (a heap event, a switch away and back), "unwaited" gets to its wait
// only once the fire's time has passed — an Isend's completion by the time
// its rank reaches Waitall — which costs a stamp and no heap event or
// switch at all. ns/op and allocs/op are per fire.
func BenchmarkTimedFire(b *testing.B) {
	for _, bc := range []struct {
		name  string
		after float64 // how far the process advances between FireAt and WaitSignal
	}{{"waited", 0}, {"unwaited", 1}} {
		b.Run(bc.name, func(b *testing.B) {
			k := NewKernel()
			sigs := make([]*Signal, b.N)
			for i := range sigs {
				sigs[i] = k.NewSignalKind("t", i)
			}
			k.Spawn("p", func(p *Proc) {
				for _, s := range sigs {
					k.FireAt(s, 1)
					p.Advance(bc.after)
					p.WaitSignal(s)
				}
			})
			b.ReportAllocs()
			b.ResetTimer()
			if err := k.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkSpawnRun is the cost of short-lived processes, the shape of an
// IMB table: one op is a 64-process kernel whose processes each advance
// once and exit. allocs/op ÷ 64 is the per-process allocation count.
func BenchmarkSpawnRun(b *testing.B) {
	body := func(p *Proc) { p.Advance(1) }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := NewKernel()
		for r := 0; r < 64; r++ {
			k.SpawnKind("rank", r, body)
		}
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResetRun is BenchmarkSpawnRun on one kernel, Reset between ops:
// what a caller that runs many simulations back to back pays per run. In
// steady state the arenas, both queues and the coroutines are all reused,
// so allocs/op is ~0 against BenchmarkSpawnRun's one per process and more.
func BenchmarkResetRun(b *testing.B) {
	body := func(p *Proc) { p.Advance(1) }
	k := NewKernel()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.Reset()
		for r := 0; r < 64; r++ {
			k.SpawnKind("rank", r, body)
		}
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
