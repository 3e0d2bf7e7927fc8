package nas

import (
	"testing"

	"repro/internal/arch"
)

// BenchmarkRun is one application run through the simulator, profiler
// attached: BT-MZ.C@16 on Hydra, the shape every profile the pipeline
// builds has. B/op and allocs/op are what one run costs the heap.
func BenchmarkRun(b *testing.B) {
	inst, err := New(Config{Bench: BT, Class: ClassC, Ranks: 16})
	if err != nil {
		b.Fatal(err)
	}
	m := arch.MustGet(arch.Hydra)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := inst.Run(m); err != nil {
			b.Fatal(err)
		}
	}
}
