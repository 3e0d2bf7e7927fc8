// Command nasrun executes a NAS Multi-Zone benchmark on a simulated
// machine and prints its MPI profile — the "measured" side of the
// reproduction.
//
// Usage:
//
//	nasrun -bench SP-MZ -class C -ranks 128 -machine hydra
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/arch"
	"repro/internal/nas"
	"repro/internal/units"
)

func main() {
	var (
		bench   = flag.String("bench", "BT-MZ", "benchmark: BT-MZ, SP-MZ or LU-MZ")
		class   = flag.String("class", "C", "problem class: C or D")
		ranks   = flag.Int("ranks", 16, "MPI task count")
		machine = flag.String("machine", arch.Hydra, "machine: "+strings.Join(arch.Names(), ", "))
	)
	flag.Parse()

	m, err := arch.Get(*machine)
	if err != nil {
		fatal("%v", err)
	}
	if len(*class) != 1 {
		fatal("class must be a single letter")
	}
	cfg := nas.Config{Bench: nas.Benchmark(*bench), Class: nas.Class((*class)[0]), Ranks: *ranks}
	inst, err := nas.New(cfg)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("%s on %s\n", cfg, m)
	fmt.Printf("zones: %d (%d×%d), imbalance (max/mean work): %.3f, messages/step: %d\n\n",
		inst.Spec.Zones(), inst.Spec.ZonesX, inst.Spec.ZonesY, inst.Imbalance(), inst.MessagesPerStep())

	res, err := inst.Run(m)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("makespan: %s\n\n", units.FormatSeconds(res.Makespan))
	fmt.Print(res.Profile.String())
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "nasrun: "+format+"\n", args...)
	os.Exit(1)
}
