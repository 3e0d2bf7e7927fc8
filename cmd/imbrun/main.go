// Command imbrun runs the IMB benchmark suite (plus the paper's custom
// multi-Sendrecv) on a simulated machine and prints the Eq. 3 parameter
// table SWAPP's communication projection consumes: one column per measured
// routine — IMB_PingPing, Allreduce, Bcast, Recv, Reduce, Send and Sendrecv,
// the benchmarks that price a routine the simulated MPI runs (no Exchange,
// Allgather, Alltoall or Barrier) — then the Eq. 1 non-blocking fit.
//
// Usage:
//
//	imbrun -machine bgp -ranks 64
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/arch"
	"repro/internal/imb"
	"repro/internal/units"
)

func main() {
	var (
		machine = flag.String("machine", arch.Hydra, "machine: "+strings.Join(arch.Names(), ", "))
		ranks   = flag.Int("ranks", 16, "MPI task count")
	)
	flag.Parse()

	m, err := arch.Get(*machine)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("IMB + multi-Sendrecv on %s, %d ranks (%d nodes)\n\n", m, *ranks, m.NodesFor(*ranks))
	t, err := imb.Run(m, *ranks, nil)
	if err != nil {
		fatal("%v", err)
	}

	fmt.Printf("%-12s", "size")
	for _, rt := range t.Routines() {
		fmt.Printf(" %14s", strings.TrimPrefix(string(rt), "MPI_"))
	}
	fmt.Println()
	for _, size := range t.Sizes {
		fmt.Printf("%-12s", units.FormatBytes(size))
		for _, rt := range t.Routines() {
			v, err := t.Time(rt, size)
			if err != nil {
				fmt.Printf(" %14s", "-")
				continue
			}
			fmt.Printf(" %14s", units.FormatSeconds(v))
		}
		fmt.Println()
	}

	fmt.Printf("\nEq. 1 non-blocking fit (multi-Sendrecv): overhead = %s\n",
		units.FormatSeconds(t.NBOverhead()))
	fmt.Printf("%-12s %16s %16s\n", "size", "T_inFlight intra", "T_inFlight inter")
	for _, size := range t.Sizes {
		fmt.Printf("%-12s %16s %16s\n", units.FormatBytes(size),
			units.FormatSeconds(t.InFlightIntra(size)),
			units.FormatSeconds(t.InFlightInter(size)))
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "imbrun: "+format+"\n", args...)
	os.Exit(1)
}
