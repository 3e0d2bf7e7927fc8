// Command imbrun runs the IMB benchmark suite (plus the paper's custom
// multi-Sendrecv) on a simulated machine and prints the table as the
// persist document that swapp's -imb-base and -imb-target read: every
// routine the simulated MPI runs — IMB_PingPing, Allreduce, Bcast, Recv,
// Reduce, Send and Sendrecv (no Exchange, Allgather, Alltoall or Barrier)
// — at every grid size, then the Eq. 1 non-blocking fits.
//
// Usage:
//
//	imbrun -machine bgp -ranks 64 > imb-bgp-64.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/arch"
	"repro/internal/imb"
	"repro/internal/persist"
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
	t, err := imb.Run(m, *ranks, nil)
	if err != nil {
		fatal("%v", err)
	}
	b, err := persist.MarshalIMB(t)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("%s\n", b)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "imbrun: "+format+"\n", args...)
	os.Exit(1)
}
