// Command specrun runs the synthetic SPEC CPU2006 suite on a simulated
// machine in throughput mode, with the measurement noise every projection
// sees, and prints the results as the persist document that swapp's
// -spec-base and -spec-target read — the "published benchmark data" side
// of SWAPP.
//
// Usage:
//
//	specrun -machine westmere-x5670 > spec-westmere-x5670.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/arch"
	"repro/internal/persist"
	"repro/internal/spec"
)

func main() {
	machine := flag.String("machine", arch.Hydra, "machine: "+strings.Join(arch.Names(), ", "))
	flag.Parse()

	m, err := arch.Get(*machine)
	if err != nil {
		fatal("%v", err)
	}
	results, err := spec.RunSuite(m, true)
	if err != nil {
		fatal("%v", err)
	}
	b, err := persist.MarshalSpec(m.Name, results)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("%s\n", b)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "specrun: "+format+"\n", args...)
	os.Exit(1)
}
