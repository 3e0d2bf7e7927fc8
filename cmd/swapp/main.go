// Command swapp projects the performance of a NAS Multi-Zone benchmark
// onto a target machine using the SWAPP pipeline, optionally validating
// the projection against a measured (simulated) run.
//
// Usage:
//
//	swapp -bench BT-MZ -class C -ranks 64 -target power6-575 [-validate]
//
// Observability (see internal/obs; the projection itself is byte-identical
// with these on or off):
//
//	-trace out.json   write a hierarchical JSON span trace + metrics
//	-metrics          print the metric registry to stderr on exit
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	swapp "repro"
	"repro/internal/core"
	"repro/internal/imb"
	"repro/internal/nas"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/report"
	"repro/internal/spec"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the CLI body, factored for tests: parse args, project, render.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("swapp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bench    = fs.String("bench", "BT-MZ", "benchmark: BT-MZ, SP-MZ or LU-MZ")
		class    = fs.String("class", "C", "problem class: C or D")
		ranks    = fs.Int("ranks", 64, "target core count Ck")
		target   = fs.String("target", swapp.TargetPower6, "target machine: "+strings.Join(swapp.MachineNames(), ", "))
		base     = fs.String("base", swapp.BaseHydra, "base machine")
		validate = fs.Bool("validate", false, "also run the application on the target and report the error")
		workers  = fs.Int("workers", 0, "evaluation worker pool size (0 = GOMAXPROCS, 1 = serial); the projection is identical either way")
		traceOut = fs.String("trace", "", "write a JSON span trace (spans + metrics) to this file")
		metrics  = fs.Bool("metrics", false, "print collected metrics to stderr on exit")
		specBase = fs.String("spec-base", "", "published SPEC results for the base machine (JSON, see internal/persist)")
		specTgt  = fs.String("spec-target", "", "published SPEC results for the target machine")
		imbBase  = fs.String("imb-base", "", "published IMB tables for the base machine (JSON, comma-separated for multiple core counts)")
		imbTgt   = fs.String("imb-target", "", "published IMB tables for the target machine")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if len(*class) != 1 {
		fmt.Fprintln(stderr, "swapp: class must be a single letter (C or D)")
		return 1
	}

	data, err := loadData(*base, *target, *specBase, *specTgt, *imbBase, *imbTgt)
	if err != nil {
		fmt.Fprintf(stderr, "swapp: %v\n", err)
		return 1
	}

	// Open the trace destination before the (potentially long) projection,
	// so a bad path fails in milliseconds rather than after minutes.
	var traceFile *os.File
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(stderr, "swapp: cannot write trace: %v\n", err)
			return 1
		}
		traceFile = f
		defer traceFile.Close()
	}

	// The observability root: nil (zero-cost no-op) unless requested.
	var scope *obs.Scope
	if *traceOut != "" || *metrics {
		scope = obs.New("swapp")
	}

	req := swapp.Request{
		Base:    *base,
		Target:  *target,
		Bench:   nas.Benchmark(*bench),
		Class:   nas.Class((*class)[0]),
		Ranks:   *ranks,
		Workers: *workers,
		Obs:     scope,
		Data:    data,
	}

	var res *swapp.Result
	if *validate {
		res, err = swapp.ProjectAndValidate(req)
	} else {
		res, err = swapp.Project(req)
	}
	scope.End()
	if err != nil {
		// The library's request errors already carry the prefix. A
		// projection that fails on published data names the documents.
		msg := strings.TrimPrefix(err.Error(), "swapp: ")
		var docs []string
		for _, d := range [][2]string{{"-spec-base", *specBase}, {"-spec-target", *specTgt}, {"-imb-base", *imbBase}, {"-imb-target", *imbTgt}} {
			if d[1] != "" {
				docs = append(docs, d[0]+" "+d[1])
			}
		}
		if len(docs) > 0 {
			msg += " (published data: " + strings.Join(docs, ", ") + ")"
		}
		fmt.Fprintf(stderr, "swapp: %s\n", msg)
		return 1
	}

	fmt.Fprint(stdout, report.Projection(res.Projection, res.Validation))

	if traceFile != nil {
		werr := scope.WriteTrace(traceFile)
		if cerr := traceFile.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(stderr, "swapp: writing trace: %v\n", werr)
			return 1
		}
		fmt.Fprintf(stderr, "swapp: trace written to %s\n", *traceOut)
	}
	if *metrics {
		scope.Metrics().WriteText(stderr)
	}
	return 0
}

// loadData reads published benchmark data files into a pipeline pre-seed.
// Counts or suites not supplied are measured by the pipeline as usual. A
// partial document (entries left out, see internal/persist) degrades the
// projection, recorded in its Quality block; an unreadable or malformed
// file, a document for another machine than the one its flag names, and a
// second IMB table at one count fail fast with the path in the message.
func loadData(base, target, specBase, specTarget, imbBase, imbTarget string) (*core.PipelineData, error) {
	if specBase == "" && specTarget == "" && imbBase == "" && imbTarget == "" {
		return nil, nil
	}
	data := &core.PipelineData{}
	loadSpec := func(path, want, role string, dst *map[string]spec.Result) error {
		if path == "" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("cannot read SPEC data: %v", err)
		}
		machine, results, defects, err := persist.UnmarshalSpec(b)
		if err != nil {
			return fmt.Errorf("cannot load SPEC data %s: %v", path, err)
		}
		if machine != want {
			return fmt.Errorf("SPEC data %s is for %s, not the %s machine %s", path, machine, role, want)
		}
		*dst = results
		data.Defects = append(data.Defects, defects...)
		return nil
	}
	loadIMB := func(paths, want, role string, dst *map[int]*imb.Table) error {
		if paths == "" {
			return nil
		}
		m := map[int]*imb.Table{}
		for _, path := range strings.Split(paths, ",") {
			b, err := os.ReadFile(path)
			if err != nil {
				return fmt.Errorf("cannot read IMB data: %v", err)
			}
			t, defects, err := persist.UnmarshalIMB(b)
			if err != nil {
				return fmt.Errorf("cannot load IMB data %s: %v", path, err)
			}
			if t.Machine != want {
				return fmt.Errorf("IMB data %s is for %s, not the %s machine %s", path, t.Machine, role, want)
			}
			if m[t.Ranks] != nil {
				return fmt.Errorf("IMB data %s: a second %s table at %d ranks", path, role, t.Ranks)
			}
			m[t.Ranks] = t
			data.Defects = append(data.Defects, defects...)
		}
		*dst = m
		return nil
	}
	if err := loadSpec(specBase, base, "base", &data.SpecBase); err != nil {
		return nil, err
	}
	if err := loadSpec(specTarget, target, "target", &data.SpecTarget); err != nil {
		return nil, err
	}
	if err := loadIMB(imbBase, base, "base", &data.IMBBase); err != nil {
		return nil, err
	}
	if err := loadIMB(imbTarget, target, "target", &data.IMBTarget); err != nil {
		return nil, err
	}
	return data, nil
}
