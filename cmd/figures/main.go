// Command figures regenerates the paper's evaluation artifacts: Table 1,
// Table 2, Figures 3–9 and the §4 summary statistics, as text (and
// optionally CSV).
//
// Usage:
//
//	figures -all            # everything (~6 s on 2 CPUs)
//	figures -table1 -table2
//	figures -fig 3 -fig 6   # selected figures
//	figures -summary
//	figures -all -csv out/  # additionally write CSV files
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/figures"
	"repro/internal/nas"
	"repro/internal/obs"
	"repro/internal/report"
)

type figList []int

func (f *figList) String() string { return fmt.Sprint(*f) }
func (f *figList) Set(v string) error {
	var n int
	if _, err := fmt.Sscanf(v, "%d", &n); err != nil {
		return err
	}
	if n < 3 || n > 9 {
		return fmt.Errorf("figures 3–9 exist")
	}
	*f = append(*f, n)
	return nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the CLI body, factored for tests: parse args, generate, render.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var figs figList
	var (
		all     = fs.Bool("all", false, "regenerate everything")
		table1  = fs.Bool("table1", false, "regenerate Table 1")
		table2  = fs.Bool("table2", false, "regenerate Table 2")
		summary = fs.Bool("summary", false, "regenerate the §4 summary statistics")
		csvDir  = fs.String("csv", "", "directory to also write CSV files into")
		quiet   = fs.Bool("q", false, "suppress progress output")
		workers = fs.Int("workers", 0, "evaluation worker pool size (0 = GOMAXPROCS, 1 = serial); output is identical either way")

		traceOut = fs.String("trace", "", "write a JSON span trace (spans + metrics) to this file")
		metrics  = fs.Bool("metrics", false, "print collected metrics to stderr on exit")
	)
	fs.Var(&figs, "fig", "figure number to regenerate (repeatable, 3–9)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "figures: "+format+"\n", a...)
		return 1
	}

	if *all {
		*table1, *table2, *summary = true, true, true
		figs = []int{3, 4, 5, 6, 7, 8, 9}
	}
	if !*table1 && !*table2 && !*summary && len(figs) == 0 {
		fs.Usage()
		return 2
	}

	// Validate output destinations before the (potentially long) generation,
	// so a bad path fails in milliseconds rather than after minutes.
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return fail("cannot create CSV directory: %v", err)
		}
	}
	var traceFile *os.File
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return fail("cannot write trace: %v", err)
		}
		traceFile = f
		defer traceFile.Close()
	}

	// Observability root: nil (zero-cost no-op) unless requested. Figures
	// are byte-identical either way.
	var scope *obs.Scope
	if *traceOut != "" || *metrics {
		scope = obs.New("figures")
	}

	r := figures.NewRunner()
	r.Workers = *workers
	r.Obs = scope
	if !*quiet {
		r.Verbose = func(format string, args ...any) {
			fmt.Fprintf(stderr, "… "+format+"\n", args...)
		}
	}

	if *table2 {
		fmt.Fprintln(stdout, report.Table2())
	}
	if *table1 {
		rows, err := r.Table1()
		if err != nil {
			return fail("%v", err)
		}
		fmt.Fprintln(stdout, report.Table1(rows))
	}

	// Figure number → generator.
	gen := map[int]func() (*figures.Figure, error){
		3: func() (*figures.Figure, error) { return r.BenchFigure(nas.BT, figures.Targets()[0]) },
		4: func() (*figures.Figure, error) { return r.BenchFigure(nas.BT, figures.Targets()[1]) },
		5: func() (*figures.Figure, error) { return r.BenchFigure(nas.BT, figures.Targets()[2]) },
		6: r.LUFigure,
		7: func() (*figures.Figure, error) { return r.BenchFigure(nas.SP, figures.Targets()[0]) },
		8: func() (*figures.Figure, error) { return r.BenchFigure(nas.SP, figures.Targets()[1]) },
		9: func() (*figures.Figure, error) { return r.BenchFigure(nas.SP, figures.Targets()[2]) },
	}
	for _, n := range figs {
		f, err := gen[n]()
		if err != nil {
			return fail("figure %d: %v", n, err)
		}
		fmt.Fprintln(stdout, report.Figure(f))
		if *csvDir != "" {
			path := filepath.Join(*csvDir, fmt.Sprintf("%s.csv", f.ID))
			if err := os.WriteFile(path, []byte(report.FigureCSV(f)), 0o644); err != nil {
				return fail("%v", err)
			}
			fmt.Fprintf(stderr, "wrote %s\n", path)
		}
	}

	if *summary {
		s, err := r.Summarize()
		if err != nil {
			return fail("%v", err)
		}
		fmt.Fprintln(stdout, report.Summary(s))
	}

	scope.End()
	if traceFile != nil {
		werr := scope.WriteTrace(traceFile)
		if cerr := traceFile.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fail("writing trace: %v", werr)
		}
		fmt.Fprintf(stderr, "figures: trace written to %s\n", *traceOut)
	}
	if *metrics {
		scope.Metrics().WriteText(stderr)
	}
	return 0
}
