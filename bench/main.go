// Command bench is the repository's benchmark: four workloads driven
// in-process through swappd's handler by one closed-loop client, five
// end-to-end metrics per workload, and — from a separate traced
// invocation — a per-layer budget. README.md is the glossary; AA.md is
// the same-code repeatability table the bounds were fixed from.
//
//	go run ./bench                          every workload, untraced
//	go run ./bench -trace 1 -trace-out f    every workload, per-layer metrics
//	go run ./bench -workload hot-batch      one workload, in this process
//	go run ./bench -aa -runs 10             two sets of runs, compared
//
// The last line of standard output is the result as one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	traceOut string
	aa       bool
	runs     int
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run this one workload in this process (default: every workload, one child process each)")
	fs.Int64Var(&o.seed, "seed", 1, "seed every op list is generated from")
	fs.IntVar(&o.seconds, "seconds", defaultSeconds, "sizes the fixed op count of a pass; the counts in README.md are for the default")
	fs.IntVar(&o.trace, "trace", 0, "1: record spans and print the per-layer metrics instead of the end-to-end ones")
	fs.StringVar(&o.traceOut, "trace-out", "", "with -trace 1, write the spans to this file")
	fs.BoolVar(&o.aa, "aa", false, "run the whole set twice and compare the two against the bounds")
	fs.IntVar(&o.runs, "runs", 1, "with -aa, runs per workload in each set, each with its own seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.seconds < 1 || o.runs < 1 || (o.trace != 0 && o.trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "bench: -seconds and -runs must be positive, -trace 0 or 1, and there are no positional arguments")
		return 2
	}
	var err error
	switch {
	case o.aa:
		err = runAA(o, stdout, stderr)
	case o.workload == "":
		err = runAll(o, stdout, stderr)
	default:
		err = runOne(o, &env{}, defaultProbes, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// runOne measures one workload in this process and prints its result.
func runOne(o options, e *env, ps probeSizes, stdout, stderr io.Writer) error {
	w := workloadByName(o.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if e.tmp == "" {
		// Durable state goes under the working directory — the
		// checkout's real filesystem, not a tmpfs — and is removed again.
		if err := os.MkdirAll(".bench_build", 0o755); err != nil {
			return err
		}
		tmp, err := os.MkdirTemp(".bench_build", "run-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		e.tmp = tmp
	}

	logf := func(format string, a ...any) { fmt.Fprintf(stderr, "bench: "+format+"\n", a...) }
	fmt.Fprintf(stdout, "workload %s seed=%d seconds=%d ops_per_pass=%d\n", w.name, o.seed, o.seconds, w.opCount(o.seconds))
	fmt.Fprintln(stdout, "host", hostFingerprint())

	var res *result
	var err error
	if o.trace == 1 {
		res, err = traced(o, e, w, ps, stdout, logf)
	} else {
		res, err = untraced(o, e, w, stdout, logf)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d ops failed", w.name, res.Failed, res.Attempted)
	}
	return nil
}

// untraced runs the voted passes and reports the end-to-end metrics.
func untraced(o options, e *env, w *workload, stdout io.Writer, logf func(string, ...any)) (*result, error) {
	rr, err := runWorkload(e, w, o.seed, o.seconds, make([]*tracer, untracedPasses), logf)
	if err != nil {
		return nil, err
	}
	res := newResult(rr)
	voted, perPass := rr.vote()
	fmt.Fprintf(stdout, "passes %d, ops per pass %d; timings take each op's fastest pass, the rest the median pass\n", len(rr.passes), rr.ops)
	for _, d := range endToEnd {
		res.Metrics[d.Name] = metricValue{voted[d.Name], d.Unit}
		fmt.Fprintf(stdout, "metric     %-20s %14.6g %-5s passes=%.6g\n", d.Name, voted[d.Name], d.Unit, perPass[d.Name])
	}
	for _, d := range diagnostics {
		fmt.Fprintf(stdout, "diagnostic %-20s %14.6g %-5s passes=%.6g\n", d.Name, voted[d.Name], d.Unit, perPass[d.Name])
	}
	fmt.Fprintf(stdout, "checks attempted=%d failed=%d output_sha256=%s\n", res.Attempted, res.Failed, rr.sha)
	return res, nil
}

func newResult(rr *runResult) *result {
	attempted := rr.ops * len(rr.passes)
	return &result{Correct: rr.failed == 0, Attempted: attempted, Failed: rr.failed, Metrics: map[string]metricValue{}}
}

// hostFingerprint describes the machine a result was measured on.
func hostFingerprint() string {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	load := "unknown"
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			load = f[0]
		}
	}
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s cpu=%q loadavg=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), model, load)
}

// child runs one workload in a process of its own — so CPU time,
// allocations and the resident-set high-water mark belong to that
// workload alone — and returns its parsed result line.
func child(o options, name string, seed int64, echo, stderr io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(o.trace)}
	if o.traceOut != "" {
		args = append(args, "-trace-out", o.traceOut+"."+name)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = stderr
	out, err := cmd.Output()
	echo.Write(out)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s: parsing result line: %w", name, err)
	}
	return &res, nil
}

// runAll runs every workload and prints one combined result whose metric
// names carry the workload as a prefix.
func runAll(o options, stdout, stderr io.Writer) error {
	all := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range workloads {
		res, err := child(o, w.name, o.seed, stdout, stderr)
		if err != nil {
			return err
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for name, v := range res.Metrics {
			all.Metrics[w.name+"."+name] = v
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// aaSet is one set of runs: workload → metric → one value per run.
type aaSet map[string]map[string][]float64

// runAA measures the whole set twice — every workload -runs times per
// set, each run with its own seed — and compares the two the way the
// driver does before it accepts the benchmark.
func runAA(o options, stdout, stderr io.Writer) error {
	o.trace, o.traceOut = 0, ""
	var sets [2]aaSet
	for s := range sets {
		sets[s] = aaSet{}
		for _, w := range workloads {
			sets[s][w.name] = map[string][]float64{}
			for r := 0; r < o.runs; r++ {
				res, err := child(o, w.name, o.seed+int64(r), io.Discard, stderr)
				if err != nil {
					return err
				}
				line, _ := json.Marshal(res.Metrics) // cannot fail: strings and floats
				fmt.Fprintf(stderr, "set %c %s seed %d %s\n", 'A'+s, w.name, o.seed+int64(r), line)
				for name, v := range res.Metrics {
					sets[s][w.name][name] = append(sets[s][w.name][name], v.Value)
				}
			}
		}
	}
	fmt.Fprintln(stdout, "host", hostFingerprint())
	if excess := aaTable(sets[0], sets[1], stdout); excess > 0 {
		return fmt.Errorf("%d workload × metric pairs exceed their bound between two sets of runs of the same code", excess)
	}
	return nil
}

// aaTable prints, as the markdown table kept in AA.md, how much worse set
// b's median is than set a's and how wide a's quartiles sit around its
// median, beside each bound, and returns how many pairs exceed theirs.
func aaTable(a, b aaSet, stdout io.Writer) (excess int) {
	fmt.Fprintf(stdout, "\n| workload | metric | median A | median B | B worse by | spread A | bound | |\n|---|---|---|---|---|---|---|---|\n")
	for _, w := range workloads {
		for _, d := range endToEnd {
			va, vb := a[w.name][d.Name], b[w.name][d.Name]
			worse := worseBy(d, median(va), median(vb))
			spread := "n/a"
			over := worse > d.Bound
			if len(va) >= 2 {
				q1, q3 := quartiles(va)
				s := (q3 - q1) / median(va)
				spread = fmt.Sprintf("%.2f %%", 100*s)
				// The driver does not hold set-up time to a spread.
				over = over || (d.Name != "setup_s" && s > d.Bound)
			}
			verdict := "ok"
			if over {
				verdict = "EXCESS"
				excess++
			}
			fmt.Fprintf(stdout, "| %s | %s | %.6g | %.6g | %+.2f %% | %s | %.0f %% | %s |\n",
				w.name, d.Name, median(va), median(vb), 100*worse, spread, 100*d.Bound, verdict)
		}
	}
	return excess
}

// worseBy is how much worse b is than a, as a share of a, in the
// direction the metric counts as worse; negative when b is better.
func worseBy(d metricDef, a, b float64) float64 {
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}
