// Package report renders the reproduction's tables and figures as text —
// aligned tables for Table 1/Table 2 and the summary, horizontal ASCII bar
// charts for Figures 3–9 — plus CSV emitters for external plotting.
package report

import (
	"fmt"
	"strings"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/figures"
	"repro/internal/quality"
	"repro/internal/units"
)

// Table2 renders the system-configuration table (paper Table 2).
func Table2() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2. Base system and the different systems used for validation\n")
	fmt.Fprintf(&b, "%-28s %-12s %6s %7s %9s %-24s\n",
		"Machine", "Processor", "Cores", "C/Node", "Mem/Core", "Interconnect")
	order := []string{arch.Hydra, arch.Power6, arch.BlueGene, arch.Westmere}
	for _, name := range order {
		m := arch.MustGet(name)
		fmt.Fprintf(&b, "%-28s %-12s %6d %7d %8.0fG %-24s\n",
			m.FullName, m.Proc.Name, m.TotalCores, m.CoresPerNode, m.MemPerCoreGiB, m.Net.Name)
	}
	return b.String()
}

// Table1 renders the benchmark-characteristics table (paper Table 1).
func Table1(rows []figures.Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1. NAS-MultiZone benchmark characteristics on the base system\n")
	fmt.Fprintf(&b, "%-10s %-5s %16s %18s %14s %14s\n",
		"Benchmark", "Class", "Communication %", "multi-Sendrecv %", "Reduce %", "Bcast %")
	span := func(lo, hi float64) string {
		if lo == hi {
			return fmt.Sprintf("%.2f", lo)
		}
		return fmt.Sprintf("%.2f – %.2f", lo, hi)
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-5c %16s %18s %14s %14s\n",
			r.Bench, r.Class,
			span(r.CommMin, r.CommMax),
			span(r.MultiSRMin, r.MultiSRMax),
			span(r.ReduceMin, r.ReduceMax),
			span(r.BcastMin, r.BcastMax))
	}
	return b.String()
}

// barWidth is the character width of a full-scale figure bar.
const barWidth = 40

// bar renders a horizontal bar for value v on a scale of max.
func bar(v, max float64) string {
	if max <= 0 {
		max = 1
	}
	n := int(v / max * barWidth)
	if n > barWidth {
		n = barWidth
	}
	if n < 0 {
		n = 0
	}
	return strings.Repeat("█", n) + strings.Repeat("·", barWidth-n)
}

// Figure renders one of Figures 3–9 as a grouped ASCII bar chart of percent
// error per component, in the paper's legend order.
func Figure(f *figures.Figure) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", strings.ToUpper(f.ID), f.Title)
	fmt.Fprintf(&b, "%s\n", strings.Repeat("=", len(f.ID)+2+len(f.Title)))

	// Shared scale across the figure, capped at a sane ceiling so one
	// outlier doesn't flatten everything.
	max := 1.0
	for _, c := range f.Cells {
		for _, v := range []float64{c.P2PNB, c.P2PB, c.Collectives, c.OverallComm, c.Computation, c.Combined} {
			if v > max {
				max = v
			}
		}
	}
	for _, c := range f.Cells {
		fmt.Fprintf(&b, "%d/%c\n", c.Ck, c.Class)
		rows := []struct {
			label string
			v     float64
		}{
			{"P2P-NB", c.P2PNB},
			{"P2P-B", c.P2PB},
			{"COLLECTIVES", c.Collectives},
			{"Overall Communication", c.OverallComm},
			{"Computation", c.Computation},
			{"Combined Projection", c.Combined},
		}
		for _, row := range rows {
			fmt.Fprintf(&b, "  %-22s %s %6.2f%%\n", row.label, bar(row.v, max), row.v)
		}
	}
	fmt.Fprintf(&b, "mean |combined error| = %.2f%%\n", f.MeanCombined())
	return b.String()
}

// FigureCSV emits a figure's data as CSV (one row per cell and component).
func FigureCSV(f *figures.Figure) string {
	var b strings.Builder
	fmt.Fprintf(&b, "figure,bench,target,cores,class,component,abs_error_pct\n")
	for _, c := range f.Cells {
		rows := []struct {
			label string
			v     float64
		}{
			{"p2p_nb", c.P2PNB},
			{"p2p_b", c.P2PB},
			{"collectives", c.Collectives},
			{"overall_comm", c.OverallComm},
			{"computation", c.Computation},
			{"combined", c.Combined},
		}
		for _, row := range rows {
			fmt.Fprintf(&b, "%s,%s,%s,%d,%c,%s,%.4f\n",
				f.ID, f.Bench, f.Target, c.Ck, c.Class, row.label, row.v)
		}
	}
	return b.String()
}

// Summary renders the §4 summary statistics table.
func Summary(s *figures.Summary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Projection accuracy summary (combined projection, |%% error|)\n")
	fmt.Fprintf(&b, "%-28s %8s %8s %8s %6s\n", "Target system", "mean", "stddev", "max", "cells")
	for _, row := range s.PerSystem {
		m := arch.MustGet(row.Target)
		fmt.Fprintf(&b, "%-28s %7.2f%% %7.2f%% %7.2f%% %6d\n",
			m.FullName, row.MeanAbs, row.StdDev, row.MaxAbs, row.Cells)
	}
	fmt.Fprintf(&b, "overall mean |error| = %.2f%%; %.0f%% of projections above measured\n",
		s.OverallMean, s.OverProjectedPct)
	return b.String()
}

// commClassOrder fixes the rendering order of per-class validation errors:
// map iteration order must never reach the output. It aliases the ClassOrder
// shared with the JSON form.
var commClassOrder = ClassOrder

// Projection renders one projection — the cmd/swapp report body. v may be
// nil (no validation); otherwise the signed component errors are appended.
// The output is deterministic: per-class errors print in the paper's fixed
// class order.
func Projection(p *core.Projection, v *core.Validation) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s @%d ranks on %s: projected %s (compute %s + communication %s)",
		p.App, p.Ck, p.Target,
		units.FormatSeconds(p.Total), units.FormatSeconds(p.ComputeTime), units.FormatSeconds(p.CommTime))
	if v != nil {
		fmt.Fprintf(&b, "; measured %s (error %+.2f%%)",
			units.FormatSeconds(v.MeasuredTotal), v.ErrCombined)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "\ncompute component:\n")
	fmt.Fprintf(&b, "  characterised at Ci=%d, γ=%.3f (CCSM)\n", p.Compute.CharCount, p.Gamma)
	if p.HyperScaled {
		fmt.Fprintf(&b, "  ACSM: cache-footprint transition at Ch≈%.0f cores (hyper-scaling regime)\n", p.ACSM.Ch)
	}
	fmt.Fprintf(&b, "  metric-group ranking (most significant first): G%d G%d G%d G%d G%d G%d\n",
		p.Compute.Ranking[0], p.Compute.Ranking[1], p.Compute.Ranking[2],
		p.Compute.Ranking[3], p.Compute.Ranking[4], p.Compute.Ranking[5])
	fmt.Fprintf(&b, "  surrogate (Eq. 2):\n")
	for _, term := range p.Compute.Surrogate {
		fmt.Fprintf(&b, "    %-18s w=%.4f\n", term.Bench, term.Weight)
	}
	fmt.Fprintf(&b, "\ncommunication component (Eq. 5/6, per task):\n")
	fmt.Fprintf(&b, "  %-14s %10s %12s %12s %12s\n", "routine", "calls", "T_transfer", "T_wait", "T_elapsed")
	for _, rp := range p.Comm.Routines {
		fmt.Fprintf(&b, "  %-14s %10.1f %12s %12s %12s\n",
			rp.Routine, rp.Calls,
			units.FormatSeconds(rp.TargetTransfer),
			units.FormatSeconds(rp.TargetWait),
			units.FormatSeconds(rp.TargetElapsed()))
	}
	if v != nil {
		fmt.Fprintf(&b, "\nvalidation against the measured run:\n")
		fmt.Fprintf(&b, "  combined    %+7.2f%%\n", v.ErrCombined)
		fmt.Fprintf(&b, "  computation %+7.2f%%\n", v.ErrCompute)
		fmt.Fprintf(&b, "  comm        %+7.2f%%\n", v.ErrComm)
		for _, cls := range commClassOrder {
			if e, ok := v.ErrByClass[cls]; ok {
				fmt.Fprintf(&b, "  %-11s %+7.2f%%\n", cls, e)
			}
		}
	}
	// The quality section appears only on degraded projections: a
	// full-fidelity report stays byte-identical to the pre-ledger output.
	if q := p.Quality; !q.Empty() {
		fmt.Fprintf(&b, "\nquality: grade %s (compute %s, comm %s) — degraded input data:\n",
			q.Grade(), q.ComponentGrade(quality.Compute), q.ComponentGrade(quality.Comm))
		for _, d := range q.Defects() {
			fmt.Fprintf(&b, "  %s\n", d)
		}
	}
	return b.String()
}
