package report

import (
	"strings"
	"testing"

	"repro/internal/figures"
	"repro/internal/nas"
)

func sampleFigure() *figures.Figure {
	return &figures.Figure{
		ID:     "fig4",
		Title:  "BT-MZ Results on IBM POWER6 575 cluster",
		Bench:  nas.BT,
		Target: "power6-575",
		Cells: []figures.Cell{
			{Ck: 16, Class: nas.ClassC, P2PNB: 8.1, Collectives: 2.2,
				OverallComm: 7.5, Computation: 4.4, Combined: 4.9, CombinedSigned: -4.9},
			{Ck: 16, Class: nas.ClassD, P2PNB: 5.0, Collectives: 1.0,
				OverallComm: 4.2, Computation: 2.1, Combined: 2.4, CombinedSigned: 2.4},
		},
	}
}

func TestTable2Renders(t *testing.T) {
	s := Table2()
	for _, frag := range []string{"POWER5+", "POWER6", "PowerPC 450", "Xeon X5670", "832", "4096"} {
		if !strings.Contains(s, frag) {
			t.Errorf("Table 2 missing %q", frag)
		}
	}
}

func TestTable1Renders(t *testing.T) {
	rows := []figures.Table1Row{
		{Bench: nas.BT, Class: nas.ClassC, CommMin: 3.2, CommMax: 59.7,
			MultiSRMin: 3.17, MultiSRMax: 59.1, ReduceMin: 0.032, ReduceMax: 0.59},
		{Bench: nas.LU, Class: nas.ClassC, CommMin: 1.4, CommMax: 1.4,
			MultiSRMin: 1.38, MultiSRMax: 1.38, ReduceMin: 0.014, ReduceMax: 0.014},
	}
	s := Table1(rows)
	if !strings.Contains(s, "BT-MZ") || !strings.Contains(s, "3.20 – 59.70") {
		t.Errorf("range rendering broken:\n%s", s)
	}
	// A single-value row renders without a dash.
	if !strings.Contains(s, "1.40") || strings.Contains(s, "1.40 – 1.40") {
		t.Errorf("single-value rendering broken:\n%s", s)
	}
}

func TestFigureRenders(t *testing.T) {
	s := Figure(sampleFigure())
	for _, frag := range []string{
		"FIG4", "16/C", "16/D",
		"P2P-NB", "P2P-B", "COLLECTIVES", "Overall Communication",
		"Computation", "Combined Projection", "mean |combined error|",
	} {
		if !strings.Contains(s, frag) {
			t.Errorf("figure rendering missing %q", frag)
		}
	}
	// Bars scale: the largest value (8.1) must render a longer bar than
	// the smallest nonzero (1.0).
	lines := strings.Split(s, "\n")
	countBlocks := func(substr string) int {
		for _, l := range lines {
			if strings.Contains(l, substr) {
				return strings.Count(l, "█")
			}
		}
		return -1
	}
	if countBlocks("8.10%") <= countBlocks("1.00%") {
		t.Error("bar lengths do not reflect values")
	}
}

func TestBarBounds(t *testing.T) {
	if got := bar(0, 10); strings.Contains(got, "█") {
		t.Error("zero value must render an empty bar")
	}
	if got := bar(20, 10); strings.Count(got, "█") != barWidth {
		t.Error("over-scale value must clamp to full width")
	}
	if got := bar(-1, 10); strings.Contains(got, "█") {
		t.Error("negative value must clamp to empty")
	}
	if got := bar(5, 0); len([]rune(got)) != barWidth {
		t.Error("zero max must not break the bar width")
	}
}

func TestFigureCSV(t *testing.T) {
	s := FigureCSV(sampleFigure())
	lines := strings.Split(strings.TrimSpace(s), "\n")
	// Header + 2 cells × 6 components.
	if len(lines) != 1+2*6 {
		t.Fatalf("CSV has %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "figure,bench,target,cores,class,component") {
		t.Errorf("CSV header = %q", lines[0])
	}
	if !strings.Contains(s, "fig4,BT-MZ,power6-575,16,C,p2p_nb,8.1000") {
		t.Errorf("CSV row missing:\n%s", s)
	}
}

func TestSummaryRenders(t *testing.T) {
	s := Summary(&figures.Summary{
		PerSystem: []figures.SystemSummary{
			{Target: "power6-575", MeanAbs: 8.58, StdDev: 1.07, MaxAbs: 14.2, Cells: 18},
			{Target: "bgp", MeanAbs: 11.93, StdDev: 1.97, MaxAbs: 14.9, Cells: 18},
		},
		OverallMean:      11.44,
		OverProjectedPct: 54,
	})
	for _, frag := range []string{"POWER6", "8.58", "11.93", "11.44", "54% of projections"} {
		if !strings.Contains(s, frag) {
			t.Errorf("summary missing %q:\n%s", frag, s)
		}
	}
}
