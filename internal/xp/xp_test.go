package xp

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"pimnw/internal/pim"
)

var updateQuickGolden = flag.Bool("update-quick-golden", false,
	"rewrite internal/xp/testdata/quick.golden from the current code")

func quickRunner() *Runner {
	return NewRunner(Options{Quick: true})
}

func TestTableRender(t *testing.T) {
	tbl := Table{
		ID: "x", Title: "demo",
		Header: []string{"A", "Blong"},
		Rows:   [][]string{{"aaaa", "b"}},
		Notes:  []string{"n"},
	}
	out := tbl.Render()
	for _, want := range []string{"Table x: demo", "A", "Blong", "aaaa", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFormatters(t *testing.T) {
	if fmtSecs(123.4) != "123" || fmtSecs(1.23) != "1.2" || fmtSecs(0.012) != "0.012" {
		t.Error("fmtSecs")
	}
	if fmtX(2.0) != "2.0x" {
		t.Error("fmtX")
	}
	if fmtPct(0.953) != "95%" {
		t.Error("fmtPct")
	}
}

func TestUnknownTable(t *testing.T) {
	if _, err := quickRunner().Table("99"); err == nil {
		t.Error("unknown table accepted")
	}
}

// parse "paper / ours" percentage cell, returning ours.
func oursPct(t *testing.T, cell string) float64 {
	t.Helper()
	parts := strings.Split(cell, "/")
	v, err := strconv.ParseFloat(strings.TrimSpace(parts[len(parts)-1]), 64)
	if err != nil {
		t.Fatalf("cell %q: %v", cell, err)
	}
	return v
}

func TestTable1AccuracyLadder(t *testing.T) {
	tbl, err := quickRunner().Table("1")
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		s128 := oursPct(t, row[1])
		s256 := oursPct(t, row[2])
		s512 := oursPct(t, row[3])
		a128 := oursPct(t, row[4])
		// Static accuracy must not decrease with band size.
		if s256 < s128-1e-9 || s512 < s256-1e-9 {
			t.Errorf("%s: static accuracy not monotone: %v %v %v", row[0], s128, s256, s512)
		}
		// The paper's claim: adaptive at 128 at least matches static at
		// 128 and is competitive with static at much larger bands.
		if a128 < s128-1e-9 {
			t.Errorf("%s: adaptive 128 (%v) below static 128 (%v)", row[0], a128, s128)
		}
	}
	// The gappy dataset must show the static-band failure the paper
	// reports (Pacbio: 29% at static 128 vs 85% adaptive).
	pb := tbl.Rows[4]
	if oursPct(t, pb[1]) >= oursPct(t, pb[4]) {
		t.Errorf("Pacbio: static 128 (%s) should trail adaptive 128 (%s)", pb[1], pb[4])
	}
}

func TestRuntimeTablesShape(t *testing.T) {
	r := quickRunner()
	for _, id := range []string{"2", "3", "4", "5", "6"} {
		tbl, err := r.Table(id)
		if err != nil {
			t.Fatalf("table %s: %v", id, err)
		}
		if len(tbl.Rows) != 5 {
			t.Fatalf("table %s: %d rows", id, len(tbl.Rows))
		}
		// DPU rank scaling: 10 -> 20 -> 40 ranks must speed up ~2x each.
		t10 := parseSecs(t, tbl.Rows[2][2])
		t20 := parseSecs(t, tbl.Rows[3][2])
		t40 := parseSecs(t, tbl.Rows[4][2])
		if !(t10 > t20 && t20 > t40) {
			t.Errorf("table %s: rank scaling broken: %v %v %v", id, t10, t20, t40)
		}
		if ratio := t10 / t40; ratio < 2.5 || ratio > 4.5 {
			t.Errorf("table %s: 10->40 ranks speedup %.2f, want ~4 (near-linear)", id, ratio)
		}
	}
}

func parseSecs(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSpace(cell), 64)
	if err != nil {
		t.Fatalf("cell %q: %v", cell, err)
	}
	return v
}

func TestFullScaleProjectionsNearPaper(t *testing.T) {
	// The headline reproduction: with the calibrated cost model, the
	// projected full-scale DPU runtimes should land within 2x of every
	// paper number, and the 40-rank values within ~40%.
	r := NewRunner(Options{Quick: true})
	for i := range dsDefs {
		d := &dsDefs[i]
		for _, ranks := range []int{10, 20, 40} {
			ours, err := d.dpuSeconds(r, ranks, pim.Asm)
			if err != nil {
				t.Fatal(err)
			}
			paper := d.dpuPaper[ranks]
			ratio := ours / paper
			if ratio < 0.5 || ratio > 2.0 {
				t.Errorf("%s DPU %d ranks: ours %.0f vs paper %.0f (ratio %.2f)",
					d.key, ranks, ours, paper, ratio)
			}
		}
	}
}

func TestTable7SpeedupWindow(t *testing.T) {
	tbl, err := quickRunner().Table("7")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		ours, err := strconv.ParseFloat(row[4], 64)
		if err != nil {
			t.Fatalf("row %v: %v", row, err)
		}
		if ours < 1.25 || ours > 1.85 {
			t.Errorf("%s: asm speedup %.2f outside the paper's 1.36-1.69 window", row[0], ours)
		}
	}
	// 16S (score-only) must show the smallest gain, as the paper explains.
	var min float64 = 100
	var minKey string
	for _, row := range tbl.Rows {
		v, _ := strconv.ParseFloat(row[4], 64)
		if v < min {
			min, minKey = v, row[0]
		}
	}
	if minKey != "16S" {
		t.Errorf("smallest asm gain on %s, paper says 16S", minKey)
	}
}

func TestTable8EnergyShape(t *testing.T) {
	tbl, err := quickRunner().Table("8")
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	// The PiM server must consume the least energy on both datasets.
	last := tbl.Rows[2]
	for col := 1; col <= 2; col++ {
		pim := oursPct(t, last[col]) // reuses the "a / b" parser: ours is after '/'
		for rowi := 0; rowi < 2; rowi++ {
			cpu := oursPct(t, tbl.Rows[rowi][col])
			if pim >= cpu {
				t.Errorf("PiM energy %v not below %s's %v", pim, tbl.Rows[rowi][0], cpu)
			}
		}
	}
}

func TestUtilizationTable(t *testing.T) {
	tbl, err := quickRunner().Table("utilization")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		u := pctValue(t, row[1])
		if u < 0.90 || u > 1.0 {
			t.Errorf("%s: utilization %v outside the paper's 95-99%% story", row[0], u)
		}
	}
	// Host overhead: largest on the short-read dataset.
	s1000 := pctValue(t, tbl.Rows[0][2])
	s30000 := pctValue(t, tbl.Rows[2][2])
	if s1000 <= s30000 {
		t.Errorf("overhead S1000 (%v) should exceed S30000 (%v)", s1000, s30000)
	}
}

func pctValue(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
	if err != nil {
		t.Fatalf("cell %q: %v", cell, err)
	}
	return v / 100
}

func TestAblationTable(t *testing.T) {
	tbl, err := quickRunner().Table("ablation")
	if err != nil {
		t.Fatal(err)
	}
	overflowSeen := false
	okSeen := 0
	for _, row := range tbl.Rows {
		switch row[2] {
		case "WRAM overflow":
			overflowSeen = true
		case "ok":
			okSeen++
		}
	}
	if !overflowSeen {
		t.Error("no geometry hit the WRAM wall; the §4.2.3 trade-off is not reproduced")
	}
	if okSeen < 4 {
		t.Errorf("only %d feasible geometries", okSeen)
	}
	// The paper geometry must be the (joint) fastest feasible one.
	var paperRel float64
	rels := map[string]float64{}
	for _, row := range tbl.Rows {
		if row[2] != "ok" {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(row[3], "x"), 64)
		if err != nil {
			t.Fatalf("row %v: %v", row, err)
		}
		rels[row[0]] = v
		if row[0] == "6x4" {
			paperRel = v
		}
	}
	for g, v := range rels {
		if v < paperRel-0.05 {
			t.Errorf("geometry %s (%.2fx) clearly beats the paper's 6x4", g, v)
		}
	}
}

func TestRunnerAll(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	tables, err := quickRunner().All()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != len(TableIDs()) {
		t.Errorf("%d tables", len(tables))
	}
	// The golden is what `experiments -quick` prints: every table's
	// rendering followed by a blank line.
	var got bytes.Buffer
	for _, tbl := range tables {
		out := tbl.Render()
		if out == "" {
			t.Errorf("table %s renders empty", tbl.ID)
		}
		got.WriteString(out + "\n")
	}
	path := filepath.Join("testdata", "quick.golden")
	if *updateQuickGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	// Name every table whose rendering moved, with its first differing line.
	gotTables, wantTables := splitTables(got.String()), splitTables(string(want))
	for i := 0; i < len(gotTables) || i < len(wantTables); i++ {
		g, w := nth(gotTables, i), nth(wantTables, i)
		if g == w {
			continue
		}
		gl, wl := strings.Split(g, "\n"), strings.Split(w, "\n")
		name := nth(wl, 0)
		if name == "" {
			name = nth(gl, 0)
		}
		j := 0
		for j < len(gl) && j < len(wl) && gl[j] == wl[j] {
			j++
		}
		t.Errorf("%q moved at line %d:\n got  %q\n want %q", name, j+1, nth(gl, j), nth(wl, j))
	}
	t.Errorf("quick tables differ from %s (rerun with -update-quick-golden if intended)", path)
}

func TestHybridTable(t *testing.T) {
	tbl, err := quickRunner().Table("hybrid")
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		cpu := parseSecs(t, row[1])
		pim := parseSecs(t, row[2])
		hyb := parseSecs(t, row[3])
		// The hybrid bound must beat both engines alone.
		if hyb >= cpu || hyb >= pim {
			t.Errorf("%s: hybrid %.0f not below cpu %.0f / pim %.0f", row[0], hyb, cpu, pim)
		}
		// And equal the harmonic combination.
		want := cpu * pim / (cpu + pim)
		if hyb < want*0.98 || hyb > want*1.02 {
			t.Errorf("%s: hybrid %.1f, want %.1f", row[0], hyb, want)
		}
	}
}

func TestWFATable(t *testing.T) {
	tbl, err := quickRunner().Table("wfa")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		// WFA is exact by construction: 100% on every dataset.
		if got := pctValue(t, row[4]); got != 1.0 {
			t.Errorf("%s: WFA optimal fraction %v, want 1", row[0], got)
		}
		// Band accuracy can never exceed the exact aligner's.
		if band := pctValue(t, row[3]); band > 1.0 {
			t.Errorf("%s: band accuracy %v", row[0], band)
		}
	}
}

func TestRenderMarkdown(t *testing.T) {
	tbl := Table{ID: "9", Title: "demo", Header: []string{"A", "B"},
		Rows: [][]string{{"x", "y"}}, Notes: []string{"n"}}
	out := tbl.RenderMarkdown()
	for _, want := range []string{"### Table 9 — demo", "| A | B |", "|---|---|", "| x | y |", "*n*"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
}

func TestBalanceTable(t *testing.T) {
	tbl, err := quickRunner().Table("balance")
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	// LPT must be the reference (1.0x) and no policy may beat it by more
	// than noise.
	for i, row := range tbl.Rows {
		v, err := strconv.ParseFloat(strings.TrimSuffix(row[2], "x"), 64)
		if err != nil {
			t.Fatalf("row %v: %v", row, err)
		}
		if i == 0 && v != 1.0 {
			t.Errorf("LPT row shows %vx", v)
		}
		if v < 0.99 {
			t.Errorf("%s beats LPT: %vx", row[0], v)
		}
	}
}

// splitTables cuts rendered output at each "Table " heading.
func splitTables(out string) []string {
	parts := strings.Split(out, "\nTable ")
	for i := 1; i < len(parts); i++ {
		parts[i] = "Table " + parts[i]
	}
	return parts
}

// nth is s[i], or "" past the end.
func nth(s []string, i int) string {
	if i < len(s) {
		return s[i]
	}
	return ""
}
