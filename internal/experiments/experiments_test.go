package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

func cellFloat(t *testing.T, tab *Table, row int, col string) float64 {
	t.Helper()
	s, err := tab.Cell(row, col)
	if err != nil {
		t.Fatal(err)
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell (%d, %s) = %q is not numeric", row, col, s)
	}
	return v
}

// runScenario runs the registered scenario spec with the given ID,
// failing the test on a lookup or run error.
func runScenario(t *testing.T, id string, quick bool) *Table {
	t.Helper()
	sc, err := ScenarioByID(id)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := sc.Run(quick)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestTableBasics(t *testing.T) {
	tab := &Table{ID: "T", Title: "test", Columns: []string{"a", "b"}}
	tab.AddRow("x", 1.5)
	tab.AddRow("y", 250.0)
	if got, _ := tab.Cell(0, "b"); got != "1.50" {
		t.Errorf("cell = %q", got)
	}
	if _, err := tab.Cell(0, "nope"); err == nil {
		t.Error("missing column accepted")
	}
	if _, err := tab.Cell(9, "a"); err == nil {
		t.Error("missing row accepted")
	}
	var buf bytes.Buffer
	if err := tab.Fprint(&buf); err != nil {
		t.Fatalf("Fprint to buffer: %v", err)
	}
	if !strings.Contains(buf.String(), "== T: test ==") {
		t.Errorf("Fprint output:\n%s", buf.String())
	}
	buf.Reset()
	if err := tab.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "a,b\n") {
		t.Errorf("CSV output:\n%s", buf.String())
	}
}

func TestTableAddRowMismatchPanics(t *testing.T) {
	tab := &Table{ID: "T", Columns: []string{"a", "b"}}
	defer func() {
		if recover() == nil {
			t.Error("mismatched row did not panic")
		}
	}()
	tab.AddRow("only-one")
}

func TestByID(t *testing.T) {
	s, err := ByID("E7")
	if err != nil || s.ID != "E7" {
		t.Fatalf("ByID(E7) = %+v, %v", s, err)
	}
	if _, err := ByID("E99"); err == nil {
		t.Fatal("unknown id accepted")
	} else if !strings.Contains(err.Error(), "E99") {
		t.Fatalf("unknown-id error %q does not name the id", err)
	}
	// IDs are case-sensitive and never match partially.
	if _, err := ByID("e7"); err == nil {
		t.Fatal("lowercase id accepted")
	}
	if _, err := ByID(""); err == nil {
		t.Fatal("empty id accepted")
	}
}

func TestE1Shapes(t *testing.T) {
	tab := runScenario(t, "E1", false)
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(tab.Rows))
	}
	first := cellFloat(t, tab, 0, "GF/socket")
	last := cellFloat(t, tab, len(tab.Rows)-1, "GF/socket")
	if last < 10*first {
		t.Errorf("flops curve grew only %.1fx over a decade", last/first)
	}
	// $/GF falls.
	if cellFloat(t, tab, len(tab.Rows)-1, "$/GF(node)") >= cellFloat(t, tab, 0, "$/GF(node)") {
		t.Error("$/GF did not fall")
	}
}

func TestE2Shapes(t *testing.T) {
	tab := runScenario(t, "E2", false)
	if len(tab.Rows) != 11 {
		t.Fatalf("rows = %d, want 11", len(tab.Rows))
	}
	// Peak grows monotonically; MTBF shrinks.
	for i := 1; i < len(tab.Rows); i++ {
		if cellFloat(t, tab, i, "peak-TF") <= cellFloat(t, tab, i-1, "peak-TF") {
			t.Fatalf("peak not monotone at row %d", i)
		}
	}
	if cellFloat(t, tab, 10, "mtbf-days") >= cellFloat(t, tab, 0, "mtbf-days") {
		t.Error("MTBF did not shrink as node count grew")
	}
	// ~x8-10 per 5 years.
	ratio := cellFloat(t, tab, 5, "peak-TF") / cellFloat(t, tab, 0, "peak-TF")
	if ratio < 4 || ratio > 16 {
		t.Errorf("5-year growth = %.1fx, outside the Moore band", ratio)
	}
}

func TestE3Shapes(t *testing.T) {
	tab := runScenario(t, "E3", false)
	arches := 5
	if len(tab.Rows) != 3*arches {
		t.Fatalf("rows = %d, want %d (3 years x %d arches)", len(tab.Rows), 3*arches, arches)
	}
	// In every year block: blade wins GF/rackU over conventional, SoC
	// wins GF/W, PIM wins B-per-flop. Block order follows node.Arches():
	// conventional, blade, smp-on-chip, system-on-chip, pim.
	for block := 0; block < 3; block++ {
		base := block * arches
		convU := cellFloat(t, tab, base, "GF/rackU")
		bladeU := cellFloat(t, tab, base+1, "GF/rackU")
		if bladeU <= convU {
			t.Errorf("block %d: blade GF/U %.1f <= conventional %.1f", block, bladeU, convU)
		}
		convW := cellFloat(t, tab, base, "GF/W")
		socW := cellFloat(t, tab, base+3, "GF/W")
		if socW <= convW {
			t.Errorf("block %d: SoC GF/W %.3f <= conventional %.3f", block, socW, convW)
		}
		convB := cellFloat(t, tab, base, "B-per-flop")
		pimB := cellFloat(t, tab, base+4, "B-per-flop")
		if pimB < 4*convB {
			t.Errorf("block %d: PIM B/flop %.2f not >> conventional %.2f", block, pimB, convB)
		}
	}
}

func TestE4Shapes(t *testing.T) {
	tab := runScenario(t, "E4", true)
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Row 1 is the stencil: PIM column well under 1; row 3 is HPL: PIM >= 1.
	if pim := cellFloat(t, tab, 1, "pim"); pim > 0.6 {
		t.Errorf("stencil on PIM = %.2f of conventional, want much faster", pim)
	}
	if pim := cellFloat(t, tab, 3, "pim"); pim < 0.95 {
		t.Errorf("HPL on PIM = %.2f, should not beat conventional", pim)
	}
}

func TestE5Shapes(t *testing.T) {
	tab := runScenario(t, "E5", true)
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d, want one per fabric", len(tab.Rows))
	}
	// Latency ordering across the first five (packet) fabrics.
	lat := func(i int) float64 { return cellFloat(t, tab, i, "latency-us(8B)") }
	if !(lat(0) > lat(1) && lat(1) > lat(2) && lat(2) > lat(3)) {
		t.Error("latency ordering broken")
	}
	bw := func(i int) float64 { return cellFloat(t, tab, i, "bw-MB/s(4MB)") }
	for i := 1; i < 6; i++ {
		if bw(i) <= bw(i-1) {
			t.Errorf("bandwidth ordering broken at row %d", i)
		}
	}
}

func TestE6Shapes(t *testing.T) {
	tab, err := E6Collectives(true)
	if err != nil {
		t.Fatal(err)
	}
	// Barrier grows sublinearly: P=64 vs P=8 under 4x (log ratio is 2x).
	for _, row := range []int{0, 2, 4} {
		p8 := cellFloat(t, tab, row, "P=8")
		p64 := cellFloat(t, tab, row, "P=64")
		if p64/p8 > 4 {
			t.Errorf("row %d: barrier scaling %0.1fx from 8->64 ranks, want logarithmic", row, p64/p8)
		}
	}
	// InfiniBand barrier at P=64 is ~an order cheaper than GigE.
	gige := cellFloat(t, tab, 0, "P=64")
	ib := cellFloat(t, tab, 4, "P=64")
	if gige/ib < 5 {
		t.Errorf("GigE/IB barrier ratio = %.1f, want >= 5", gige/ib)
	}
}

func TestE6bShapes(t *testing.T) {
	tab := runScenario(t, "E6b", true)
	nrows := len(tab.Rows)
	// Short vectors: RD <= ring. Long vectors: ring < RD.
	if cellFloat(t, tab, 0, "recursive-doubling") >= cellFloat(t, tab, 0, "ring") {
		t.Error("recursive doubling should win short vectors")
	}
	if cellFloat(t, tab, nrows-1, "ring") >= cellFloat(t, tab, nrows-1, "recursive-doubling") {
		t.Error("ring should win long vectors")
	}
}

func TestE7CrossoverExists(t *testing.T) {
	tab := runScenario(t, "E7", true)
	first, _ := tab.Cell(0, "winner")
	last, _ := tab.Cell(len(tab.Rows)-1, "winner")
	if first != "packet" {
		t.Errorf("smallest payload won by %s, want packet", first)
	}
	if last != "optical" {
		t.Errorf("largest payload won by %s, want optical", last)
	}
}

func TestE8Shapes(t *testing.T) {
	tab, err := E8Scheduling(true)
	if err != nil {
		t.Fatal(err)
	}
	// Rows come in blocks of 4 policies per load: fcfs, easy,
	// conservative, gang. EASY beats FCFS on utilization in each block.
	if len(tab.Rows)%4 != 0 {
		t.Fatalf("rows = %d, want multiple of 4", len(tab.Rows))
	}
	for b := 0; b < len(tab.Rows)/4; b++ {
		fcfs := cellFloat(t, tab, b*4, "utilization")
		easy := cellFloat(t, tab, b*4+1, "utilization")
		if easy <= fcfs {
			t.Errorf("block %d: EASY %.3f <= FCFS %.3f", b, easy, fcfs)
		}
		fcfsSlow := cellFloat(t, tab, b*4, "bounded-slowdown")
		easySlow := cellFloat(t, tab, b*4+1, "bounded-slowdown")
		if easySlow >= fcfsSlow {
			t.Errorf("block %d: EASY slowdown %.1f >= FCFS %.1f", b, easySlow, fcfsSlow)
		}
	}
}

func TestE9Shapes(t *testing.T) {
	tab := runScenario(t, "E9", false)
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Availability collapses.
	if cellFloat(t, tab, 5, "all-up-availability") > 0.01 {
		t.Error("100k-node availability did not collapse")
	}
}

func TestE10Shapes(t *testing.T) {
	tab := runScenario(t, "E10", true)
	// Useful fraction at the optimum decreases with scale.
	first := cellFloat(t, tab, 0, "useful-frac@opt")
	last := cellFloat(t, tab, len(tab.Rows)-1, "useful-frac@opt")
	if last >= first {
		t.Errorf("useful fraction did not degrade with scale: %.2f -> %.2f", first, last)
	}
	// Optimum never loses to Young's interval.
	for i := range tab.Rows {
		opt := cellFloat(t, tab, i, "useful-frac@opt")
		young := cellFloat(t, tab, i, "useful-frac@young")
		if opt < young-0.02 {
			t.Errorf("row %d: optimum %.3f worse than Young %.3f", i, opt, young)
		}
	}
}

func TestE11Shapes(t *testing.T) {
	tab, err := E11Petaflops()
	if err != nil {
		t.Fatal(err)
	}
	year := func(name string) float64 {
		for i := range tab.Rows {
			if tab.Rows[i][0] == name {
				s, _ := tab.Cell(i, "crossing-year")
				s = strings.TrimPrefix(s, "> ")
				v, err := strconv.ParseFloat(s, 64)
				if err != nil {
					t.Fatalf("bad year %q", s)
				}
				return v
			}
		}
		t.Fatalf("scenario %s missing", name)
		return 0
	}
	if year("all-innovations") >= year("moore-only") {
		t.Errorf("all-innovations crossed at %.1f, not before moore-only %.1f",
			year("all-innovations"), year("moore-only"))
	}
}

func TestE12Shapes(t *testing.T) {
	tab, err := E12Ablation()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 7 {
		t.Fatalf("rows = %d, want one per scenario", len(tab.Rows))
	}
	// all-innovations (last row) dominates moore-only (first row).
	if cellFloat(t, tab, len(tab.Rows)-1, "vs-moore-only") <= 1 {
		t.Error("all-innovations does not beat moore-only")
	}
}

func TestRunAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite")
	}
	var buf bytes.Buffer
	tabs, err := RunSuite(&buf, Options{Quick: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != len(All()) {
		t.Fatalf("got %d tables for %d experiments", len(tabs), len(All()))
	}
	for _, tab := range tabs {
		if len(tab.Rows) == 0 {
			t.Errorf("%s produced no rows", tab.ID)
		}
	}
}

func TestX1Shapes(t *testing.T) {
	tab, err := X1Hybrid(true)
	if err != nil {
		t.Fatal(err)
	}
	// Halo codes (rows 0, 1) hold their own on hybrid placement.
	for _, row := range []int{0, 1} {
		if ratio := cellFloat(t, tab, row, "hybrid/flat"); ratio > 1.1 {
			t.Errorf("row %d: hybrid/flat = %.2f, want ~<= 1", row, ratio)
		}
	}
	// The alltoall-heavy FFT pays for NIC sharing at this rank count.
	if ratio := cellFloat(t, tab, 2, "hybrid/flat"); ratio < 1.1 {
		t.Errorf("fft hybrid/flat = %.2f, want > 1.1 (shared NIC tax)", ratio)
	}
}

func TestX2Shapes(t *testing.T) {
	tab, err := X2Degraded(true)
	if err != nil {
		t.Fatal(err)
	}
	// Slowdown is monotone-ish and graceful: 8 failed links < 3x.
	first := cellFloat(t, tab, 0, "slowdown")
	last := cellFloat(t, tab, len(tab.Rows)-1, "slowdown")
	if first != 1 {
		t.Errorf("baseline slowdown = %g", first)
	}
	if last <= 1 || last > 3 {
		t.Errorf("slowdown at max failures = %.2f, want graceful (1, 3]", last)
	}
}

func TestX3Shapes(t *testing.T) {
	tab, err := X3PowerWall()
	if err != nil {
		t.Fatal(err)
	}
	moore := cellFloat(t, tab, 0, "retained")
	cmp := cellFloat(t, tab, 1, "retained")
	if cmp <= moore {
		t.Errorf("CMP retained %.2f <= conventional %.2f under the power wall", cmp, moore)
	}
	if moore >= 0.9 {
		t.Errorf("conventional retained %.2f; the wall should bite", moore)
	}
}

func TestX4Shapes(t *testing.T) {
	tab, err := X4CheckpointIO(true)
	if err != nil {
		t.Fatal(err)
	}
	local := cellFloat(t, tab, 0, "useful-frac")
	shared := cellFloat(t, tab, 1, "useful-frac")
	if local <= shared {
		t.Errorf("local scratch efficiency %.2f <= shared servers %.2f", local, shared)
	}
	if shared > 0.7 {
		t.Errorf("shared-server efficiency %.2f; the I/O bottleneck should bite", shared)
	}
}

func TestX5Shapes(t *testing.T) {
	tab, err := X5Monitoring(true)
	if err != nil {
		t.Fatal(err)
	}
	// The largest flat configuration saturates; the tree never does.
	last := len(tab.Rows) - 1
	flat, _ := tab.Cell(last, "flat-detect")
	if !strings.Contains(flat, "unbounded") {
		t.Errorf("largest flat monitor = %q, want saturated", flat)
	}
	tree, _ := tab.Cell(last, "tree-detect")
	if strings.Contains(tree, "unbounded") {
		t.Error("tree monitor saturated")
	}
	// Simulated value present for the smallest size.
	simd, _ := tab.Cell(0, "tree-detect-simulated")
	if simd == "-" {
		t.Error("no simulated validation at the smallest size")
	}
}

func TestX6Shapes(t *testing.T) {
	tab, err := X6Placement(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Row order: scatter, random-scatter, contiguous.
	scatterUtil := cellFloat(t, tab, 0, "utilization")
	contigUtil := cellFloat(t, tab, 2, "utilization")
	if contigUtil >= scatterUtil {
		t.Errorf("contiguous utilization %.3f >= scatter %.3f", contigUtil, scatterUtil)
	}
	randDil := cellFloat(t, tab, 1, "mean-dilation-hops")
	contigDil := cellFloat(t, tab, 2, "mean-dilation-hops")
	if contigDil >= randDil {
		t.Errorf("contiguous dilation %.2f >= random-scatter %.2f", contigDil, randDil)
	}
	if stalls := cellFloat(t, tab, 2, "fragmentation-stalls"); stalls == 0 {
		t.Error("contiguous allocator reported no fragmentation stalls")
	}
	if stalls := cellFloat(t, tab, 0, "fragmentation-stalls"); stalls != 0 {
		t.Error("scatter allocator reported fragmentation stalls")
	}
}

func TestE5bShapes(t *testing.T) {
	tab := runScenario(t, "E5b", true)
	// 256-byte message: rendezvous-everything (limit=1B) pays a control
	// round trip over eager.
	rdv := cellFloat(t, tab, 0, "limit=1B")
	eager := cellFloat(t, tab, 0, "limit=64KB")
	if rdv <= eager*1.5 {
		t.Errorf("rendezvous %g us not clearly above eager %g us for small messages", rdv, eager)
	}
	// 16 KB message: limit=16KB keeps it eager (16384 <= limit)...
	// protocol boundary: 16KB at limit 4KB is rendezvous, at 64KB eager.
	r16 := cellFloat(t, tab, 2, "limit=4KB")
	e16 := cellFloat(t, tab, 2, "limit=64KB")
	if r16 <= e16 {
		t.Errorf("16KB: rendezvous %g <= eager %g", r16, e16)
	}
}

func TestX7Shapes(t *testing.T) {
	tab, err := X7Congestion(true)
	if err != nil {
		t.Fatal(err)
	}
	// Slowdown grows monotonically with incast degree.
	prev := 0.0
	for i := range tab.Rows {
		s := cellFloat(t, tab, i, "slowdown(buf=2)")
		if s < prev {
			t.Fatalf("row %d: slowdown %.1f below previous %.1f", i, s, prev)
		}
		prev = s
	}
	// Baseline row is 1; the largest incast slows the victim by > 10x.
	if first := cellFloat(t, tab, 0, "slowdown(buf=2)"); first != 1 {
		t.Errorf("baseline slowdown = %g", first)
	}
	if last := cellFloat(t, tab, len(tab.Rows)-1, "slowdown(buf=2)"); last < 10 {
		t.Errorf("max incast slowdown = %.1f, want > 10 (congestion tree)", last)
	}
}
