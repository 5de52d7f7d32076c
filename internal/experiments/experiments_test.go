package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// tinyOptions keeps experiment tests fast: small circuits, few cycles, no
// grain or network model.
func tinyOptions() Options {
	o := DefaultOptions()
	o.Scale = 0.04
	o.Cycles = 3
	o.Grain = 0
	o.NetSendBusy = 0
	o.NetRecvBusy = 0
	o.NetLatency = 0
	o.MaxNodes = 4
	return o
}

func TestAlgorithmsOrderAndCount(t *testing.T) {
	names := AlgorithmNames()
	want := []string{"Random", "DFS", "Cluster", "Topological", "Multilevel", "ConePartition"}
	if len(names) != len(want) {
		t.Fatalf("got %d algorithms", len(names))
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("algorithm %d = %s, want %s", i, names[i], want[i])
		}
	}
}

func TestRunTable1(t *testing.T) {
	t1, err := RunTable1(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(t1.Rows) != 3 {
		t.Fatalf("table 1 has %d rows", len(t1.Rows))
	}
	names := []string{"s5378", "s9234", "s15850"}
	for i, r := range t1.Rows {
		if !strings.HasPrefix(r.Name, names[i]) {
			t.Errorf("row %d = %s, want %s*", i, r.Name, names[i])
		}
		if r.Gates <= 0 || r.Inputs <= 0 || r.Outputs <= 0 {
			t.Errorf("row %d empty: %+v", i, r)
		}
	}
	// Gate counts must preserve the paper's ordering s5378 < s9234 < s15850.
	if !(t1.Rows[0].Gates < t1.Rows[1].Gates && t1.Rows[1].Gates < t1.Rows[2].Gates) {
		t.Errorf("gate counts out of order: %d %d %d", t1.Rows[0].Gates, t1.Rows[1].Gates, t1.Rows[2].Gates)
	}
	var md, csv bytes.Buffer
	if err := t1.WriteMarkdown(&md); err != nil {
		t.Fatal(err)
	}
	if err := t1.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), "s9234") || !strings.Contains(csv.String(), "s9234") {
		t.Error("serializations missing circuit names")
	}
}

func TestRunTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	o := tinyOptions()
	t2, err := RunTable2(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(t2.Circuits) != 3 {
		t.Fatalf("table 2 has %d circuit blocks", len(t2.Circuits))
	}
	for _, c := range t2.Circuits {
		if c.SeqTime <= 0 {
			t.Errorf("%s: sequential time %v", c.Name, c.SeqTime)
		}
		if len(c.Rows) != 2 { // nodes 2 and 4 with MaxNodes=4
			t.Fatalf("%s: %d rows", c.Name, len(c.Rows))
		}
		for _, row := range c.Rows {
			if len(row.Cells) != 6 {
				t.Fatalf("%s nodes=%d: %d cells", c.Name, row.Nodes, len(row.Cells))
			}
			for _, m := range row.Cells {
				if m.Seconds <= 0 {
					t.Errorf("%s nodes=%d %s: zero time", c.Name, row.Nodes, m.Algorithm)
				}
				if m.Committed == 0 {
					t.Errorf("%s nodes=%d %s: no committed events", c.Name, row.Nodes, m.Algorithm)
				}
			}
			// Every algorithm must commit the same events (they simulate the
			// same circuit and stimulus).
			first := row.Cells[0].Committed
			for _, m := range row.Cells[1:] {
				if m.Committed != first {
					t.Errorf("%s nodes=%d: %s committed %d, %s committed %d",
						c.Name, row.Nodes, row.Cells[0].Algorithm, first, m.Algorithm, m.Committed)
				}
			}
		}
	}
	if _, ok := t2.BestAlgorithmAt(t2.Circuits[0].Name, 2); !ok {
		t.Error("BestAlgorithmAt found nothing")
	}
	var md, csv bytes.Buffer
	if err := t2.WriteMarkdown(&md); err != nil {
		t.Fatal(err)
	}
	if err := t2.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), "Multilevel") {
		t.Error("markdown missing algorithm header")
	}
}

func TestRunSweepFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	o := tinyOptions()
	o.MaxNodes = 3
	sw, err := RunSweep(o, "s5378", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Nodes) != 3 {
		t.Fatalf("sweep covered %v nodes", sw.Nodes)
	}
	times := sw.Fig4ExecutionTimes()
	msgs := sw.Fig5Messages()
	rbs := sw.Fig6Rollbacks()
	for _, a := range sw.AlgOrder {
		if len(times[a]) != 3 || len(msgs[a]) != 3 || len(rbs[a]) != 3 {
			t.Fatalf("%s series incomplete", a)
		}
		if msgs[a][0] != 0 {
			t.Errorf("%s: remote messages at 1 node = %v, want 0", a, msgs[a][0])
		}
		if rbs[a][0] != 0 {
			t.Errorf("%s: rollbacks at 1 node = %v, want 0", a, rbs[a][0])
		}
		if msgs[a][2] <= 0 {
			t.Errorf("%s: no messages at 3 nodes", a)
		}
	}
	// Multilevel must send fewer messages than Random at 3 nodes — the
	// paper's Figure 5 headline.
	if msgs["Multilevel"][2] >= msgs["Random"][2] {
		t.Errorf("multilevel messages %v not below random %v", msgs["Multilevel"][2], msgs["Random"][2])
	}
	for _, f := range []func(w *bytes.Buffer) error{
		func(w *bytes.Buffer) error { return sw.WriteFig4CSV(w) },
		func(w *bytes.Buffer) error { return sw.WriteFig5CSV(w) },
		func(w *bytes.Buffer) error { return sw.WriteFig6CSV(w) },
	} {
		var buf bytes.Buffer
		if err := f(&buf); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), "nodes,Random") {
			t.Error("CSV header missing")
		}
	}
}

func TestRunQuality(t *testing.T) {
	o := tinyOptions()
	q, err := RunQuality(o, "s9234", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Rows) != 6 {
		t.Fatalf("%d rows", len(q.Rows))
	}
	byName := map[string]QualityRow{}
	for _, r := range q.Rows {
		byName[r.Algorithm] = r
		if r.PartitionTime <= 0 {
			t.Errorf("%s: no partition time", r.Algorithm)
		}
	}
	if byName["Multilevel"].EdgeCut >= byName["Random"].EdgeCut {
		t.Errorf("multilevel cut %d not below random %d",
			byName["Multilevel"].EdgeCut, byName["Random"].EdgeCut)
	}
	var md bytes.Buffer
	if err := q.WriteMarkdown(&md); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), "EdgeCut") {
		t.Error("markdown missing header")
	}
}

func TestRunLinearity(t *testing.T) {
	o := tinyOptions()
	lin, err := RunLinearity(o, 4, []int{300, 600, 1200})
	if err != nil {
		t.Fatal(err)
	}
	if len(lin.Points) != 3 {
		t.Fatalf("%d points", len(lin.Points))
	}
	for _, p := range lin.Points {
		if p.Seconds <= 0 || p.Edges <= 0 {
			t.Errorf("bad point %+v", p)
		}
	}
	// The paper claims O(N_E): time per edge should not blow up across a 4x
	// size range. Allow a generous factor for constant overheads and timer
	// noise at small sizes.
	if spread := lin.TimePerEdgeSpread(); spread > 12 {
		t.Errorf("time-per-edge spread %.1f suggests super-linear scaling", spread)
	}
	var csv bytes.Buffer
	if err := lin.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "seconds_per_edge") {
		t.Error("CSV header missing")
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	o.setDefaults()
	if o.Scale == 0 || o.Cycles == 0 || o.Repeats == 0 || o.MaxNodes == 0 {
		t.Errorf("defaults not applied: %+v", o)
	}
	p := PaperOptions()
	if p.Scale != 1.0 || p.Repeats != 5 {
		t.Errorf("paper options wrong: %+v", p)
	}
}

// TestRunAblation runs the ablation on a small circuit: every row has its
// own name and its own multilevel configuration, and every partition cuts
// something, so no row silently repeats another or measures nothing.
func TestRunAblation(t *testing.T) {
	o := tinyOptions()
	o.Repeats = 1
	o.Grain = 0
	st, err := RunAblation(o, "s5378", 2)
	if err != nil {
		t.Fatal(err)
	}
	variants := ablationVariants(o.Seed, []float64{1})
	if len(st.Rows) != len(variants) {
		t.Fatalf("%d rows, want one per variant (%d)", len(st.Rows), len(variants))
	}
	names := map[string]bool{}
	for i, r := range st.Rows {
		if names[r.Variant] {
			t.Errorf("row %d: duplicate name %q", i, r.Variant)
		}
		names[r.Variant] = true
		if r.Variant != variants[i].name {
			t.Errorf("row %d is %q, variant %d is %q", i, r.Variant, i, variants[i].name)
		}
		if r.EdgeCut <= 0 {
			t.Errorf("row %q: edge cut %d, want > 0", r.Variant, r.EdgeCut)
		}
		for j := range variants[:i] {
			if reflect.DeepEqual(variants[i].opts, variants[j].opts) {
				t.Errorf("rows %q and %q run the same configuration", variants[i].name, variants[j].name)
			}
		}
	}
}
