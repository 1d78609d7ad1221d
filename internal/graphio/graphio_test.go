package graphio

import (
	"bytes"
	"slices"
	"strconv"
	"strings"
	"testing"

	"kwmds/internal/gen"
	"kwmds/internal/graph"
)

func TestEdgeListRoundtrip(t *testing.T) {
	g, err := gen.GNP(60, 0.1, 17)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatalf("roundtrip changed graph: %v -> %v", g, g2)
	}
	e1, e2 := g.Edges(), g2.Edges()
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("edge %d changed: %v -> %v", i, e1[i], e2[i])
		}
	}
}

func TestEdgeListIsolatedVerticesSurvive(t *testing.T) {
	g := graph.MustNew(5, [][2]int{{0, 1}}) // vertices 2..4 isolated
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != 5 {
		t.Errorf("n = %d after roundtrip, want 5", g2.N())
	}
}

func TestReadEdgeListCommentsAndBlanks(t *testing.T) {
	in := `# a comment

n 4
0 1
# another
2 3
`
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 2 {
		t.Errorf("parsed n=%d m=%d", g.N(), g.M())
	}
}

func TestReadEdgeListInfersN(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("0 1\n5 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 6 {
		t.Errorf("inferred n = %d, want 6", g.N())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	tests := []struct {
		name, in string
	}{
		{"bad header", "n x\n"},
		{"header extra fields", "n 4 5\n"},
		{"negative header", "n -2\n"},
		{"one field", "3\n"},
		{"three fields", "1 2 3\n"},
		{"non-numeric u", "a 2\n"},
		{"non-numeric v", "1 b\n"},
		{"self loop", "1 1\n"},
		{"out of declared range", "n 2\n0 5\n"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadEdgeList(strings.NewReader(tc.in)); err == nil {
				t.Errorf("input %q accepted, want error", tc.in)
			}
		})
	}
}

// fuzzMaxEdgeListInt bounds the integers FuzzReadEdgeList feeds the
// reader: a header or vertex id of 2^20 or more would make graph.New
// allocate per-vertex arrays of that size. It bounds the harness's memory;
// it is not a rule of the format.
const fuzzMaxEdgeListInt = 1 << 20

func FuzzReadEdgeList(f *testing.F) {
	for _, in := range []string{
		"", "n 0\n", "n 3\n", "0 1\n1 2\n", "n 5\n# comment\n\n0 4\n 2 3 \r\n",
		"3 1\n1 3\n", "n 2\n0 5\n", "1 1\n", "n x\n", "n 2\nn 2\n", "0 1\nn 4\n",
		"-1 2\n", "1 2 3\n", "+1 0002\n",
	} {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, tok := range bytes.Fields(data) {
			if v, err := strconv.Atoi(string(tok)); err == nil && v >= fuzzMaxEdgeListInt {
				t.Skip("integer token beyond the harness's memory bound")
			}
		}
		g, err := ReadEdgeList(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		again, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("written edge list rejected: %v\n%s", err, buf.Bytes())
		}
		off, adj := g.CSR()
		off2, adj2 := again.CSR()
		if again.N() != g.N() || !slices.Equal(off, off2) || !slices.Equal(adj, adj2) {
			t.Fatalf("round trip changed the graph: n %d -> %d", g.N(), again.N())
		}
	})
}

func TestJSONRoundtrip(t *testing.T) {
	g, err := gen.Grid(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	meta := map[string]string{"family": "grid", "rows": "4", "cols": "5"}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, g, meta); err != nil {
		t.Fatal(err)
	}
	g2, meta2, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatalf("roundtrip changed graph: %v -> %v", g, g2)
	}
	if meta2["family"] != "grid" || meta2["cols"] != "5" {
		t.Errorf("metadata lost: %v", meta2)
	}
}

func TestReadJSONErrors(t *testing.T) {
	if _, _, err := ReadJSON(strings.NewReader("{not json")); err == nil {
		t.Error("malformed JSON accepted")
	}
	if _, _, err := ReadJSON(strings.NewReader(`{"n":2,"edges":[[0,0]]}`)); err == nil {
		t.Error("self-loop JSON accepted")
	}
}
