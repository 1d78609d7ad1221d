package graphio

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"kwmds/internal/graph"
)

// TestReadEdgeListMalformed drives the parser's rejection paths; every
// error must carry the line number where the problem occurs.
func TestReadEdgeListMalformed(t *testing.T) {
	cases := []struct {
		name  string
		input string
		want  string // substring of the error message
	}{
		{"duplicate header", "n 5\nn 9\n0 1\n", "line 2: duplicate \"n\" header"},
		{"header after edges", "0 1\nn 5\n", "line 2: \"n\" header after 1 edge lines"},
		{"header after edges with comments", "# c\n\n0 1\n1 2\nn 9\n", "line 5: \"n\" header after 2 edge lines"},
		{"out of range for declared n", "n 3\n0 1\n1 5\n", "line 3: edge (1,5) out of range for declared n=3"},
		{"negative id", "0 -2\n", "line 1: negative vertex id"},
		{"negative id with header", "n 4\n-1 2\n", "line 2: negative vertex id"},
		{"malformed header", "n\n", "line 1: malformed header"},
		{"bad vertex count", "n x\n", "line 1: bad vertex count"},
		{"negative vertex count", "n -4\n", "line 1: bad vertex count"},
		{"three fields", "0 1 2\n", "line 1: expected \"u v\""},
		{"non-numeric vertex", "0 b\n", "line 1: bad vertex"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadEdgeList(strings.NewReader(tc.input))
			if err == nil {
				t.Fatalf("ReadEdgeList(%q) accepted malformed input", tc.input)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestReadEdgeListStillAcceptsValid(t *testing.T) {
	cases := []struct {
		name      string
		input     string
		wantN     int
		wantEdges int
	}{
		{"header first", "n 4\n0 1\n2 3\n", 4, 2},
		{"no header", "0 1\n1 2\n", 3, 2},
		{"comments and blanks", "# hi\n\nn 3\n# mid\n0 2\n", 3, 1},
		{"isolated vertices", "n 10\n0 1\n", 10, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := ReadEdgeList(strings.NewReader(tc.input))
			if err != nil {
				t.Fatal(err)
			}
			if g.N() != tc.wantN || g.M() != tc.wantEdges {
				t.Errorf("got n=%d m=%d, want n=%d m=%d", g.N(), g.M(), tc.wantN, tc.wantEdges)
			}
		})
	}
}

func TestDigest(t *testing.T) {
	a := graph.MustNew(5, [][2]int{{0, 1}, {1, 2}, {3, 4}})
	// Same topology from reversed orientations and duplicated edges.
	b := graph.MustNew(5, [][2]int{{4, 3}, {2, 1}, {1, 0}, {0, 1}})
	if Digest(a) != Digest(b) {
		t.Error("digest differs across edge order/orientation of the same topology")
	}
	c := graph.MustNew(5, [][2]int{{0, 1}, {1, 2}, {3, 4}, {0, 4}})
	if Digest(a) == Digest(c) {
		t.Error("different topologies share a digest")
	}
	d := graph.MustNew(6, [][2]int{{0, 1}, {1, 2}, {3, 4}})
	if Digest(a) == Digest(d) {
		t.Error("different vertex counts share a digest")
	}
	if len(Digest(a)) != 64 {
		t.Errorf("digest length = %d, want 64 hex chars", len(Digest(a)))
	}
}

// solveRequestCases drive TestDecodeSolveRequest and seed
// FuzzDecodeSolveRequest.
var solveRequestCases = []struct {
	name string
	body string
	want string // "" = accept
}{
	{"ok inline", `{"graph":{"n":3,"edges":[[0,1]]}}`, ""},
	{"ok ref", `{"graph_ref":"udg-1k","algo":"kwcds","variant":"ln-lnln"}`, ""},
	{"not json", `{"graph_ref":`, "solve request"},
	{"unknown field", `{"graph_ref":"x","bogus":1}`, "bogus"},
	{"no source", `{"algo":"kw"}`, "exactly one of"},
	{"both sources", `{"graph":{"n":1,"edges":[]},"graph_ref":"x"}`, "exactly one of"},
	{"bad algo", `{"graph_ref":"x","algo":"dijkstra"}`, "unknown algo"},
	{"bad variant", `{"graph_ref":"x","variant":"sqrt"}`, "unknown variant"},
	{"kw2 with weights", `{"graph_ref":"x","algo":"kw2","weights":[1,2]}`, "not supported with algo"},
	{"trailing data", `{"graph_ref":"x"}{"graph_ref":"y"}`, "trailing data"},
}

func TestDecodeSolveRequest(t *testing.T) {
	for _, tc := range solveRequestCases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := DecodeSolveRequest(strings.NewReader(tc.body))
			if tc.want == "" {
				if err != nil {
					t.Fatalf("rejected valid body: %v", err)
				}
				if req.Algo == "" {
					t.Error("algo default not applied")
				}
				return
			}
			if err == nil {
				t.Fatalf("accepted malformed body %q", tc.body)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// fuzzMaxVertices is the inline-graph cap the solve fuzzer builds under —
// small, so inputs straddling it are easy for the fuzzer to reach.
const fuzzMaxVertices = 64

// FuzzDecodeSolveRequest feeds arbitrary bodies to the solve decoder. No
// input may panic; an accepted request must survive an encode/decode round
// trip unchanged; and an accepted inline graph must never build with more
// than the cap's vertices.
func FuzzDecodeSolveRequest(f *testing.F) {
	for _, tc := range solveRequestCases {
		f.Add([]byte(tc.body))
	}
	f.Add([]byte(`{"graph":{"n":64,"edges":[[0,63]]},"k":3,"seed":-7,"engine":"sim","weights":[1.5,2]}`))
	f.Add([]byte(`{"graph":{"n":65,"edges":[]}}`))
	f.Add([]byte(`{"graph":{"n":-1,"edges":[[0,0]]},"members":true}`))
	f.Add([]byte(`{"graph_ref":"g","epoch":3,"use_graph_weights":true,"sequential":true}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := DecodeSolveRequest(bytes.NewReader(body))
		if err != nil {
			return
		}
		again, err := DecodeSolveRequest(bytes.NewReader(reencode(t, req)))
		if err != nil {
			t.Fatalf("re-encoded request rejected: %v", err)
		}
		if a, b := normalizeSolve(t, req), normalizeSolve(t, again); !reflect.DeepEqual(a, b) {
			t.Fatalf("round trip changed the request:\n got %+v\nwant %+v", b, a)
		}
		if len(req.Graph) == 0 {
			return
		}
		if g, err := req.BuildGraph(fuzzMaxVertices); err == nil && g.N() > fuzzMaxVertices {
			t.Fatalf("BuildGraph(%d) built n=%d", fuzzMaxVertices, g.N())
		}
	})
}

// FuzzDecodeMutateRequest feeds arbitrary bodies to the mutate decoder. No
// input may panic, and an accepted batch must survive an encode/decode
// round trip unchanged.
func FuzzDecodeMutateRequest(f *testing.F) {
	for _, body := range []string{
		``, `hi`, `{}`, `{"mutations":[]}`,
		`{"mutations":[{"op":"add_edge","u":0,"v":2}],"zap":1}`,
		`{"mutations":[{"u":0,"v":2}]}`,
		`{"mutations":[{"op":"explode"}]}`,
		`{"mutations":[{"op":"add_edge","u":0,"v":2,"w":3}]}`,
		`{"mutations":[{"op":"add_vertex","u":1}]}`,
		`{"mutations":[{"op":"set_weight","u":1,"v":2,"w":2}]}`,
		`{"epoch":7,"sync":false,"mutations":[{"op":"remove_edge","u":0,"v":3},{"op":"add_vertex"},{"op":"set_weight","u":1,"w":0.25}]}`,
		`{"mutations":[{"op":"add_edge","u":0,"v":1}]}{"mutations":[]}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := DecodeMutateRequest(bytes.NewReader(body))
		if err != nil {
			return
		}
		again, err := DecodeMutateRequest(bytes.NewReader(reencode(t, req)))
		if err != nil {
			t.Fatalf("re-encoded request rejected: %v", err)
		}
		if !reflect.DeepEqual(req, again) {
			t.Fatalf("round trip changed the request:\n got %+v\nwant %+v", again, req)
		}
	})
}

// reencode marshals v the way a client would, without HTML escaping so a
// raw inline graph is re-emitted byte for byte (modulo whitespace).
func reencode(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatalf("encoding an accepted request: %v", err)
	}
	return buf.Bytes()
}

// normalizeSolve removes the two differences a round trip may introduce
// without changing meaning: whitespace inside the raw inline graph, and an
// empty weights list (omitted on encode, so it decodes as nil).
func normalizeSolve(t *testing.T, req *SolveRequest) SolveRequest {
	t.Helper()
	out := *req
	if len(out.Graph) > 0 {
		var buf bytes.Buffer
		if err := json.Compact(&buf, out.Graph); err != nil {
			t.Fatalf("accepted request holds invalid inline JSON: %v", err)
		}
		out.Graph = buf.Bytes()
	}
	if len(out.Weights) == 0 {
		out.Weights = nil
	}
	return out
}
