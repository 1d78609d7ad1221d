package kwbench

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestParseTOMLValues(t *testing.T) {
	doc := `
# full value-type coverage
title = "hello \"world\"\n"
count = 1_000
rate = 2.5
neg = -7
on = true
off = false
list = [1, 2, 3]
mixed = ["a", 1, true]
empty = []
inline = { x = 1, y = "z" }

[table]
nested = 4

[table.sub]
deep = "v"

[[rows]]
id = 1

[[rows]]
id = 2
`
	got, err := parseTOML([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]any{
		"title": "hello \"world\"\n",
		"count": int64(1000),
		"rate":  2.5,
		"neg":   int64(-7),
		"on":    true,
		"off":   false,
		"list":  []any{int64(1), int64(2), int64(3)},
		"mixed": []any{"a", int64(1), true},
		"empty": []any{},
		"inline": map[string]any{
			"x": int64(1), "y": "z",
		},
		"table": map[string]any{
			"nested": int64(4),
			"sub":    map[string]any{"deep": "v"},
		},
		"rows": []any{
			map[string]any{"id": int64(1)},
			map[string]any{"id": int64(2)},
		},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseTOML mismatch:\ngot  %#v\nwant %#v", got, want)
	}
}

func TestParseTOMLDottedKeys(t *testing.T) {
	got, err := parseTOML([]byte("a.b.c = 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]any{"a": map[string]any{"b": map[string]any{"c": int64(1)}}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("dotted key mismatch: %#v", got)
	}
}

func TestParseTOMLErrors(t *testing.T) {
	cases := []struct {
		name, doc, wantErr string
	}{
		{"bare garbage", "what is this", "expected key = value"},
		{"unterminated string", `k = "abc`, "unterminated string"},
		{"unterminated array", "k = [1, 2", "unterminated array"},
		{"unterminated inline", "k = { a = 1", "unterminated inline table"},
		{"duplicate key", "k = 1\nk = 2", "duplicate key"},
		{"bad value", "k = 12xy", "unsupported value"},
		{"literal string", "k = 'abc'", "not supported"},
		{"bad escape", `k = "\q"`, "unsupported escape"},
		{"trailing data", `k = [1] junk`, "trailing data"},
		{"bad table header", "[unclosed\nk = 1", "malformed table header"},
		{"missing value", "k =", "missing value"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseTOML([]byte(tc.doc))
			if err == nil {
				t.Fatalf("parseTOML accepted %q", tc.doc)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
			if !strings.Contains(err.Error(), "line") {
				t.Fatalf("error %q lacks a line number", err)
			}
		})
	}
}

func TestParseTOMLCommentsRespectStrings(t *testing.T) {
	got, err := parseTOML([]byte(`k = "a # not a comment" # a comment`))
	if err != nil {
		t.Fatal(err)
	}
	if got["k"] != "a # not a comment" {
		t.Fatalf("got %q", got["k"])
	}
}

// FuzzParseTOML: no input panics the scenario-file parser, and every
// rejection names the offending line.
func FuzzParseTOML(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.toml"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no scenario seeds: %v", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte("a = [1, [2, {b = \"c\"}]]\n[[x.y]]\nz = 'lit'\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := parseTOML(data); err != nil && !strings.HasPrefix(err.Error(), "toml line ") {
			t.Fatalf("error without a line number: %v", err)
		}
	})
}
