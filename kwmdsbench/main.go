// Command kwmdsbench is the kwmds benchmark: it generates a workload's
// inputs from a seed, drives the program with them, checks every answer,
// and prints the workload's metrics. See README.md in this directory for
// the workloads, the metrics and what each layer metric is predicted to
// move. Run it through run.sh from the repository root:
//
//	bash kwmdsbench/run.sh --workload serve-churn --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value": v, "unit": u}}}
//
// carrying the end-to-end metrics (--trace 0) or the per-layer metrics of
// the traced run (--trace 1). The lines before it print every metric with
// its unit and sample base, and an environment stamp.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metricDef is a metric the benchmark's JSON result carries.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics of an untraced run's result line: every
// workload reports each of them. Figures that exist only on some workloads
// (mutate latency, p99 where ten samples lie beyond it) or that are zero
// in a healthy run (failed_frac, carried as failed/attempted) are printed
// but not part of the line, and so are the latency tail and solves_per_s,
// whose run-to-run spread on a shared 2-vCPU VM is wider than any usable
// bound (see README.md).
var endToEnd = []metricDef{
	{"solve_p50_ms", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"ds_ratio", "ratio", "lower"},
}

// perLayer are the metrics of a traced run.
var perLayer = []metricDef{
	{"fastpath.lp_ms", "ms", "lower"},
	{"fastpath.round_ms", "ms", "lower"},
	{"kwmds.facade_ms", "ms", "lower"},
	{"fastpath.batch_ms", "ms", "lower"},
	{"fastpath.allocs_per_solve", "count", "lower"},
	{"fastpath.bytes_per_solve", "bytes", "lower"},
	{"runtime.gc_cycles_per_kop", "1/kop", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"graphio.open_ms", "ms", "lower"},
	{"graphio.decode_us", "us", "lower"},
	{"graphio.digest_ms", "ms", "lower"},
	{"server.handler_us_p50", "us", "lower"},
	{"server.handler_us_p99", "us", "lower"},
	{"unattributed_us", "us", "lower"},
	{"server.cache_hit_ratio", "ratio", "higher"},
	{"server.batch_size_mean", "count", "higher"},
	{"server.sheds", "count", "lower"},
	{"dyngraph.commit_ms", "ms", "lower"},
	{"wal.append_ms", "ms", "lower"},
	{"wal.fsyncs_per_append", "ratio", "lower"},
	{"wal.recovery_ms", "ms", "lower"},
	{"loadgen.lag_p99_ms", "ms", "lower"},
	{"loadgen.cpu_ms_per_op", "ms", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}

// metric is one reported figure; Note gives its base (sample count, the
// percentile used, the counts a ratio was taken from).
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	Note  string  `json:"note,omitempty"`
}

// report is one run's full result, printed and written to the results
// directory.
type report struct {
	Workload  string   `json:"workload"`
	Trace     bool     `json:"trace"`
	Env       envStamp `json:"env"`
	Attempted int      `json:"attempted"`
	Errors    int      `json:"errors"`
	Sheds     int      `json:"sheds"`
	Wrong     int      `json:"wrong"`
	Notes     []string `json:"notes,omitempty"`
	EndToEnd  []metric `json:"end_to_end"`
	Omitted   []metric `json:"omitted,omitempty"`
	Layers    []metric `json:"per_layer,omitempty"`
	SpansFile string   `json:"spans_file,omitempty"`
}

func (r *report) add(name, unit string, v float64, note string) {
	r.EndToEnd = append(r.EndToEnd, metric{name, unit, v, note})
}

func (r *report) omit(name, why string) {
	r.Omitted = append(r.Omitted, metric{Name: name, Note: why})
}

func (r *report) layer(name, unit string, v float64, note string) {
	r.Layers = append(r.Layers, metric{name, unit, v, note})
}

func (r *report) failed() int { return r.Errors + r.Sheds + r.Wrong }

// envStamp identifies where and on what a result was measured.
type envStamp struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	L2         string  `json:"l2_cache"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	SourceHash string  `json:"source_sha256"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

func stamp(seed int64, seconds float64) envStamp {
	e := envStamp{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Seed: seed, Seconds: seconds, CPUModel: "unknown", L2: "unknown", Commit: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index2/size"); err == nil {
		e.L2 = strings.TrimSpace(string(b))
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	e.SourceHash = sourceHash(".")
	return e
}

// sourceHash digests the Go sources and module files under root, so a
// result names the code it measured even in a checkout without git.
func sourceHash(root string) string {
	var files []string
	// Best effort: an unreadable entry only leaves the hash less specific.
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == solveChildArg {
		os.Exit(solveChildMain(os.Args[2:]))
	}
	os.Exit(mainErr(os.Args[1:], os.Stdout))
}

// mainErr runs one invocation and returns the exit code: 0 for a result
// with every answer correct, 1 for wrong answers or a failed run, 2 for
// bad arguments, 3 for an invalid run (no result printed).
func mainErr(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("kwmdsbench", flag.ContinueOnError)
	var cfg config
	var name string
	var trace int
	fs.StringVar(&name, "workload", "", "workload name")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "timed phase length")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer breakdown")
	fs.StringVar(&cfg.kwmds, "kwmds", "", "kwmds binary built from the same checkout")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for everything the run writes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(name)
	if !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) || cfg.kwmds == "" {
		fmt.Fprintf(os.Stderr, "kwmdsbench: need -kwmds, -seconds > 0, -trace 0|1 and -workload one of %s\n", workloadNames())
		return 2
	}
	cfg.trace, cfg.conns = trace == 1, runtime.NumCPU()
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "kwmdsbench:", err)
		return 1
	}
	rep, err := run(cfg, w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kwmdsbench:", err)
		var inv *invalidError
		if errors.As(err, &inv) {
			return 3
		}
		return 1
	}
	rep.Env = stamp(cfg.seed, cfg.seconds)
	line, err := resultLine(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kwmdsbench:", err)
		return 1
	}
	if err := writeReport(cfg, rep); err != nil {
		fmt.Fprintln(os.Stderr, "kwmdsbench:", err)
		return 1
	}
	printReport(stdout, rep)
	fmt.Fprintln(stdout, line)
	if rep.Wrong > 0 {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return strings.Join(names, "|")
}

// resultLine renders the final JSON object: the end-to-end metrics of an
// untraced run or the per-layer metrics of a traced one, each required.
func resultLine(rep *report) (string, error) {
	defs, have := endToEnd, rep.EndToEnd
	if rep.Trace {
		defs, have = perLayer, rep.Layers
	}
	byName := map[string]metric{}
	for _, m := range have {
		byName[m.Name] = m
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	for _, d := range defs {
		m, ok := byName[d.Name]
		if !ok || m.Unit != d.Unit || !validName(d.Name) || !validUnit(d.Unit) {
			return "", fmt.Errorf("metric %s (%s) is missing or malformed", d.Name, d.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return "", fmt.Errorf("metric %s has no finite value (%v): too few samples", d.Name, m.Value)
		}
		out[d.Name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Wrong == 0, rep.Attempted, rep.failed(), out})
	return string(b), err
}

func printReport(w io.Writer, rep *report) {
	mode := "end-to-end"
	if rep.Trace {
		mode = "traced"
	}
	env, _ := json.Marshal(rep.Env)
	fmt.Fprintf(w, "workload %s (%s run)\n", rep.Workload, mode)
	fmt.Fprintf(w, "env %s\n", env)
	for _, m := range rep.EndToEnd {
		fmt.Fprintf(w, "  %-28s %14.6g %-6s %s\n", m.Name, m.Value, m.Unit, m.Note)
	}
	ff := 0.0
	if rep.Attempted > 0 {
		ff = float64(rep.failed()) / float64(rep.Attempted)
	}
	fmt.Fprintf(w, "  %-28s %14.6g %-6s %d errors + %d sheds + %d wrong of %d attempted\n",
		"failed_frac", ff, "ratio", rep.Errors, rep.Sheds, rep.Wrong, rep.Attempted)
	for _, m := range rep.Omitted {
		fmt.Fprintf(w, "  %-28s %14s %-6s %s\n", m.Name, "-", "", m.Note)
	}
	for _, m := range rep.Layers {
		fmt.Fprintf(w, "  %-28s %14.6g %-6s %s\n", m.Name, m.Value, m.Unit, m.Note)
	}
	for _, n := range rep.Notes {
		fmt.Fprintf(w, "  check: %s\n", n)
	}
	if rep.SpansFile != "" {
		fmt.Fprintf(w, "spans written to %s\n", rep.SpansFile)
	}
}

func writeReport(cfg config, rep *report) error {
	dir := filepath.Join(cfg.workdir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%v.json", rep.Workload, cfg.seed, cfg.trace)
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}
