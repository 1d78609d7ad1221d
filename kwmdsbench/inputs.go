package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"

	"kwmds/internal/gen"
	"kwmds/internal/graph"
	"kwmds/internal/graphio"
)

// workload describes one benchmark workload. Everything a run sends is
// generated from the run's seed and these sizes.
type workload struct {
	Name string
	// N and Radius size the unit-disk graph (generated from the seed).
	N      int
	Radius float64
	// Serve workloads: open-loop rate in ops/s and the untimed warm-up
	// stretch run at that rate before the timed phase.
	Serve       bool
	Rate        float64
	WarmSeconds float64
	// Keys is the number of distinct (seed, k) solve keys (serve-read).
	Keys int
	// MutateFrac is the share of ops that are single-edge toggles, Seeds
	// the number of solve seeds (serve-churn). PreMutates are applied,
	// untimed, before the server is restarted onto its write-ahead log.
	MutateFrac float64
	Seeds      int
	PreMutates int
	Durable    bool
	// SetupReps is how many times set-up is repeated; setup_s is the median.
	SetupReps int
	// LayerReps is how many in-process solves each traced layer replay times.
	LayerReps int
	// HandlerOps caps the request stream replayed through the in-process
	// handler in a traced run.
	HandlerOps int
}

// graphName is the name the serve workloads preload their graph under.
const graphName = "g"

var workloads = []workload{
	{Name: "solve-udg100k", N: 100000, Radius: 0.0065, SetupReps: 25, LayerReps: 12, HandlerOps: 16},
	{Name: "serve-read", N: 10000, Radius: 0.02, Serve: true, Rate: 3000, WarmSeconds: 1, Keys: 64,
		SetupReps: 15, LayerReps: 40, HandlerOps: 4000},
	{Name: "serve-churn", N: 10000, Radius: 0.02, Serve: true, Rate: 100, WarmSeconds: 1,
		MutateFrac: 0.25, Seeds: 8, PreMutates: 64, Durable: true, SetupReps: 21, LayerReps: 40, HandlerOps: 600},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// solveK is the trade-off parameter of solve-udg100k and serve-churn.
const solveK = 3

// solverWorkers is the phase parallelism of every in-process solve: the
// width the server gives each cold solve with its default worker count on
// a 2-core machine (GOMAXPROCS / Workers). A one-worker solve needs one
// CPU, so it is also far less exposed than a two-worker phase barrier to
// the other core being taken away by a hypervisor.
const solverWorkers = 1

// membersEvery: one solve request in this many asks for the member list,
// which the checks then compare id for id. On the 10k-vertex graphs a list
// is tens of kilobytes of JSON, so asking on every request would make
// encoding and decoding it, not serving, the workload.
const membersEvery = 64

// opKind distinguishes the two request types.
type opKind uint8

const (
	opSolve opKind = iota
	opMutate
)

// op is one generated request.
type op struct {
	Kind    opKind
	Body    []byte
	Seed    int64
	K       int
	Members bool
	// Edge is a mutate's edge; Add says whether it is added or removed.
	Edge [2]int
	Add  bool
}

// inputs is everything generated for one run.
type inputs struct {
	G     *graph.Graph
	Path  string // the graph as a .kwcsr container
	Warm  []op   // serve: untimed prefix of the open loop
	Timed []op   // serve: the timed open loop
	Pre   []op   // serve-churn: untimed mutates applied before the restart
	// Fill is serve-read's cold fill: each key solved once, in order.
	Fill []op
	// Toggles are single-edge toggles for the traced dyngraph/WAL replay on
	// workloads whose stream has none.
	Toggles []op
}

// opSeed is solve-udg100k's rounding seed for op i: fresh per op, so no
// result can be reused.
func opSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) + 1 }

// generate builds the run's inputs from its seed and writes the graph to
// dir as a .kwcsr container.
func generate(w workload, seed int64, seconds float64, dir string) (*inputs, error) {
	g, err := gen.UnitDisk(w.N, w.Radius, seed)
	if err != nil {
		return nil, fmt.Errorf("generating graph: %w", err)
	}
	in := &inputs{G: g, Path: fmt.Sprintf("%s/%s.kwcsr", dir, w.Name)}
	if err := writeKWCSR(in.Path, g); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x6b776d6473))
	picker := newEdgePicker(g, rng)
	switch {
	case w.Keys > 0:
		type key struct {
			seed int64
			k    int
		}
		keys := make([]key, w.Keys)
		for i := range keys {
			keys[i] = key{rng.Int63n(1 << 40), 2 + i%3}
			in.Fill = append(in.Fill, solveOp(keys[i].seed, keys[i].k, false))
		}
		zipf := rand.NewZipf(rng, 1.1, 1, uint64(w.Keys-1))
		draw := func() op {
			k := keys[zipf.Uint64()]
			return solveOp(k.seed, k.k, rng.Intn(membersEvery) == 0)
		}
		in.Warm = stream(int(w.Rate*w.WarmSeconds), draw)
		in.Timed = stream(int(w.Rate*seconds), draw)
	case w.MutateFrac > 0:
		seeds := make([]int64, w.Seeds)
		for i := range seeds {
			seeds[i] = rng.Int63n(1 << 40)
		}
		draw := func() op {
			if rng.Float64() < w.MutateFrac {
				return picker.toggle()
			}
			return solveOp(seeds[rng.Intn(len(seeds))], solveK, rng.Intn(membersEvery) == 0)
		}
		in.Pre = stream(w.PreMutates, picker.toggle)
		in.Warm = stream(int(w.Rate*w.WarmSeconds), draw)
		in.Timed = stream(int(w.Rate*seconds), draw)
	}
	if w.MutateFrac == 0 {
		in.Toggles = stream(100, picker.toggle)
	}
	if picker.err != nil {
		return nil, picker.err
	}
	return in, nil
}

func stream(n int, draw func() op) []op {
	out := make([]op, n)
	for i := range out {
		out[i] = draw()
	}
	return out
}

func solveOp(seed int64, k int, members bool) op {
	body, _ := json.Marshal(graphio.SolveRequest{GraphRef: graphName, K: k, Seed: seed, Members: members})
	return op{Kind: opSolve, Body: body, Seed: seed, K: k, Members: members}
}

// edgePicker draws single-edge toggles that never touch the same vertex
// pair twice: half remove an existing edge, half add a non-edge. Because
// every pair is distinct, each toggle succeeds whatever order concurrent
// clients deliver them in, and any subset replays cleanly on the
// generated graph.
type edgePicker struct {
	g    *graph.Graph
	rng  *rand.Rand
	used map[[2]int]bool
	err  error
}

func newEdgePicker(g *graph.Graph, rng *rand.Rand) *edgePicker {
	return &edgePicker{g: g, rng: rng, used: map[[2]int]bool{}}
}

func (p *edgePicker) toggle() op {
	add := p.rng.Intn(2) == 0
	for tries := 0; tries < 1000; tries++ {
		u := p.rng.Intn(p.g.N())
		var v int
		if add {
			v = p.rng.Intn(p.g.N())
			if v == u || p.g.HasEdge(u, v) {
				continue
			}
		} else {
			nb := p.g.Neighbors(u)
			if len(nb) == 0 {
				continue
			}
			v = int(nb[p.rng.Intn(len(nb))])
		}
		e := [2]int{min(u, v), max(u, v)}
		if p.used[e] {
			continue
		}
		p.used[e] = true
		opName := graphio.OpRemoveEdge
		if add {
			opName = graphio.OpAddEdge
		}
		body, _ := json.Marshal(graphio.MutateRequest{Mutations: []graphio.Mutation{{Op: opName, U: e[0], V: e[1]}}})
		return op{Kind: opMutate, Body: body, Edge: e, Add: add}
	}
	p.err = fmt.Errorf("could not draw a fresh edge toggle")
	return op{}
}

func writeKWCSR(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := graphio.WriteBinaryCSR(bw, g, nil); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	// Synced, so set-up timings never race the kernel writing it back.
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}
