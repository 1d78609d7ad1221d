package main

import (
	"fmt"
	"math"
	"sort"

	"kwmds/internal/dyngraph"
	"kwmds/internal/fastpath"
	"kwmds/internal/graph"
	"kwmds/internal/graphio"
	"kwmds/internal/lp"
)

// checker counts wrong answers and keeps the first few descriptions.
type checker struct {
	wrong int
	notes []string
}

func (c *checker) fail(format string, args ...any) {
	c.wrong++
	if len(c.notes) < 8 {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

type refKey struct {
	seed int64
	k    int
}

// answer is a solve result reduced to what is compared bit for bit.
type answer struct {
	size    int
	lp      float64
	members uint64
}

// references solves every key on g in-process with a fresh fastpath solver
// and verifies each set dominates g.
func (c *checker) references(s *fastpath.Solver, g *graph.Graph, keys []refKey) (map[refKey]answer, error) {
	keys = append([]refKey(nil), keys...)
	// Same-k keys adjacent, so the batch shares their LP stage.
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].k != keys[j].k {
			return keys[i].k < keys[j].k
		}
		return keys[i].seed < keys[j].seed
	})
	opts := make([]fastpath.Options, len(keys))
	for i, k := range keys {
		opts[i] = fastpath.Options{K: k.k, Seed: k.seed, Workers: solverWorkers}
	}
	out := make(map[refKey]answer, len(keys))
	err := s.SolveMany(g, opts, func(i int, res fastpath.Result) {
		if !g.IsDominatingSet(res.InDS) {
			c.fail("in-process solve (k=%d, seed=%d) is not a dominating set", keys[i].k, keys[i].seed)
		}
		out[keys[i]] = answer{res.Size, lp.Objective(res.X), hashMembers(graph.Members(res.InDS))}
	})
	return out, err
}

// compare checks one served solve against its in-process reference.
func (c *checker) compare(s *sample, o *op, digest string, epoch int64, ref answer) {
	switch {
	case s.Digest != digest:
		c.fail("op %d: digest %.12s, want %.12s (epoch %d)", s.Op, s.Digest, digest, epoch)
	case s.Epoch != epoch:
		c.fail("op %d: epoch %d, want %d", s.Op, s.Epoch, epoch)
	case s.Size != ref.size:
		c.fail("op %d: size %d, in-process %d", s.Op, s.Size, ref.size)
	case math.Float64bits(s.LP) != math.Float64bits(ref.lp):
		c.fail("op %d: lp_objective %v, in-process %v", s.Op, s.LP, ref.lp)
	case o.Members != s.Members:
		c.fail("op %d: members requested %v, returned %v", s.Op, o.Members, s.Members)
	case s.Members && s.MembersHash != ref.members:
		c.fail("op %d: member list differs from the in-process solve", s.Op)
	}
}

// phase is one stretch of a serve run: the ops sent and their samples.
type phase struct {
	ops     []op
	samples []sample
	timed   bool
}

// checkRead verifies every serve-read answer against an in-process solve of
// its key on the preloaded graph and returns the mean |DS| / Lemma 1 bound
// over the timed solves.
func (c *checker) checkRead(g *graph.Graph, phases []phase) (float64, error) {
	digest := graphio.Digest(g)
	var keys []refKey
	seen := map[refKey]bool{}
	for _, ph := range phases {
		for _, o := range ph.ops {
			k := refKey{o.Seed, o.K}
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	refs, err := c.references(fastpath.New(), g, keys)
	if err != nil {
		return 0, err
	}
	bound := lp.DegreeLowerBound(g)
	var ratios []float64
	for _, ph := range phases {
		for i := range ph.samples {
			s, o := &ph.samples[i], &ph.ops[i]
			if !s.ok() {
				continue
			}
			c.compare(s, o, digest, 0, refs[refKey{o.Seed, o.K}])
			if ph.timed {
				ratios = append(ratios, float64(s.Size)/bound)
			}
		}
	}
	c.checkMonotone(phases)
	return mean(ratios), nil
}

// checkChurn rebuilds every acked epoch from the mutate answers, in epoch
// order, from the generated graph; checks each epoch's digest against the
// one the server acknowledged; and bit-compares every served solve against
// an in-process solve of the graph at the epoch it reports. It returns the
// mean |DS| / Lemma 1 bound over the timed solves.
func (c *checker) checkChurn(g0 *graph.Graph, phases []phase) (float64, error) {
	byEpoch := map[int64]*op{}
	ackDigest := map[int64]string{}
	solvesAt := map[int64][]int{} // epoch → indices into flat
	type ref struct {
		ph, i int
	}
	var flat []ref
	for p, ph := range phases {
		for i := range ph.samples {
			s, o := &ph.samples[i], &ph.ops[i]
			if !s.ok() {
				continue
			}
			if o.Kind == opMutate {
				if !s.Durable {
					c.fail("op %d: mutate acknowledged without \"durable\": true", s.Op)
				}
				if byEpoch[s.Epoch] != nil {
					c.fail("epoch %d acknowledged twice", s.Epoch)
				}
				byEpoch[s.Epoch], ackDigest[s.Epoch] = o, s.Digest
				continue
			}
			solvesAt[s.Epoch] = append(solvesAt[s.Epoch], len(flat))
			flat = append(flat, ref{p, i})
		}
	}
	epochs := int64(len(byEpoch))
	for e := int64(1); e <= epochs; e++ {
		if byEpoch[e] == nil {
			c.fail("acked epochs are not contiguous: %d missing of 1..%d", e, epochs)
			return 0, nil
		}
	}
	var ratios []float64
	solver := fastpath.New()
	dyn := dyngraph.New(g0)
	g := g0
	for e := int64(0); e <= epochs; e++ {
		if e > 0 {
			o := byEpoch[e]
			var err error
			if o.Add {
				err = dyn.AddEdge(o.Edge[0], o.Edge[1])
			} else {
				err = dyn.RemoveEdge(o.Edge[0], o.Edge[1])
			}
			if err != nil {
				return 0, fmt.Errorf("rebuilding epoch %d: %w", e, err)
			}
			d, err := dyn.Commit()
			if err != nil {
				return 0, fmt.Errorf("rebuilding epoch %d: %w", e, err)
			}
			g = d.Next
		}
		idx := solvesAt[e]
		if e > 0 || len(idx) > 0 {
			digest := graphio.Digest(g)
			if e > 0 && digest != ackDigest[e] {
				c.fail("epoch %d: acknowledged digest %.12s, rebuilt graph has %.12s", e, ackDigest[e], digest)
			}
			if len(idx) == 0 {
				continue
			}
			var keys []refKey
			seen := map[refKey]bool{}
			for _, j := range idx {
				o := &phases[flat[j].ph].ops[flat[j].i]
				if k := (refKey{o.Seed, o.K}); !seen[k] {
					seen[k] = true
					keys = append(keys, k)
				}
			}
			refs, err := c.references(solver, g, keys)
			if err != nil {
				return 0, err
			}
			bound := lp.DegreeLowerBound(g)
			for _, j := range idx {
				ph := &phases[flat[j].ph]
				s, o := &ph.samples[flat[j].i], &ph.ops[flat[j].i]
				c.compare(s, o, digest, e, refs[refKey{o.Seed, o.K}])
				if ph.timed {
					ratios = append(ratios, float64(s.Size)/bound)
				}
			}
		}
	}
	c.checkMonotone(phases)
	return mean(ratios), nil
}

// checkMonotone verifies that no answer shows an older epoch than an answer
// the client had already received before sending it. Phases run one after
// another, so each starts from the previous phase's highest epoch.
func (c *checker) checkMonotone(phases []phase) {
	var floor int64
	for _, ph := range phases {
		var ok []*sample
		for i := range ph.samples {
			if ph.samples[i].ok() {
				ok = append(ok, &ph.samples[i])
			}
		}
		byEnd := append([]*sample(nil), ok...)
		sort.Slice(byEnd, func(i, j int) bool { return byEnd[i].End < byEnd[j].End })
		byStart := append([]*sample(nil), ok...)
		sort.Slice(byStart, func(i, j int) bool { return byStart[i].Start < byStart[j].Start })
		seen, j := floor, 0
		for _, s := range byStart {
			for j < len(byEnd) && byEnd[j].End < s.Start {
				seen = max(seen, byEnd[j].Epoch)
				j++
			}
			if s.Epoch < seen {
				c.fail("op %d: epoch %d after epoch %d had already been answered", s.Op, s.Epoch, seen)
			}
		}
		for _, s := range ok {
			floor = max(floor, s.Epoch)
		}
	}
}
