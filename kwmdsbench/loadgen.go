package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"kwmds/internal/graphio"
)

// sample is the outcome of one request, with its answer reduced to what the
// checks compare.
type sample struct {
	Kind   opKind
	Op     int   // index into the stream
	Due    int64 // ns since the loop's origin
	Start  int64
	End    int64
	Status int
	Err    string
	Traced bool
	// Lat and Lag are set by schedule (see there), in ns.
	Lat, Lag int64

	// Solve answers.
	Digest      string
	Epoch       int64
	Size        int
	LP          float64
	Members     bool // the answer carried a member list
	MembersHash uint64
	// Mutate answers.
	Durable bool
}

func (s *sample) ok() bool   { return s.Status == http.StatusOK && s.Err == "" }
func (s *sample) shed() bool { return s.Status == http.StatusTooManyRequests }

// schedule charges an open loop's requests on an ideal client: conns
// connections that send each request exactly when it is due, or as soon as
// one of them frees up, each request holding its connection for its
// measured service time (End - Start). Lat is the time from due to answer
// on that schedule, so a slow answer also delays the requests queued
// behind it; the generator's own lateness (sleep overshoot, its goroutines
// waiting for a CPU) is never charged to the program. Lag is how far
// behind that ideal schedule the real send was: the generator falling
// behind, not the program.
func schedule(ss []sample, conns int) {
	free := make([]int64, conns)
	for i := range ss {
		s := &ss[i]
		c := 0
		for j := range free {
			if free[j] < free[c] {
				c = j
			}
		}
		start := max(s.Due, free[c])
		free[c] = start + s.End - s.Start
		s.Lat, s.Lag = free[c]-s.Due, max(0, s.Start-start)
	}
}

// newClient returns an HTTP client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// openLoop sends ops on a fixed-rate schedule (op i is due at i/rate after
// the start) from conns goroutines, each owning at most one connection and
// taking the next op as soon as it is free. Latencies are then charged by
// schedule. With traceWindows, ops due in odd seconds record a span; the
// even seconds stay untraced, so both arms see the same drift.
func openLoop(client *http.Client, base string, ops []op, rate float64, conns int, tr *tracer, traceWindows bool) []sample {
	out := make([]sample, len(ops))
	origin := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				due := time.Duration(float64(i) / rate * float64(time.Second))
				if d := due - time.Since(origin); d > 0 {
					sleepPrecise(d)
				}
				s := &out[i]
				s.Op, s.Due = i, int64(due)
				s.Traced = traceWindows && int(due/time.Second)%2 == 1
				start := time.Now()
				s.Start = start.Sub(origin).Nanoseconds()
				do(client, base, &ops[i], s)
				end := time.Now()
				s.End = end.Sub(origin).Nanoseconds()
				if s.Traced {
					tr.record("http.request", 0, int64(i), start, end)
				}
			}
		}()
	}
	wg.Wait()
	schedule(out, conns)
	return out
}

// sleepPrecise blocks the calling thread in nanosleep(2), which wakes
// within tens of microseconds; time.Sleep rides the runtime's netpoller,
// whose wait rounds sub-millisecond timeouts up to a whole millisecond —
// at these rates that slop alone would put every send behind schedule.
func sleepPrecise(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// sequential sends ops one after another (cold fills and untimed mutates).
func sequential(client *http.Client, base string, ops []op) []sample {
	out := make([]sample, len(ops))
	origin := time.Now()
	for i := range ops {
		s := &out[i]
		s.Op = i
		s.Start = time.Since(origin).Nanoseconds()
		s.Due = s.Start
		do(client, base, &ops[i], s)
		s.End = time.Since(origin).Nanoseconds()
		s.Lat = s.End - s.Start
	}
	return out
}

// do performs one request and fills s from the answer.
func do(client *http.Client, base string, o *op, s *sample) {
	s.Kind = o.Kind
	path := "/v1/solve"
	if o.Kind == opMutate {
		path = "/v1/graphs/" + graphName + "/mutate"
	}
	resp, err := client.Post(base+path, "application/json", bytes.NewReader(o.Body))
	if err != nil {
		s.Err = err.Error()
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.Status = resp.StatusCode
	if err != nil {
		s.Err = err.Error()
		return
	}
	if resp.StatusCode != http.StatusOK {
		s.Err = fmt.Sprintf("%s: %s", resp.Status, bytes.TrimSpace(body))
		return
	}
	if o.Kind == opMutate {
		var mr graphio.MutateResponse
		if err := json.Unmarshal(body, &mr); err != nil {
			s.Err = err.Error()
			return
		}
		s.Digest, s.Epoch, s.Durable = mr.Digest, mr.Epoch, mr.Durable
		return
	}
	var sr graphio.SolveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		s.Err = err.Error()
		return
	}
	s.Digest, s.Epoch, s.Size, s.LP = sr.Digest, sr.Epoch, sr.Size, sr.LPObjective
	if sr.Members != nil {
		s.Members, s.MembersHash = true, hashMembers(sr.Members)
	}
}

// hashMembers is an FNV-64a over the member ids in order.
func hashMembers(ids []int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, id := range ids {
		for j := range b {
			b[j] = byte(uint64(id) >> (8 * j))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}
