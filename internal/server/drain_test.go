package server

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"kwmds/internal/gen"
	"kwmds/internal/graph"
)

// TestGracefulDrain: after stop fires, the in-flight request finishes and is
// answered, new connections are refused, and Graceful returns nil (the
// process exits 0).
func TestGracefulDrain(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		io.WriteString(w, `"drained"`)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- Graceful(ln, h, stop, 10*time.Second) }()

	respc := make(chan *http.Response, 1)
	errc := make(chan error, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/")
		if err != nil {
			errc <- err
			return
		}
		respc <- resp
	}()
	<-entered
	close(stop)

	// The listener must close promptly: fresh connections get refused
	// while the in-flight handler is still running.
	deadline := time.Now().Add(5 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second)
		if err != nil {
			break
		}
		conn.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting long after stop")
		}
		time.Sleep(5 * time.Millisecond)
	}

	close(release)
	select {
	case resp := <-respc:
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 || string(body) != `"drained"` {
			t.Fatalf("in-flight request answered %d %q", resp.StatusCode, body)
		}
	case err := <-errc:
		t.Fatalf("in-flight request failed: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never completed")
	}
	if err := <-done; err != nil {
		t.Fatalf("Graceful returned %v, want nil", err)
	}
}

// TestGracefulDrainRealServer smoke-tests the drain against the actual
// service: a solve dispatched just before stop — one still running its LP
// stage — must still be answered 200 and the drain must return nil.
func TestGracefulDrainRealServer(t *testing.T) {
	g, err := gen.UnitDisk(300, 0.1, 5)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Workers: 2, Graphs: map[string]*graph.Graph{"g": g}})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Wrap the handler so the test can fire the drain at the precise
	// moment the solve request is in flight.
	entered := make(chan struct{})
	var once sync.Once
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() { close(entered) })
		srv.Handler().ServeHTTP(w, r)
	})
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- Graceful(ln, h, stop, 30*time.Second) }()

	type result struct {
		status int
		body   []byte
		err    error
	}
	resc := make(chan result, 1)
	go func() {
		resp, err := http.Post("http://"+ln.Addr().String()+"/v1/solve", "application/json",
			strings.NewReader(`{"graph_ref":"g","k":3,"seed":1}`))
		if err != nil {
			resc <- result{err: err}
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		resc <- result{status: resp.StatusCode, body: body}
	}()
	// Fire the drain while the solve handler is running — typically still
	// inside the LP stage; either way the handler must finish.
	<-entered
	close(stop)

	res := <-resc
	if res.err != nil {
		t.Fatalf("solve during drain failed: %v", res.err)
	}
	if res.status != 200 {
		t.Fatalf("solve during drain answered %d: %s", res.status, res.body)
	}
	var parsed map[string]any
	if err := json.Unmarshal(res.body, &parsed); err != nil {
		t.Fatalf("solve answered malformed JSON: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Graceful returned %v, want nil", err)
	}
}

// TestGracefulSetsReadTimeouts pins the connection bounds on the server
// Graceful itself runs, observed from inside a handler, and checks the
// whole-request read bound still admits a default-size body on a slow link.
func TestGracefulSetsReadTimeouts(t *testing.T) {
	seen := make(chan *http.Server, 1)
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hs, _ := r.Context().Value(http.ServerContextKey).(*http.Server)
		seen <- hs
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- Graceful(ln, h, stop, 10*time.Second) }()
	resp, err := http.Get("http://" + ln.Addr().String() + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	hs := <-seen
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("Graceful returned %v, want nil", err)
	}
	if hs == nil {
		t.Fatal("handler saw no *http.Server in its context")
	}
	if hs.ReadTimeout != readTimeout || hs.IdleTimeout != idleTimeout || hs.ReadHeaderTimeout != readHeaderTimeout {
		t.Fatalf("Graceful server timeouts: read %v idle %v header %v, want %v / %v / %v",
			hs.ReadTimeout, hs.IdleTimeout, hs.ReadHeaderTimeout, readTimeout, idleTimeout, readHeaderTimeout)
	}
	// The default body cap must fit the read bound at 2 Mbit/s.
	maxBody := New(Config{}).cfg.MaxBodyBytes
	if need := time.Duration(float64(maxBody*8) / 2e6 * float64(time.Second)); readTimeout < need {
		t.Fatalf("readTimeout %v is below the %v a %d-byte body needs at 2 Mbit/s", readTimeout, need, maxBody)
	}
}

// TestReadTimeoutDisconnectsTrickler: a client that sends a solve's headers
// and then trickles its body a byte at a time is cut off once the read bound
// passes — the handler returns and the connection closes. The server comes
// from the constructor Graceful uses, with the bound shortened.
func TestReadTimeoutDisconnectsTrickler(t *testing.T) {
	g, err := gen.UnitDisk(50, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Workers: 1, Graphs: map[string]*graph.Graph{"g": g}})
	returned := make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer close(returned)
		srv.Handler().ServeHTTP(w, r)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := newHTTPServer(h, 300*time.Millisecond)
	go hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed at cleanup
	t.Cleanup(func() { hs.Close() })

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /v1/solve HTTP/1.1\r\nHost: kwmds\r\nContent-Type: application/json\r\nContent-Length: 4096\r\n\r\n{"); err != nil {
		t.Fatal(err)
	}
	quit := make(chan struct{})
	defer close(quit)
	go func() {
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				if _, err := io.WriteString(conn, " "); err != nil {
					return
				}
			}
		}
	}()

	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("handler still reading a trickled body long after the read bound")
	}
	// The server must drop the connection: reads end in EOF or a reset,
	// never in our own deadline.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	_, err = io.Copy(io.Discard, conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("connection still open after the read bound")
	}
}
