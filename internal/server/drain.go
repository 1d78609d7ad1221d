package server

import (
	"context"
	"net"
	"net/http"
	"time"
)

// Connection bounds of the server Graceful runs. readTimeout covers a whole
// request, headers and body: at the default 64 MiB body cap it still admits
// a client sending under 2 Mbit/s, while a client that sends headers and
// then trickles its body can no longer hold a handler goroutine without
// limit. The bound stops applying once the body is read, so a long solve is
// unaffected. idleTimeout closes keep-alive connections nobody reuses.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 5 * time.Minute
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer builds the http.Server Graceful runs, with read as the
// whole-request read bound.
func newHTTPServer(h http.Handler, read time.Duration) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       read,
		IdleTimeout:       idleTimeout,
	}
}

// Graceful serves h on ln until stop closes (or receives), then drains: the
// listener closes immediately — new connections are refused — while requests
// already in flight run to completion. That includes solves queued on the
// worker pool and solves waiting on a shared LP stage: their handler
// goroutines block until the computation answers, and Shutdown waits for
// every active handler, so they are all answered before the process exits.
// Returns nil after a clean drain (the caller exits 0), the serve or drain
// error otherwise. timeout bounds the drain; 0 waits indefinitely.
func Graceful(ln net.Listener, h http.Handler, stop <-chan struct{}, timeout time.Duration) error {
	hs := newHTTPServer(h, readTimeout)
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-stop:
	}
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	return hs.Shutdown(ctx)
}
