package main

import (
	"context"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"time"

	"netpart/internal/serve"
	"netpart/internal/store"
)

// workers is the server's worker-pool bound: the benchmark host has
// two CPUs.
const workers = 2

// env is one server under test: serve.New(...).Handler() on a
// loopback listener, a one-client HTTP transport that keeps one
// connection (so the live heap does not depend on whether a second
// one was dialled), and the same handler for in-process calls.
type env struct {
	srv    *serve.Server
	hs     *http.Server
	lis    net.Listener
	loop   *target
	inproc *target
	fs     *store.FS // serve-hot only
	dir    string    // the FS store's directory
	served chan struct{}
}

// newEnv starts a server. With storeIn non-empty the server gets an
// FS store in a fresh directory under it.
func newEnv(storeIn string) (*env, error) {
	e := &env{served: make(chan struct{})}
	opts := serve.Options{
		Workers: workers,
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	if storeIn != "" {
		dir, err := os.MkdirTemp(storeIn, "store-")
		if err != nil {
			return nil, err
		}
		e.dir = dir
		if e.fs, err = store.OpenFS(dir, 0); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		opts.Store = e.fs
	}
	e.srv = serve.New(opts)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, err
	}
	e.lis = lis
	e.hs = &http.Server{Handler: e.srv.Handler()}
	go func() {
		defer close(e.served)
		e.hs.Serve(lis) //nolint:errcheck // returns ErrServerClosed on close
	}()
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	e.loop = &target{prefix: "http", client: &http.Client{Transport: tr}, base: "http://" + lis.Addr().String()}
	e.inproc = &target{prefix: "serve", base: "http://perfbench", h: e.srv.Handler()}
	return e, nil
}

// close stops the listener and the server and waits for both.
func (e *env) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if e.hs != nil {
		e.hs.Shutdown(ctx) //nolint:errcheck // best effort at teardown
		<-e.served
		e.loop.client.CloseIdleConnections()
	}
	if e.srv != nil {
		e.srv.Shutdown(ctx) //nolint:errcheck // best effort at teardown
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}
