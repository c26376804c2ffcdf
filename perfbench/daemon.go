package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"reusetool/internal/server"
	"reusetool/pkg/client"
)

// daemon is one in-process reusetoold worker: the handler
// cmd/reusetoold serves, on a loopback listener, with its default
// configuration.
type daemon struct {
	srv  *server.Server
	http *http.Server
	done chan error
	tr   *http.Transport
	hc   *http.Client
	cl   *client.Client
}

// startDaemon builds a server with the daemon's defaults and serves it
// on an ephemeral loopback port.
func startDaemon(poll time.Duration) (*daemon, error) {
	srv, err := server.New(server.Config{})
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{
		srv:  srv,
		http: &http.Server{Handler: srv.Handler()},
		done: make(chan error, 1),
	}
	go func() { d.done <- d.http.Serve(ln) }()
	// A private transport keeps each daemon's keep-alive pool separate,
	// so stopping one closes exactly its connections.
	d.tr = &http.Transport{MaxIdleConnsPerHost: 4}
	d.hc = &http.Client{Transport: d.tr}
	d.cl = client.New("http://"+ln.Addr().String(), client.WithHTTPClient(d.hc))
	d.cl.PollInterval = poll
	return d, nil
}

// stop shuts the listener down, drains the scheduler and waits for the
// serve goroutine to exit.
func (d *daemon) stop(ctx context.Context) error {
	err := d.http.Shutdown(ctx)
	if derr := d.srv.Drain(ctx); err == nil {
		err = derr
	}
	if serr := <-d.done; err == nil && serr != http.ErrServerClosed {
		err = serr
	}
	d.tr.CloseIdleConnections()
	return err
}
