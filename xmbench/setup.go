package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"

	xmjoin "repro"
	"repro/internal/server"
)

// loadDatabase builds a database from generated inputs through the public
// loaders.
func loadDatabase(in tenantInput) (*xmjoin.Database, error) {
	db := xmjoin.NewDatabase()
	if in.XML != "" {
		if err := db.LoadXMLString(in.XML); err != nil {
			return nil, fmt.Errorf("tenant %s: loading XML: %w", in.Name, err)
		}
	}
	for _, t := range in.Tables {
		if err := db.AddTableRows(t.Name, t.Attrs, t.Rows); err != nil {
			return nil, fmt.Errorf("tenant %s: %w", in.Name, err)
		}
	}
	return db, nil
}

// newServer loads every tenant and registers it with a fresh server, the
// set-up a serving process pays before its first request.
func newServer(tenants []tenantInput, budgets map[string]int64) (*server.Server, error) {
	srv := server.New(server.Config{})
	for _, in := range tenants {
		db, err := loadDatabase(in)
		if err != nil {
			return nil, err
		}
		if _, err := srv.AddTenantConfig(in.Name, db, server.TenantConfig{CatalogBudget: budgets[in.Name]}); err != nil {
			return nil, err
		}
	}
	return srv, nil
}

// setupRounds is how many times a run sets up; setup_s is their median.
const setupRounds = 25

// setUp builds the server setupRounds times and keeps the last one. Each
// round starts on a collected heap, so no round pays for collecting the
// servers before it.
func setUp(tenants []tenantInput, budgets map[string]int64) (*server.Server, float64, error) {
	var srv *server.Server
	var secs []float64
	for i := 0; i < setupRounds; i++ {
		srv = nil
		runtime.GC()
		start := time.Now()
		s, err := newServer(tenants, budgets)
		if err != nil {
			return nil, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		srv = s
	}
	return srv, medianOf(secs), nil
}

// listener serves a handler on a loopback port until close.
type listener struct {
	url  string
	hs   *http.Server
	done chan error
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { l.done <- l.hs.Serve(ln) }()
	return l, nil
}

// close stops serving and waits for the serve loop to return.
func (l *listener) close() error {
	err := l.hs.Close()
	if serr := <-l.done; !errors.Is(serr, http.ErrServerClosed) {
		return serr
	}
	return err
}
