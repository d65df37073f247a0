package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"sgmldb"
	"sgmldb/internal/service"
)

// node is one database served by internal/service over loopback HTTP, the
// way cmd/sgmldbd serves it: open mode, default options.
type node struct {
	db   *sgmldb.Database
	srv  *service.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

func startNode(db *sgmldb.Database) (*node, error) {
	srv, err := service.New(db, service.Config{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{db: db, srv: srv, hs: &http.Server{Handler: srv}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(n.done)
		_ = n.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return n, nil
}

// stop drains the server (waking parked feed long-polls), waits for its
// handlers and its serve goroutine, then closes the database.
func (n *node) stop() error {
	n.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := n.hs.Shutdown(ctx)
	<-n.done
	if cerr := n.db.Close(); err == nil {
		err = cerr
	}
	return err
}

// client is one request-issuing connection: its transport keeps at most
// one connection to the server.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// raw performs one request and returns the whole response body.
func (c *client) raw(method, path string, in any) ([]byte, http.Header, int, error) {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return nil, nil, 0, err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return nil, nil, 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return data, resp.Header, resp.StatusCode, err
}

// call performs one JSON request and decodes a 200 answer into out.
func (c *client) call(method, path string, in, out any) error {
	data, _, status, err := c.raw(method, path, in)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if status != http.StatusOK {
		if len(data) > 300 {
			data = data[:300]
		}
		return fmt.Errorf("%s %s: status %d: %s", method, path, status, data)
	}
	return json.Unmarshal(data, out)
}

type loadResp struct {
	OIDs      []string `json:"oids"`
	Epoch     uint64   `json:"epoch"`
	ElapsedUS int64    `json:"elapsed_us"`
}

func (c *client) load(srcs []string) (loadResp, error) {
	var r loadResp
	err := c.call("POST", "/v1/load", map[string]any{"documents": srcs}, &r)
	if err == nil && len(r.OIDs) != len(srcs) {
		err = fmt.Errorf("load: %d oids for %d documents", len(r.OIDs), len(srcs))
	}
	return r, err
}

func (c *client) prepare(src string) (string, error) {
	var r struct {
		Handle string `json:"handle"`
	}
	err := c.call("POST", "/v1/prepare", map[string]any{"query": src}, &r)
	return r.Handle, err
}

// query runs o ad hoc, or through handle when o.prepared and a handle is
// given.
func (c *client) query(o queryOp, handle string) (rowsResp, error) {
	var r rowsResp
	if o.k == statusFinal && o.prepared && handle != "" {
		return r, c.call("POST", "/v1/execute/"+handle, nil, &r)
	}
	return r, c.call("POST", "/v1/query", map[string]any{"query": o.src()}, &r)
}
