package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"time"
)

// client sends requests over loopback HTTP with at most nproc connections.
type client struct {
	base string
	hc   *http.Client
	or   *oracle
}

func newClient(base string, or *oracle) *client {
	n := runtime.NumCPU()
	tr := &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: tr}, or: or}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// conns is the most connections, and request-issuing goroutines, a
// workload may use.
func (c *client) conns() int { return runtime.NumCPU() }

// outcome is one request's client-side record.
type outcome struct {
	class     string
	latMS     float64 // from the due time (open loop) or the send (closed loop)
	sendMS    float64 // from the send
	lateMS    float64 // send time minus due time
	firstMS   float64 // /stream: send to the first row chunk
	serverMS  float64 // the response's own elapsed_ms
	deadline  int
	rows      int
	want      int // distinct rows of the complete answer
	dups      int
	cancelled bool
	stops     int
	refused   bool // 429
	err       error
}

type queryBody struct {
	Columns       []string   `json:"columns"`
	Rows          [][]string `json:"rows"`
	Cancelled     bool       `json:"cancelled"`
	DeadlineStops int        `json:"deadline_stops"`
	ElapsedMS     float64    `json:"elapsed_ms"`
	Error         string     `json:"error"`
	Done          bool       `json:"done"` // the /stream trailer
}

func (c *client) newRequest(r *request) (*http.Request, error) {
	path := "/query"
	if r.Stream {
		path = "/stream"
	}
	body, err := json.Marshal(map[string]string{"tenant": r.Stmt.Tenant, "query": r.Stmt.Text})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if r.Deadline > 0 {
		req.Header.Set("X-Deadline-Ms", fmt.Sprint(r.Deadline))
	}
	return req, nil
}

// do sends r and checks its answer. due is when the request should have
// been sent; the zero time means "now" (closed loop).
func (c *client) do(r *request, due time.Time) outcome {
	o := outcome{class: r.Class, deadline: r.Deadline}
	want, err := c.or.expect(r.Stmt)
	if err != nil {
		o.err = err
		return o
	}
	o.want = want.want()
	hr, err := c.newRequest(r)
	if err != nil {
		o.err = err
		return o
	}
	sent := time.Now()
	if due.IsZero() {
		due = sent
	}
	o.lateMS = ms(sent.Sub(due))
	resp, err := c.hc.Do(hr)
	if err != nil {
		o.err = err
		return o
	}
	defer resp.Body.Close()
	// Time the transfer alone; decoding and checking come after.
	var data []byte
	var lines [][]byte
	var lineAt []time.Duration
	if r.Stream && resp.StatusCode == http.StatusOK {
		lines, lineAt, err = readLines(resp.Body, sent)
	} else {
		data, err = io.ReadAll(resp.Body)
	}
	end := time.Now()
	o.latMS, o.sendMS = ms(end.Sub(due)), ms(end.Sub(sent))
	switch {
	case err != nil:
		o.err = err
		return o
	case resp.StatusCode == http.StatusTooManyRequests:
		o.refused = true
		o.err = fmt.Errorf("refused: %s", resp.Status)
		return o
	case resp.StatusCode != http.StatusOK:
		o.err = fmt.Errorf("status %s", resp.Status)
		return o
	}
	var body queryBody
	var rows [][]string
	if r.Stream {
		rows, err = decodeStream(lines, lineAt, &body, &o)
	} else {
		err = json.Unmarshal(data, &body)
		rows = body.Rows
	}
	if err == nil && body.Error != "" {
		err = fmt.Errorf("stream error: %s", body.Error)
	}
	if err != nil {
		o.err = err
		return o
	}
	o.cancelled, o.stops, o.serverMS = body.Cancelled, body.DeadlineStops, body.ElapsedMS
	v, err := want.check(body.Columns, rows, body.Cancelled, r.Stream)
	o.rows, o.dups, o.err = v.rows, v.dups, err
	return o
}

// readLines reads an NDJSON body and when each line arrived.
func readLines(rd io.Reader, sent time.Time) ([][]byte, []time.Duration, error) {
	br := bufio.NewReaderSize(rd, 1<<16)
	var lines [][]byte
	var at []time.Duration
	for {
		line, err := br.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			lines = append(lines, line)
			at = append(at, time.Since(sent))
		}
		if err == io.EOF {
			return lines, at, nil
		}
		if err != nil {
			return nil, nil, err
		}
	}
}

// decodeStream decodes a /stream answer: a columns header, row chunks, and
// a trailer, which it leaves in body (columns included).
func decodeStream(lines [][]byte, at []time.Duration, body *queryBody, o *outcome) ([][]string, error) {
	var rows [][]string
	var cols []string
	for i, line := range lines {
		var ch queryBody
		if err := json.Unmarshal(line, &ch); err != nil {
			return nil, fmt.Errorf("stream chunk: %w", err)
		}
		if ch.Columns != nil && cols == nil {
			cols = ch.Columns
		}
		if len(ch.Rows) > 0 && o.firstMS == 0 {
			o.firstMS = ms(at[i])
		}
		rows = append(rows, ch.Rows...)
		if ch.Done {
			*body = ch
			body.Columns = cols
			return rows, nil
		}
	}
	return nil, fmt.Errorf("stream ended without a trailer after %d rows", len(rows))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
