package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptrace"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// client is one closed-loop caller: it sends its next request only after
// reading the previous response to EOF, over one keep-alive connection.
type client struct {
	hc    *http.Client
	conns *atomic.Int64 // connections opened, shared by the clients of a deployment
	// spans is non-nil in the traced pass; only this client's goroutine
	// appends to it.
	spans *[]span
}

// newClients builds n clients that count the connections they open into
// conns. Each has its own transport, so no client can borrow another's
// idle connection.
func newClients(n int, conns *atomic.Int64) []*client {
	cs := make([]*client, n)
	for i := range cs {
		cs[i] = &client{
			hc: &http.Client{
				Timeout: 60 * time.Second,
				Transport: &http.Transport{
					MaxIdleConnsPerHost: 1,
					DisableCompression:  true,
				},
			},
			conns: conns,
		}
	}
	return cs
}

// exchange is one HTTP request/response pair.
type exchange struct {
	code       int
	body       []byte
	hdr        http.Header
	start, end time.Time
	err        error
}

func (e *exchange) latency() time.Duration { return e.end.Sub(e.start) }

// ok reports a 2xx response read in full.
func (e *exchange) ok() bool { return e.err == nil && e.code >= 200 && e.code < 300 }

// describe names a failed exchange for the error report.
func (e *exchange) describe() string {
	if e.err != nil {
		return e.err.Error()
	}
	return fmt.Sprintf("HTTP %d: %s", e.code, bytes.TrimSpace(e.body))
}

// do sends one request and reads the whole response body, so the
// connection returns to the pool for the next request.
func (c *client) do(method, url, reqID string, body []byte) *exchange {
	trace := &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) {
		if !info.Reused {
			c.conns.Add(1)
		}
	}}
	ctx := httptrace.WithClientTrace(context.Background(), trace)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return &exchange{err: err}
	}
	req.Header.Set("X-Request-ID", reqID)
	ex := &exchange{start: time.Now()}
	resp, err := c.hc.Do(req)
	if err != nil {
		ex.end = time.Now()
		ex.err = err
		return ex
	}
	ex.body, ex.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	ex.end = time.Now()
	ex.code = resp.StatusCode
	ex.hdr = resp.Header
	return ex
}

// closedLoop runs ops 0..n-1 across the clients, each client taking the
// next unclaimed index when its previous op completes, and returns the
// wall-clock time from the first send to the last completion. Every run
// replays the whole list, so latency percentiles always cover the same
// requests.
func closedLoop(clients []*client, n int, op func(c *client, i int)) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				op(c, i)
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// latencyStats is the median and the tail of a set of op latencies. The
// tail is the highest percentile of tailLadder that has at least ten
// samples beyond it.
type latencyStats struct {
	p50, tail time.Duration
	tailPct   float64
	beyond    int // samples above the tail percentile
	n         int
}

var tailLadder = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

func summarize(lats []time.Duration) latencyStats {
	s := append([]time.Duration(nil), lats...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	st := latencyStats{n: n}
	if n == 0 {
		return st
	}
	st.p50 = s[(n-1)/2]
	if n%2 == 0 {
		st.p50 = (s[n/2-1] + s[n/2]) / 2
	}
	for _, p := range tailLadder {
		rank := int(math.Ceil(p / 100 * float64(n))) // nearest-rank percentile
		if n-rank >= 10 || p == 50 {
			st.tail, st.tailPct, st.beyond = s[max(rank, 1)-1], p, n-rank
			break
		}
	}
	return st
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
