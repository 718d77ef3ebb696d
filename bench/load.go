package main

import (
	"bytes"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"blu/internal/serve"
)

// response is what a check sees of one answered request. body aliases
// the client's read buffer and is valid until the client's next send.
type response struct {
	status int
	body   []byte
	hit    bool // X-Blu-Cache: hit
}

// client is one closed-loop controller: it holds one keep-alive
// connection per host and sends its next request only after the
// previous reply, as an eNB waiting on its grant does.
type client struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newClient() *client {
	return &client{hc: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1},
		Timeout:   60 * time.Second,
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// Backpressure answers (429 queue-full, 307 reshard fence) are retried
// a few times after a short pause, as bluload does; what is left after
// that counts as a failure.
const (
	maxRetries   = 3
	retryBackoff = 50 * time.Millisecond
)

func (c *client) send(rq *request, direct bool) (response, error) {
	url := rq.url
	if direct && rq.directURL != "" {
		url = rq.directURL
	}
	for attempt := 0; ; attempt++ {
		hr, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(rq.body))
		if err != nil {
			return response{}, err
		}
		if rq.binary() {
			hr.Header.Set("Content-Type", serve.ContentTypeBinary)
			hr.Header.Set("Accept", serve.ContentTypeBinary)
		} else {
			hr.Header.Set("Content-Type", "application/json")
		}
		res, err := c.hc.Do(hr)
		if err != nil {
			return response{}, err
		}
		c.buf.Reset()
		_, err = c.buf.ReadFrom(res.Body)
		res.Body.Close()
		if err != nil {
			return response{}, err
		}
		if (res.StatusCode == http.StatusTooManyRequests || res.StatusCode == http.StatusTemporaryRedirect) && attempt < maxRetries {
			time.Sleep(retryBackoff)
			continue
		}
		return response{
			status: res.StatusCode,
			body:   c.buf.Bytes(),
			hit:    res.Header.Get("X-Blu-Cache") == "hit",
		}, nil
	}
}

// iterator is one client's deterministic request source. check decides
// whether an answered request counts as an operation and advances any
// per-session expectation; deep (the verification pass) additionally
// compares against the in-process reference and scores the answer.
type iterator interface {
	next() *request
	check(rq *request, rs *response, deep bool) verdict
}

// verdict is what a check found. scored answers count toward quality
// with score in [0,1]; strict is the workload's all-or-nothing
// criterion for the same answer.
type verdict struct {
	ok     bool
	scored bool
	score  float64
	strict bool
}

// resources is one sample of the process-wide cost counters.
type resources struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
	numGC   uint32
	pauseNS uint64
}

func sampleResources() resources {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return resources{
		at:      time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		numGC:   ms.NumGC,
		pauseNS: ms.PauseTotalNs,
	}
}

// windowSlices is how many equal parts a timed window is cut into. Each
// end-to-end number is the median over the parts, so one noisy stretch
// (a snapshot, a neighbour on the host) does not set the result.
const windowSlices = 5

// tally is one client's record of a window; merged after the run so
// the loop takes no locks.
type tally struct {
	lat       [windowSlices][]int64 // ns, by completion slice
	attempted int
	failed    int
	firstErr  string
}

// hook lets the traced pass act on each answered request from the
// client's own goroutine; sent is when the request left.
type hook func(c int, seq int, rq *request, rs *response, sent, done time.Time, direct bool)

// windowResult is a finished timed window.
type windowResult struct {
	seconds   float64
	attempted int
	failed    int
	firstErr  string
	lat       [windowSlices][]int64 // sorted
	all       []int64               // sorted
	res       [windowSlices + 1]resources
}

// runWindow drives every iterator from its own client for d. With
// alternate set, every second group of requests bypasses the router
// (groups, so a session's observes and its infer take the same route).
func runWindow(iters []iterator, clients []*client, d time.Duration, alternate bool, h hook) *windowResult {
	tallies := make([]tally, len(iters))
	out := &windowResult{seconds: d.Seconds()}
	slice := d / windowSlices
	var wg sync.WaitGroup
	out.res[0] = sampleResources()
	start := out.res[0].at
	deadline := start.Add(d)
	for c := range iters {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t, it, cl := &tallies[c], iters[c], clients[c]
			for seq := 0; ; seq++ {
				sent := time.Now()
				if !sent.Before(deadline) {
					return
				}
				rq := it.next()
				direct := alternate && seq/(observesPerInfer+1)%2 == 1
				rs, err := cl.send(rq, direct)
				done := time.Now()
				t.attempted++
				if err != nil || !it.check(rq, &rs, false).ok {
					t.failed++
					if t.firstErr == "" {
						t.firstErr = describeFailure(rq, &rs, err)
					}
					continue
				}
				k := int(done.Sub(start) / slice)
				if k >= windowSlices {
					k = windowSlices - 1
				}
				t.lat[k] = append(t.lat[k], int64(done.Sub(sent)))
				if h != nil {
					h(c, seq, rq, &rs, sent, done, direct)
				}
			}
		}(c)
	}
	for k := 1; k <= windowSlices; k++ {
		time.Sleep(time.Until(start.Add(time.Duration(k) * slice)))
		out.res[k] = sampleResources()
	}
	wg.Wait()
	for c := range tallies {
		t := &tallies[c]
		out.attempted += t.attempted
		out.failed += t.failed
		if out.firstErr == "" {
			out.firstErr = t.firstErr
		}
		for k := range t.lat {
			out.lat[k] = append(out.lat[k], t.lat[k]...)
		}
	}
	for k := range out.lat {
		sortInt64(out.lat[k])
		out.all = append(out.all, out.lat[k]...)
	}
	sortInt64(out.all)
	return out
}

func describeFailure(rq *request, rs *response, err error) string {
	if err != nil {
		return fmt.Sprintf("%s: %v", rq.path, err)
	}
	body := rs.body
	if len(body) > 120 {
		body = body[:120]
	}
	return fmt.Sprintf("%s id=%d: status %d, check failed, body %q", rq.path, rq.id, rs.status, body)
}

func sortInt64(v []int64) { sort.Slice(v, func(i, j int) bool { return v[i] < v[j] }) }

// quantile reads the q-quantile of sorted (nearest rank); 0 when empty.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// perSlice evaluates f on each slice of the window.
func (w *windowResult) perSlice(f func(lat []int64, a, b resources) float64) []float64 {
	out := make([]float64, windowSlices)
	for k := range out {
		out[k] = f(w.lat[k], w.res[k], w.res[k+1])
	}
	return out
}

func (w *windowResult) ops() int { return len(w.all) }
