package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"qtag/internal/beacon"
)

// reqHeader carries the benchmark's request id, so a traced run can
// join client-side timings to server-side spans.
const reqHeader = "X-Bench-Req"

// outcome is one request as the client saw it. Times are offsets from
// the phase start.
type outcome struct {
	due, start, end time.Duration
	late            time.Duration // generator lateness: start minus when it could have sent
	ok              bool
	skipped         bool // abandoned unsent: the step was already hopelessly behind
	events          int  // events the server acknowledged
}

// latency is the request's latency from its due time: in an open loop
// this counts the wait a stall imposes on later requests.
func (o outcome) latency() time.Duration { return o.end - o.due }

// newClient returns a client that holds exactly one keep-alive
// connection, so a phase's connection count equals its sender count.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// post sends one ingest request and reports how many events the server
// acknowledged (0 on any failure).
func post(c *http.Client, url string, r *request, id int) (acked int, ok bool) {
	req, err := http.NewRequest(http.MethodPost, url+"/v1/events", bytes.NewReader(r.body))
	if err != nil {
		return 0, false
	}
	ct := "application/json"
	if r.binary {
		ct = beacon.BinaryContentType
	}
	req.Header.Set("Content-Type", ct)
	req.Header.Set(reqHeader, strconv.Itoa(id))
	resp, err := c.Do(req)
	if err != nil {
		return 0, false
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return 0, false
	}
	var ack struct {
		Accepted int `json:"accepted"`
		Rejected int `json:"rejected"`
	}
	if json.Unmarshal(body, &ack) != nil || ack.Rejected != 0 || ack.Accepted != len(r.events) {
		return ack.Accepted, false
	}
	return ack.Accepted, true
}

// runOpen sends reqs at their due times over conns connections. A
// request whose connections are all busy waits in the generator; that
// wait counts in its latency because latency is timed from the due time.
// With giveUp > 0, a request that could not start within giveUp of its
// due time is abandoned unsent, which bounds an overloaded step's drain.
func runOpen(url string, reqs []request, conns, idBase int, giveUp time.Duration) []outcome {
	out := make([]outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < conns; c++ {
		client := newClient()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer client.CloseIdleConnections()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				r := &reqs[i]
				ready := time.Since(t0)
				sleepUntil(t0, r.due)
				start := time.Since(t0)
				if giveUp > 0 && start-r.due > giveUp {
					out[i] = outcome{due: r.due, start: start, end: start, skipped: true}
					continue
				}
				acked, ok := post(client, url, r, idBase+i)
				out[i] = outcome{
					due: r.due, start: start, end: time.Since(t0),
					late: start - max(r.due, ready), ok: ok, events: acked,
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// runClosed sends src's batches back to back on one connection until
// dur has passed, and returns the outcomes with the requests sent.
func runClosed(url string, src *batchSource, dur time.Duration, idBase int) ([]outcome, []request) {
	// Generation runs one batch ahead so it stays off the sender's
	// critical path; a buffer of 2 is enough for that.
	feed := make(chan request, 2)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case feed <- src.next():
			case <-stop:
				return
			}
		}
	}()
	client := newClient()
	defer client.CloseIdleConnections()
	var outs []outcome
	var sent []request
	t0 := time.Now()
	for time.Since(t0) < dur {
		r := <-feed
		start := time.Since(t0)
		acked, ok := post(client, url, &r, idBase+len(outs))
		outs = append(outs, outcome{due: start, start: start, end: time.Since(t0), ok: ok, events: acked})
		sent = append(sent, r)
	}
	close(stop)
	<-done
	return outs, sent
}

// reportPoller reads GET /report open loop at a fixed rate on its own
// connection until stopped.
type reportPoller struct {
	stop chan struct{}
	done chan struct{}
	outs []outcome
}

// reportsPerSecond is the dashboard read rate beside ingest. It is
// fixed (open loop): a reader polling in a closed loop would take CPU
// from ingest in proportion to how fast /report is. At 40/s a round
// yields enough reads for a tail; the reader takes a few percent of a
// core.
const reportsPerSecond = 40

// reportIDBase offsets report request ids from ingest request ids.
const reportIDBase = 1 << 30

func startPoller(url string) *reportPoller {
	p := &reportPoller{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		client := newClient()
		defer client.CloseIdleConnections()
		t0 := time.Now()
		for k := 0; ; k++ {
			due := time.Duration(k) * time.Second / reportsPerSecond
			ready := time.Since(t0)
			sleepUntil(t0, due)
			select {
			case <-p.stop:
				return
			default:
			}
			start := time.Since(t0)
			o := outcome{due: due, start: start, late: start - max(due, ready)}
			req, err := http.NewRequest(http.MethodGet, url+"/report", nil)
			if err != nil {
				panic(err) // the URL is built from a parsed listener address
			}
			req.Header.Set(reqHeader, strconv.Itoa(reportIDBase+k))
			if resp, err := client.Do(req); err == nil {
				_, cerr := io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				o.ok = cerr == nil && resp.StatusCode == http.StatusOK
			}
			o.end = time.Since(t0)
			p.outs = append(p.outs, o)
		}
	}()
	return p
}

// finish stops the poller and returns its outcomes.
func (p *reportPoller) finish() []outcome {
	close(p.stop)
	<-p.done
	return p.outs
}

// sleepUntil blocks until t0+at. It sleeps in nanosleep(2) rather than
// on a runtime timer: Go's timers round sub-millisecond sleeps up to
// about a millisecond on Linux, which would read as generator lateness,
// while nanosleep wakes within tens of microseconds.
func sleepUntil(t0 time.Time, at time.Duration) {
	for {
		wait := at - time.Since(t0)
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(wait))
		if syscall.Nanosleep(&ts, nil) == nil {
			return
		}
	}
}

// failedLatency stands in for a failed or refused request's latency,
// so a failure always counts as missing any latency limit.
const failedLatency = time.Hour

// latencies extracts the due-time latencies of outs.
func latencies(outs []outcome) []time.Duration {
	d := make([]time.Duration, len(outs))
	for i, o := range outs {
		d[i] = o.latency()
		if !o.ok {
			d[i] = failedLatency
		}
	}
	return d
}
