package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"qtag/internal/wal"
)

// layer names one span kind: a boundary the traced run times.
type layer uint8

const (
	lAdmission layer = iota // admission.Controller.Middleware (the outermost handler)
	lServer                 // beacon.Server.ServeHTTP
	lStore                  // beacon.Store.Submit
	lAggregate              // aggregate.Aggregator.Observe
	lDetect                 // detect.Detector.Observe / ObserveDup
	lJournal                // beacon.WALJournal.Submit
	lWALWrite               // wal.File.Write (committer goroutine)
	lWALSync                // wal.File.Sync (committer goroutine)
	lReport                 // report.HandlerWithDetect
	numLayers
)

var layerNames = [numLayers]string{"admission", "server", "store", "aggregate", "detect", "journal", "wal.write", "wal.fsync", "report"}

// parentOf is each layer's parent in the call tree. The WAL's writes and
// fsyncs run on its committer goroutine, outside any request; they are
// attributed to the journal spans they overlap.
var parentOf = [numLayers]layer{
	lAdmission: lAdmission, // root
	lServer:    lAdmission,
	lStore:     lServer,
	lAggregate: lStore,
	lDetect:    lStore,
	lJournal:   lServer,
	lWALWrite:  lJournal,
	lWALSync:   lJournal,
	lReport:    lServer,
}

// span is one timed call. Times are nanoseconds since the recorder's
// base; req is the benchmark request id, or -1 for WAL I/O.
type span struct {
	layer      layer
	req        int32
	start, end int64
	bytes      int64 // wal.write and report spans: bytes written
}

func (s span) dur() int64 { return s.end - s.start }

// recorder keeps spans in a preallocated buffer; nothing is written out
// until the run ends.
type recorder struct {
	base    time.Time
	spans   []span
	n       atomic.Int64 // slots claimed
	written atomic.Int64 // slots filled (or dropped)
	dropped atomic.Int64
}

// newRecorder maps a buffer for capacity spans outside the Go heap, so
// that it neither inflates the traced stack's heap figures nor delays
// its garbage collections. Spans hold no pointers, so the collector never
// needs to see them.
func newRecorder(capacity int) (*recorder, error) {
	size := max(capacity, 1) * int(unsafe.Sizeof(span{}))
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map span buffer: %w", err)
	}
	spans := unsafe.Slice((*span)(unsafe.Pointer(&mem[0])), capacity)
	return &recorder{base: time.Now(), spans: spans}, nil
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) add(s span) {
	defer r.written.Add(1)
	i := r.n.Add(1) - 1
	if i >= int64(len(r.spans)) {
		r.dropped.Add(1)
		return
	}
	r.spans[i] = s
}

// done returns the recorded spans once every claimed slot is filled. It
// is called when the load has stopped; handlers still finishing their
// last spans get up to a second.
func (r *recorder) done() []span {
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if n := r.n.Load(); r.written.Load() == n && r.n.Load() == n {
			break
		}
	}
	n := min(r.n.Load(), int64(len(r.spans)))
	return r.spans[:n]
}

// reset discards every span so far; nothing may be recording.
func (r *recorder) reset() {
	r.n.Store(0)
	r.written.Store(0)
}

// dump writes spans as text lines: layer, request id, start and end in
// nanoseconds, bytes.
func dumpSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "layer,parent,req,start_ns,end_ns,bytes")
	for _, s := range spans {
		fmt.Fprintf(w, "%s,%s,%d,%d,%d,%d\n", layerNames[s.layer], layerNames[parentOf[s.layer]], s.req, s.start, s.end, s.bytes)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// interval is a half-open [start, end) stretch of time.
type interval struct{ start, end int64 }

// coverage returns how much of [lo, hi) the union of ivs covers.
func coverage(lo, hi int64, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, lo), min(iv.end, hi)
		if s < e {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total, curS, curE int64
	open := false
	for _, iv := range clipped {
		if open && iv.start <= curE {
			curE = max(curE, iv.end)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = iv.start, iv.end, true
	}
	if open {
		total += curE - curS
	}
	return total
}

// tree is one request's spans with their self times.
type tree struct {
	req   int32
	root  span            // the outermost handler span
	spans []span          // every span of the request
	self  []int64         // self time per spans[i]
	io    map[layer]int64 // WAL write/fsync time covered by the request's journal spans
}

// sum returns the request's total self time: every layer's self time plus
// the WAL I/O its journal spans covered.
func (t tree) sum() int64 {
	var s int64
	for _, v := range t.self {
		s += v
	}
	for _, v := range t.io {
		s += v
	}
	return s
}

// buildTrees groups spans by request and computes each span's self time:
// its duration minus the part of it that its child spans cover. A child
// is a span of the same request whose layer's parent is the span's layer
// and which lies inside it; WAL I/O spans (no request) are children of
// every journal span they overlap, clipped to it.
func buildTrees(spans []span) []tree {
	var walIO []span
	byReq := map[int32][]span{}
	for _, s := range spans {
		if s.req < 0 {
			walIO = append(walIO, s)
			continue
		}
		byReq[s.req] = append(byReq[s.req], s)
	}
	sort.Slice(walIO, func(i, j int) bool { return walIO[i].start < walIO[j].start })
	var longest int64
	for _, s := range walIO {
		longest = max(longest, s.dur())
	}
	// ioDuring returns the WAL I/O spans overlapping [lo, hi). None that
	// starts before lo-longest can reach lo.
	ioDuring := func(lo, hi int64) []span {
		i := sort.Search(len(walIO), func(i int) bool { return walIO[i].start >= lo-longest })
		var out []span
		for ; i < len(walIO) && walIO[i].start < hi; i++ {
			if walIO[i].end > lo {
				out = append(out, walIO[i])
			}
		}
		return out
	}
	ids := make([]int32, 0, len(byReq))
	for id := range byReq {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	trees := make([]tree, 0, len(ids))
	for _, id := range ids {
		ss := byReq[id]
		t := tree{req: id, spans: ss, self: make([]int64, len(ss)), io: map[layer]int64{}}
		hasRoot := false
		for i, s := range ss {
			if s.layer == lAdmission {
				t.root, hasRoot = s, true
			}
			var kids []interval
			for _, c := range ss {
				if c.layer != s.layer && parentOf[c.layer] == s.layer && c.start >= s.start && c.end <= s.end {
					kids = append(kids, interval{c.start, c.end})
				}
			}
			if s.layer == lJournal {
				for _, w := range ioDuring(s.start, s.end) {
					iv := interval{max(w.start, s.start), min(w.end, s.end)}
					kids = append(kids, iv)
					t.io[w.layer] += iv.end - iv.start
				}
			}
			t.self[i] = s.dur() - coverage(s.start, s.end, kids)
		}
		if hasRoot {
			trees = append(trees, t)
		}
	}
	return trees
}

// tracedFS wraps the WAL's filesystem seam to time writes and fsyncs.
type tracedFS struct {
	wal.FS
	rec       *recorder
	snapshots atomic.Int64
}

func (f *tracedFS) OpenAppend(name string) (wal.File, error) {
	file, err := f.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: file, rec: f.rec}, nil
}

func (f *tracedFS) Create(name string) (wal.File, error) {
	file, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	if isSnapshot(name) {
		f.snapshots.Add(1)
	}
	return &tracedFile{File: file, rec: f.rec}, nil
}

// isSnapshot reports whether a WAL path names a snapshot file (written
// under a temporary name, then renamed into place).
func isSnapshot(name string) bool { return strings.HasPrefix(filepath.Base(name), "snap-") }

type tracedFile struct {
	wal.File
	rec *recorder
}

func (f *tracedFile) Write(p []byte) (int, error) {
	t := f.rec.now()
	n, err := f.File.Write(p)
	f.rec.add(span{layer: lWALWrite, req: -1, start: t, end: f.rec.now(), bytes: int64(n)})
	return n, err
}

func (f *tracedFile) Sync() error {
	t := f.rec.now()
	err := f.File.Sync()
	f.rec.add(span{layer: lWALSync, req: -1, start: t, end: f.rec.now()})
	return err
}
