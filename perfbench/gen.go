package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"qtag/internal/beacon"
)

// Traffic shape shared by every phase: the paper's deployment mix.
const (
	campaigns   = 99
	loadedShare = 0.93 // served impressions whose tag checks in (Figure 3)
	inViewShare = 0.50 // measured impressions that reach in-view
	outOfView   = 0.40 // in-view impressions that later report out-of-view
	activePool  = 64   // impressions in flight at once, so lifecycles interleave
	batchEvents = 64   // events per mirror batch
	redeliver   = 0.02 // share of mirror batches sent twice (retry noise)
)

var (
	oses      = []string{"Android", "iOS", "Windows", "macOS"}
	siteTypes = []string{"app", "browser", "web", "amp"}
	adSizes   = []string{"300x250", "320x50", "728x90", "300x600"}
	epoch     = time.Date(2019, 6, 1, 0, 0, 0, 0, time.UTC)
)

// impression is one in-flight lifecycle: the events still to emit.
type impression struct{ events []beacon.Event }

// stream emits an endless, seed-determined sequence of beacons whose
// per-impression order is served → loaded → in-view → out-of-view, with
// activePool lifecycles interleaved the way independent browsers'
// beacons interleave at a collector.
type stream struct {
	rng    *rand.Rand
	prefix string
	n      int
	pool   []*impression
}

// newStream returns the stream for one phase. The phase tag keeps
// impression IDs of different phases (and seeds) disjoint.
func newStream(seed uint64, phase string) *stream {
	s := &stream{
		rng:    rand.New(rand.NewPCG(seed, hashString(phase))),
		prefix: fmt.Sprintf("%s%d-", phase, seed),
	}
	for i := 0; i < activePool; i++ {
		s.pool = append(s.pool, s.newImpression())
	}
	return s
}

func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func (s *stream) newImpression() *impression {
	id := s.prefix + fmt.Sprintf("%08d", s.n)
	at := epoch.Add(time.Duration(s.n) * 7 * time.Millisecond)
	s.n++
	meta := beacon.Meta{
		OS:       oses[s.rng.IntN(len(oses))],
		SiteType: siteTypes[s.rng.IntN(len(siteTypes))],
		AdSize:   adSizes[s.rng.IntN(len(adSizes))],
		Format:   "display",
		Slot:     fmt.Sprintf("slot-%d", s.rng.IntN(500)),
	}
	camp := fmt.Sprintf("camp-%03d", 1+s.rng.IntN(campaigns))
	ev := func(t beacon.EventType, src beacon.Source, d time.Duration) beacon.Event {
		return beacon.Event{ImpressionID: id, CampaignID: camp, Source: src, Type: t, At: at.Add(d), Meta: meta}
	}
	imp := &impression{events: []beacon.Event{ev(beacon.EventServed, "", 0)}}
	if s.rng.Float64() < loadedShare {
		imp.events = append(imp.events, ev(beacon.EventLoaded, beacon.SourceQTag, 150*time.Millisecond))
		if s.rng.Float64() < inViewShare {
			in := time.Second + time.Duration(s.rng.IntN(2000))*time.Millisecond
			imp.events = append(imp.events, ev(beacon.EventInView, beacon.SourceQTag, in))
			if s.rng.Float64() < outOfView {
				dwell := time.Duration(1+s.rng.IntN(30)) * time.Second
				imp.events = append(imp.events, ev(beacon.EventOutOfView, beacon.SourceQTag, in+dwell))
			}
		}
	}
	return imp
}

// next returns the next beacon.
func (s *stream) next() beacon.Event {
	i := s.rng.IntN(len(s.pool))
	imp := s.pool[i]
	e := imp.events[0]
	imp.events = imp.events[1:]
	if len(imp.events) == 0 {
		s.pool[i] = s.newImpression()
	}
	return e
}

// take returns the next n beacons.
func (s *stream) take(n int) []beacon.Event {
	out := make([]beacon.Event, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

// jsonBody is the JS tag's wire shape: one event object per POST.
func jsonBody(e beacon.Event) []byte {
	b, err := json.Marshal(e)
	if err != nil {
		panic(err) // a beacon.Event always marshals
	}
	return b
}

// request is one scheduled POST /v1/events.
type request struct {
	due    time.Duration // offset from the phase start (open loop)
	body   []byte
	binary bool
	events []beacon.Event
}

// beaconSchedule returns an open-loop schedule of single-beacon JSON
// requests with Poisson arrivals at rate per second over dur.
func beaconSchedule(s *stream, rng *rand.Rand, rate float64, dur time.Duration) []request {
	var reqs []request
	var t float64
	for {
		t += -math.Log(1-rng.Float64()) / rate
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			return reqs
		}
		e := s.next()
		reqs = append(reqs, request{due: due, body: jsonBody(e), events: []beacon.Event{e}})
	}
}

// batchSource yields closed-loop binary batch requests of batchEvents
// events; about redeliver of them are followed by a whole redelivery of
// the same body, as a retrying mirror or queue drain would send.
type batchSource struct {
	s       *stream
	rng     *rand.Rand
	pending *request
}

func newBatchSource(seed uint64, phase string) *batchSource {
	return &batchSource{s: newStream(seed, phase), rng: rand.New(rand.NewPCG(seed, hashString(phase+"/redeliver")))}
}

func (b *batchSource) next() request {
	if r := b.pending; r != nil {
		b.pending = nil
		return *r
	}
	events := b.s.take(batchEvents)
	r := request{body: beacon.AppendBinaryEvents(nil, events), binary: true, events: events}
	if b.rng.Float64() < redeliver {
		b.pending = &r
	}
	return r
}
